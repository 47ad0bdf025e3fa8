/**
 * @file
 * Replacement policies for the set-associative cache model.
 *
 * Dragonhead implemented LRU; the other policies exist for the ablation
 * study (bench/ablation_cache) and for validating the cache model against
 * known analytic properties (e.g. LRU's stack/inclusion property).
 */

#ifndef COSIM_CACHE_REPLACEMENT_HH
#define COSIM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>

namespace cosim {

/** Selector for the replacement policy of a cache. */
enum class ReplPolicy : std::uint8_t {
    LRU,      ///< least recently used (what Dragonhead emulates)
    FIFO,     ///< first in, first out
    Random,   ///< pseudo-random (deterministic xorshift)
    TreePLRU, ///< tree pseudo-LRU (requires power-of-two ways)
    NRU,      ///< not-recently-used single reference bit
};

/** Parse "lru"/"fifo"/"random"/"plru"/"nru"; fatal() on anything else. */
ReplPolicy parseReplPolicy(const std::string& name);

/** Stable lowercase name of a policy. */
const char* toString(ReplPolicy p);

/**
 * Per-cache replacement state of the policies that pick victims at
 * fixed way positions (Random, Tree-PLRU, NRU). The cache calls touch()
 * on hits, fill() on insertions, and victim() when it must evict from a
 * full set. LRU and FIFO need no state of their own: the cache keeps
 * each set's entries in recency or fill order (cache/cache.hh).
 */
class ReplacementState
{
  public:
    virtual ~ReplacementState() = default;

    /** An access hit (set, way). */
    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

    /** A new line was installed in (set, way). */
    virtual void fill(std::uint32_t set, std::uint32_t way) = 0;

    /** Choose the way to evict from a full @p set. */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    /** Policy identity. */
    virtual ReplPolicy policy() const = 0;

    /**
     * Factory; null for LRU and FIFO. @p ways must be a power of two
     * for TreePLRU.
     */
    static std::unique_ptr<ReplacementState>
    create(ReplPolicy p, std::uint32_t sets, std::uint32_t ways);
};

} // namespace cosim

#endif // COSIM_CACHE_REPLACEMENT_HH
