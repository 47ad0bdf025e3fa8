#include "cache/replacement.hh"

#include <algorithm>
#include <vector>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cosim {

ReplPolicy
parseReplPolicy(const std::string& name)
{
    std::string n = toLower(name);
    if (n == "lru")
        return ReplPolicy::LRU;
    if (n == "fifo")
        return ReplPolicy::FIFO;
    if (n == "random")
        return ReplPolicy::Random;
    if (n == "plru" || n == "treeplru" || n == "tree-plru")
        return ReplPolicy::TreePLRU;
    if (n == "nru")
        return ReplPolicy::NRU;
    fatal("unknown replacement policy '%s'", name.c_str());
}

const char*
toString(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::LRU:
        return "lru";
      case ReplPolicy::FIFO:
        return "fifo";
      case ReplPolicy::Random:
        return "random";
      case ReplPolicy::TreePLRU:
        return "plru";
      case ReplPolicy::NRU:
        return "nru";
    }
    return "?";
}

namespace {

/** Deterministic pseudo-random victim selection. */
class RandomState : public ReplacementState
{
  public:
    RandomState(std::uint32_t ways) : ways_(ways) {}

    void touch(std::uint32_t, std::uint32_t) override {}
    void fill(std::uint32_t, std::uint32_t) override {}

    std::uint32_t
    victim(std::uint32_t set) override
    {
        // xorshift64*, perturbed by the set index for spatial variety.
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        std::uint64_t r = (state_ + set) * 0x2545f4914f6cdd1dull;
        return static_cast<std::uint32_t>(r % ways_);
    }

    ReplPolicy policy() const override { return ReplPolicy::Random; }

  private:
    std::uint32_t ways_;
    std::uint64_t state_ = 0x853c49e6748fea9bull;
};

/** Classic tree pseudo-LRU over a power-of-two number of ways. */
class TreePlruState : public ReplacementState
{
  public:
    TreePlruState(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), levels_(floorLog2(ways)),
          bits_(static_cast<std::size_t>(sets) * (ways - 1), 0)
    {
        fatal_if(!isPowerOf2(ways), "TreePLRU requires power-of-two ways");
        fatal_if(ways < 2, "TreePLRU requires at least 2 ways");
    }

    void
    touch(std::uint32_t set, std::uint32_t way) override
    {
        setPath(set, way);
    }

    void
    fill(std::uint32_t set, std::uint32_t way) override
    {
        setPath(set, way);
    }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        std::size_t base = static_cast<std::size_t>(set) * (ways_ - 1);
        std::uint32_t node = 0;
        for (unsigned level = 0; level < levels_; ++level) {
            bool right = bits_[base + node] != 0;
            node = 2 * node + 1 + (right ? 1 : 0);
        }
        return node - (ways_ - 1);
    }

    ReplPolicy policy() const override { return ReplPolicy::TreePLRU; }

  private:
    /** Point every tree node on the way's path *away* from the way. */
    void
    setPath(std::uint32_t set, std::uint32_t way)
    {
        std::size_t base = static_cast<std::size_t>(set) * (ways_ - 1);
        std::uint32_t node = way + (ways_ - 1);
        while (node != 0) {
            std::uint32_t parent = (node - 1) / 2;
            bool came_from_right = (node == 2 * parent + 2);
            bits_[base + parent] = came_from_right ? 0 : 1;
            node = parent;
        }
    }

    std::uint32_t ways_;
    unsigned levels_;
    std::vector<std::uint8_t> bits_;
};

/** Not-recently-used: one reference bit per line. */
class NruState : public ReplacementState
{
  public:
    NruState(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), refBits_(static_cast<std::size_t>(sets) * ways, 0)
    {}

    void
    touch(std::uint32_t set, std::uint32_t way) override
    {
        mark(set, way);
    }

    void
    fill(std::uint32_t set, std::uint32_t way) override
    {
        mark(set, way);
    }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        std::size_t base = static_cast<std::size_t>(set) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (refBits_[base + w] == 0)
                return w;
        }
        // All referenced: clear the epoch and evict way 0.
        std::fill_n(refBits_.begin() + static_cast<std::ptrdiff_t>(base),
                    ways_, std::uint8_t{0});
        return 0;
    }

    ReplPolicy policy() const override { return ReplPolicy::NRU; }

  private:
    void
    mark(std::uint32_t set, std::uint32_t way)
    {
        std::size_t base = static_cast<std::size_t>(set) * ways_;
        refBits_[base + way] = 1;
        // If marking filled the set, age everyone else so victims exist.
        bool all = true;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (refBits_[base + w] == 0) {
                all = false;
                break;
            }
        }
        if (all) {
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (w != way)
                    refBits_[base + w] = 0;
        }
    }

    std::uint32_t ways_;
    std::vector<std::uint8_t> refBits_;
};

} // namespace

std::unique_ptr<ReplacementState>
ReplacementState::create(ReplPolicy p, std::uint32_t sets,
                         std::uint32_t ways)
{
    fatal_if(sets == 0 || ways == 0, "cache must have sets and ways");
    switch (p) {
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO:
        return nullptr;
      case ReplPolicy::Random:
        return std::make_unique<RandomState>(ways);
      case ReplPolicy::TreePLRU:
        return std::make_unique<TreePlruState>(sets, ways);
      case ReplPolicy::NRU:
        return std::make_unique<NruState>(sets, ways);
    }
    panic("unreachable replacement policy value");
}

} // namespace cosim
