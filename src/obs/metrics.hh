/**
 * @file
 * Live metrics: lock-free counters and log2-bucketed histograms.
 *
 * base/stats.hh answers "what did the run add up to?" at dump time;
 * this layer answers "what is the *distribution*, right now?" cheaply
 * enough to sit on simulation hot paths (LLC miss latency, FSB batch
 * sizes, SPSC queue depth, per-cell wall time). The design is
 * thread-local, merged-on-snapshot:
 *
 *  - Registration (slow, mutex): counter()/histogram() validate the
 *    name, assign a dense id, and return a copyable handle. Names are
 *    dotted lower-case paths ("mem.miss_latency_cycles"), matching the
 *    StatsRegistry scheme; charset [a-z0-9_.], enforced here at
 *    runtime and by the cosim_analyze "metric-name" rule at review time.
 *    Registering a name twice panics -- call sites hold their handle
 *    in a function-local static so registration runs once per process.
 *
 *  - Recording (fast, lock-free): each thread lazily gets a private
 *    shard of plain atomics; add()/record() are a relaxed load of the
 *    enabled flag plus, when enabled, one or three relaxed fetch_adds
 *    into the calling thread's shard. No locks, no allocation, no
 *    false sharing with other threads' hot counters.
 *
 *  - Snapshot (slow, mutex): snapshot() sums every thread's shard into
 *    plain structs. Snapshot::delta() subtracts two snapshots so a
 *    sampler can poll at rate and publish per-interval values.
 *
 * Histograms bucket by log2: value v lands in bucket 0 when v == 0,
 * else bucket min(63, 1 + floor(log2(v))) -- so bucket i (i >= 1)
 * spans [2^(i-1), 2^i - 1] and its OpenMetrics `le` bound is 2^i - 1.
 * Two orders of magnitude of latency fit in ~7 buckets, which is the
 * right fidelity for "did the tail move?" questions.
 *
 * The registry is OFF by default: with no --metrics/--progress flag
 * every record path is one relaxed load and a predictable branch, and
 * artifacts stay bit-identical.
 *
 * Exports: renderOpenMetrics() emits OpenMetrics text (dots become
 * underscores, a "cosim_" prefix is added, `# EOF` terminates);
 * statsGroup() bridges frozen totals into the StatsRegistry dumpers.
 */

#ifndef COSIM_OBS_METRICS_HH
#define COSIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"
#include "base/stats.hh"

namespace cosim {
namespace obs {
namespace metrics {

class Registry;

/** Buckets per histogram; bucket 63 absorbs everything >= 2^62. */
constexpr std::size_t kHistBuckets = 64;

/** Log2 bucket index for @p v (see file comment). */
inline unsigned
bucketIndex(std::uint64_t v)
{
    if (v == 0)
        return 0;
    unsigned idx = 64 - static_cast<unsigned>(__builtin_clzll(v));
    return idx < kHistBuckets ? idx
                              : static_cast<unsigned>(kHistBuckets - 1);
}

/** Inclusive upper bound of bucket @p i; bucket 63 is unbounded and
 * rendered as +Inf. */
inline std::uint64_t
bucketUpperBound(unsigned i)
{
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

/** Copyable handle to one registered counter. */
class Counter
{
  public:
    Counter() = default;

    /** Lock-free; no-op while the registry is disabled. */
    void add(std::uint64_t n = 1) const;
    void inc() const { add(1); }

  private:
    friend class Registry;
    Counter(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}

    Registry* reg_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Copyable handle to one registered histogram. */
class Histogram
{
  public:
    Histogram() = default;

    /** Lock-free; no-op while the registry is disabled. */
    void record(std::uint64_t value) const;

  private:
    friend class Registry;
    Histogram(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}

    Registry* reg_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Plain-struct view of every metric, merged across threads. */
struct Snapshot
{
    struct CounterValue
    {
        std::string name;
        std::string help;
        std::uint64_t value = 0;
    };

    struct HistogramValue
    {
        std::string name;
        std::string help;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::array<std::uint64_t, kHistBuckets> buckets{};
    };

    std::vector<CounterValue> counters;
    std::vector<HistogramValue> histograms;

    /**
     * Per-interval view: @p now minus @p prev, matched by name.
     * Metrics absent from @p prev (registered since) keep their full
     * value. All metrics are monotone, so the result is never negative.
     */
    static Snapshot delta(const Snapshot& now, const Snapshot& prev);
};

/** See file comment. */
class Registry
{
  public:
    static constexpr std::size_t kMaxCounters = 256;
    static constexpr std::size_t kMaxHistograms = 64;

    /** The process-wide registry all instrumentation records into. */
    static Registry& global();

    Registry();
    ~Registry();

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /**
     * Register a counter. @p name must match [a-z][a-z0-9_.]* and be
     * new to this registry; violations panic (simulator bug).
     */
    Counter counter(const std::string& name, const std::string& help);

    /** Register a histogram; same naming contract as counter(). */
    Histogram histogram(const std::string& name, const std::string& help);

    /** Recording gate; disabled (the default) makes every handle
     * operation one relaxed load. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Merge every thread's shard into plain values. */
    Snapshot snapshot() const EXCLUDES(mutex_);

    /** Zero every recorded value, keeping registrations (tests and
     * benchmarks; racing recorders may leak a few counts in). */
    void resetValues() EXCLUDES(mutex_);

    /** Registered metric count (counters + histograms). */
    std::size_t size() const EXCLUDES(mutex_);

    /**
     * Frozen totals as a stats::Group named @p name: "<counter>" for
     * counters, "<hist>.count" / "<hist>.sum" / "<hist>.mean" for
     * histograms -- how distributions reach the JSON/CSV/text dumpers.
     */
    stats::Group statsGroup(const std::string& name = "metrics") const;

  private:
    friend class Counter;
    friend class Histogram;

    struct Shard;
    struct Meta
    {
        std::string name;
        std::string help;
    };

    Shard& localShard();
    Shard& localShardSlow();
    void validateName(const std::string& name) const REQUIRES(mutex_);

    const std::uint64_t uid_; ///< distinguishes reincarnated addresses
    std::atomic<bool> enabled_{false};

    mutable Mutex mutex_;
    std::vector<Meta> counters_ GUARDED_BY(mutex_);
    std::vector<Meta> histograms_ GUARDED_BY(mutex_);
    std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mutex_);
};

/** True when the process-wide registry is recording. */
inline bool
enabled()
{
    return Registry::global().enabled();
}

inline void
setEnabled(bool on)
{
    Registry::global().setEnabled(on);
}

/** Register on the process-wide registry. Call once and keep the
 * handle (idiomatically in a function-local static at the use site). */
Counter counter(const std::string& name, const std::string& help);
Histogram histogram(const std::string& name, const std::string& help);

/**
 * Render @p snap in OpenMetrics text format: "cosim_" prefix, dots
 * mapped to underscores, `# TYPE`/`# HELP` per family, `_total`
 * samples for counters, cumulative `_bucket{le="..."}` plus `_sum` and
 * `_count` for histograms, and a final `# EOF` line.
 */
std::string renderOpenMetrics(const Snapshot& snap);

} // namespace metrics
} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_METRICS_HH
