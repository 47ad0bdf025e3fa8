#include "trace/sampled_replay.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "dragonhead/fsb_messages.hh"
#include "mem/fsb.hh"

namespace cosim {

namespace {

/** A merged, inclusive window range data is delivered inside. */
struct DeliveryRange
{
    std::uint64_t first = 0;
    std::uint64_t last = 0;
};

/**
 * Per-interval [window - warmup, window] ranges, merged where warm-up
 * prefixes overlap a neighbouring interval. Plans are validated to have
 * strictly ascending windows, so a single sorted pass suffices.
 */
std::vector<DeliveryRange>
deliveryRanges(const SamplingPlan& plan)
{
    std::vector<DeliveryRange> ranges;
    for (const PlanInterval& iv : plan.intervals) {
        const std::uint64_t warm =
            std::min<std::uint64_t>(plan.warmupWindows, iv.window);
        DeliveryRange r{iv.window - warm, iv.window};
        if (!ranges.empty() && r.first <= ranges.back().last + 1)
            ranges.back().last = std::max(ranges.back().last, r.last);
        else
            ranges.push_back(r);
    }
    return ranges;
}

/** The delivery gate: tracks the current CB window and whether data
 * transactions currently pass. */
class Gate
{
  public:
    explicit Gate(const SamplingPlan& plan)
        : ranges_(deliveryRanges(plan))
    {
        cyclesPerWindow_ = static_cast<std::uint64_t>(
            plan.samplePeriodUs * 1000.0 * plan.coreFreqGhz);
        fatal_if(cyclesPerWindow_ == 0,
                 "sampling plan window shorter than a cycle");
        refresh();
    }

    /** Feed one decoded message; advances the window clock. */
    void
    onMessage(const msg::Message& m)
    {
        if (m.type != msg::Type::CyclesCompleted)
            return;
        cycles_ += m.payload;
        const std::uint64_t w = cycles_ / cyclesPerWindow_;
        if (w != window_) {
            window_ = w;
            refresh();
        }
    }

    bool delivering() const { return delivering_; }

  private:
    void
    refresh()
    {
        while (range_ < ranges_.size() && ranges_[range_].last < window_)
            ++range_;
        delivering_ = range_ < ranges_.size() &&
                      window_ >= ranges_[range_].first;
    }

    std::vector<DeliveryRange> ranges_;
    std::uint64_t cyclesPerWindow_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t window_ = 0;
    std::size_t range_ = 0;
    bool delivering_ = false;
};

/** Warming dilution: every Nth repeat-line fast-forwarded data
 * transaction is issued. */
constexpr std::uint64_t kWarmStride = 4;

/** Reuse-filter geometry: a direct-mapped table of recently seen line
 * tags, sized past the largest swept LLC's line count so a resident
 * working set fits. 64 B lines are the finest any sweep configuration
 * uses, so tracking at that grain can only over-deliver into a
 * coarser-lined LLC, never starve it. */
constexpr std::size_t kSeenSlotBits = 17;
constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

/** Fibonacci hash: strided address sequences alias in the low bits. */
inline std::size_t
seenSlot(std::uint64_t line)
{
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kSeenSlotBits));
}

} // namespace

ReplayResult
SampledReplayDriver::replay(FsbStreamReader& reader,
                            const SamplingPlan& plan, FrontSideBus& bus)
{
    ReplayResult result;
    Gate gate(plan);

    // Dilution: a line the novelty filter has not seen (first touch,
    // or re-touch after its slot was reclaimed) is always issued, so
    // the LLC keeps every distinct line of the fast-forwarded span and
    // a reuse-heavy working set cannot be starved into phantom misses.
    // Only *repeat* traffic is thinned, to every Nth candidate; what
    // that costs is replacement-order fidelity, which the detailed
    // warm-up windows ahead of each interval repair. The tick counter
    // and filter are plain functions of the stream, so the pass stays
    // deterministic across chunk boundaries.
    std::uint64_t warm_tick = 0;
    std::vector<std::uint64_t> seen(std::size_t{1} << kSeenSlotBits,
                                    kNoLine);

    std::vector<BusTransaction> chunk;
    while (reader.nextChunk(chunk)) {
        for (const BusTransaction& txn : chunk) {
            if (msg::isMessageAddr(txn.addr)) {
                bus.issue(txn);
                gate.onMessage(msg::decode(txn.addr));
                continue;
            }
            if (gate.delivering()) {
                bus.issue(txn);
            } else {
                const std::uint64_t line = txn.addr >> 6;
                std::uint64_t& tag = seen[seenSlot(line)];
                const bool repeat = tag == line;
                tag = line;
                if (!repeat || warm_tick++ % kWarmStride == 0) {
                    // Functional warming: the LLC state keeps tracking
                    // the full run; the delta lands in an unread window.
                    bus.issue(txn);
                }
            }
        }
        ++result.chunks;
    }
    // A batched bus may hold a partial chunk, exactly as at the end of
    // a live run; snoopers must see the complete delivered stream.
    bus.flush();

    result.meta = reader.meta();
    result.txns = reader.txnsDecoded();
    result.streamBytes = reader.streamBytes();
    result.digest = reader.contentDigest();
    result.ok = reader.ok();
    if (!result.ok)
        result.error = reader.error();
    return result;
}

} // namespace cosim
