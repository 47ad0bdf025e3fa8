/**
 * @file
 * Sampled FSB replay: feed only a plan's representative intervals (plus
 * their warm-up prefixes) through the bus in detail, fast-forwarding
 * past everything else.
 *
 * The driver decodes the whole recorded stream but gates what reaches
 * the snoopers: *message* transactions (fsb_messages.hh) are always
 * delivered, so the CB's instruction/cycle totals and its 500 us window
 * clock stay exact, while *data* transactions are classified against
 * the plan's delivery windows -- each representative interval preceded
 * by warmup_windows of discarded-detail cache warm-up. The current
 * window is derived purely from the CyclesCompleted payloads in the
 * stream (the same clock the CB runs on), so interval boundaries align
 * exactly with the CB sample windows the plan was clustered from, and
 * the whole pass is a function of the stream and the plan alone -- no
 * wall-clock anywhere (cosim_analyze's interval-wallclock rule).
 *
 * Data outside the delivery windows is *functionally warmed*: still
 * fed through the bus so the emulated LLC's tag and replacement state
 * track the full run, but attributed to windows the estimator never
 * reads. SMARTS-style always-on warming is what makes the
 * representative deltas trustworthy -- a line whose last use fell in a
 * fast-forwarded span would otherwise phantom-miss in a later measured
 * window (reuse distances in the LLC routinely span many 500 us
 * windows).
 *
 * Warming is *diluted*: fast-forwarded data transactions whose 64 B
 * line a novelty filter has seen recently are thinned to every 4th,
 * while first-touch lines are always issued -- the LLC keeps every
 * distinct line of the span, so dilution cannot starve a reuse-heavy
 * working set into phantom misses; it only coarsens replacement order,
 * which the detailed warm-up windows ahead of each interval repair
 * before any sample the estimator reads. The filter and stride counter
 * are plain functions of the stream, part of the pass's deterministic
 * state: same stream + plan => same delivery.
 *
 * Because every window still closes, the emulator's sample series keeps
 * one entry per window: fast-forwarded windows' deltas land in samples
 * the estimator ignores, detail windows carry exact warm-started ones.
 * Whole-run metrics are then reconstructed as weight-extrapolated sums
 * over the representative windows (harness/sweep_runner.cc).
 */

#ifndef COSIM_TRACE_SAMPLED_REPLAY_HH
#define COSIM_TRACE_SAMPLED_REPLAY_HH

#include <cstdint>

#include "trace/fsb_replay.hh"
#include "trace/phase_cluster.hh"

namespace cosim {

class FrontSideBus;

/** What the delivery gate did during one sampled pass. */
struct SampledReplayStats
{
    /** Data transactions delivered inside warm-up/detail windows. */
    std::uint64_t dataDelivered = 0;
    /** Data transactions delivered warm-only (outside the detail
     * windows; they update LLC state but land in samples the estimator
     * never reads). */
    std::uint64_t dataWarmed = 0;
    /** Fast-forwarded data transactions the warming dilution dropped. */
    std::uint64_t dataSkipped = 0;
    /** Message transactions (always delivered). */
    std::uint64_t messages = 0;
    /** Plan intervals whose window the stream actually reached. */
    std::uint64_t intervalsReached = 0;
    /** Contiguous fast-forwarded (warmed or skipped) window spans. */
    std::uint64_t skippedSpans = 0;
    /** Windows the stream covered (full windows closed + the tail). */
    std::uint64_t windowsSeen = 0;
};

/** See file comment. */
class SampledReplayDriver
{
  public:
    /**
     * Sampled-replay @p reader's stream -- opened from a buffer or a
     * file -- through @p bus under @p plan. Stream errors surface
     * exactly as in ReplayDriver::replay (error in the result,
     * already-decoded windows delivered); the result's `seconds` is
     * left 0 for the caller to fill -- this translation unit
     * deliberately never reads the host clock.
     */
    ReplayResult replay(FsbStreamReader& reader, const SamplingPlan& plan,
                        FrontSideBus& bus,
                        SampledReplayStats* stats = nullptr);
};

} // namespace cosim

#endif // COSIM_TRACE_SAMPLED_REPLAY_HH
