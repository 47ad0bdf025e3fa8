/**
 * @file
 * The hardware-software co-simulation rig: SoftSDV (virtual platform)
 * plus Dragonhead (passive cache emulation) on one bus.
 *
 * This is the paper's primary contribution, assembled: the DEX scheduler
 * time-slices virtual cores while one *or several* Dragonhead instances
 * snoop the FSB. Because the emulation is passive, attaching several
 * emulators with different LLC configurations evaluates a whole design
 * sweep in a single workload execution. Configurations that differ only
 * in LLC capacity are grouped into one LlcStack, which emulates them in
 * one pass; emulator(i) is configuration i's view either way.
 *
 * Two emulation modes:
 *
 *  - *Serial* (emulationThreads == 0, the default): every stack is
 *    attached to the bus directly and emulates each delivered chunk
 *    inline on the workload's host thread.
 *  - *Parallel* (emulationThreads > 0): the stacks live in an
 *    AsyncEmulatorBank whose worker threads emulate the chunks while
 *    the workload keeps executing -- the software analogue of the FPGA
 *    emulating concurrently with the host CPUs. A stack of several
 *    capacities is split into sub-stacks, one per worker. Results are
 *    bit-identical to serial mode (tests/test_parallel.cc enforces
 *    this).
 *
 * Either way the bus batches transactions into chunks (fsbBatchTxns),
 * so snoopers pay one virtual call per chunk, not per transaction.
 */

#ifndef COSIM_CORE_COSIM_HH
#define COSIM_CORE_COSIM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/emulator_bank.hh"
#include "dragonhead/dragonhead.hh"
#include "softsdv/virtual_platform.hh"
#include "trace/fsb_replay.hh"
#include "trace/sampled_replay.hh"

namespace cosim {

/** Configuration of a co-simulation. */
struct CoSimParams
{
    PlatformParams platform;
    std::vector<DragonheadParams> emulators;

    /**
     * Host threads emulating Dragonheads; 0 = serial inline emulation.
     * The bank splits a stack of capacities to give each thread one,
     * so min(emulationThreads, LLC levels) threads run (fig4's seven
     * sizes: up to seven).
     */
    unsigned emulationThreads = 0;

    /**
     * FSB delivery chunk size in transactions; 0 picks the default
     * (4096). The bus delivers whole chunks to every snooper in serial
     * and parallel mode alike, amortizing the per-transaction virtual
     * dispatch; 1 restores per-transaction delivery.
     */
    std::size_t fsbBatchTxns = 0;
};

/** See file comment. */
class CoSimulation
{
  public:
    explicit CoSimulation(const CoSimParams& params);
    ~CoSimulation();

    CoSimulation(const CoSimulation&) = delete;
    CoSimulation& operator=(const CoSimulation&) = delete;

    /**
     * Run @p workload once; every attached emulator observes the same
     * execution. Emulators are reset at run entry. In parallel mode the
     * call returns only after every worker has drained, so emulator
     * results are settled; the drain time is folded into
     * RunResult::hostSeconds (the emulation window is not over until
     * the last chunk is emulated) and reported as drainSeconds.
     */
    RunResult run(Workload& workload, const WorkloadConfig& cfg);

    /**
     * Feed a recorded FSB stream through the attached emulators instead
     * of executing a guest. @p reader is freshly opened, from a buffer
     * or a file; @p source names it for provenance ("memory:<name>",
     * "file:<path>"). Emulators are reset at entry and observe the
     * exact live sequence, so their counters and CB samples are
     * bit-identical to the run that was captured. The returned result
     * carries the captured run's totalInsts/verified plus @p source as
     * `replayedFrom`; CPU-side counters stay zero.
     * @throws std::runtime_error on a stream that did not open or is
     * corrupt, so a sweep cell replaying a bad capture can be isolated
     * instead of killing the whole run. @p details (optional) receives
     * the replay's stream statistics.
     */
    RunResult replay(FsbStreamReader& reader, const std::string& source,
                     ReplayResult* details = nullptr);

    /**
     * Sampled replay: deliver only @p plan's representative intervals
     * (plus warm-up) through the emulators in detail, functionally
     * warming them with a diluted share of the rest
     * (trace/sampled_replay.hh). Message transactions are always
     * delivered, so CB totals and the sample-window clock stay exact;
     * the caller reconstructs whole-run metrics from the emulator's
     * per-window samples and the plan weights. Stream and error
     * contract match replay(); `replayedFrom` is "sampled:<source>".
     */
    RunResult replaySampled(FsbStreamReader& reader,
                            const std::string& source,
                            const SamplingPlan& plan,
                            ReplayResult* details = nullptr);

    unsigned nEmulators() const
    {
        return bank_ ? bank_->nEmulators() : stacks_->nBoards();
    }

    /** Host worker threads emulating; 0 in serial mode. */
    unsigned emulationThreads() const
    {
        return bank_ ? bank_->nThreads() : 0;
    }

    const Dragonhead& emulator(unsigned i) const;

    /** The bank, or nullptr in serial mode (diagnostics/tests). */
    const AsyncEmulatorBank* bank() const { return bank_.get(); }

    /** MPKI of every emulator, in configuration order. */
    std::vector<double> mpkis() const;

    /**
     * The whole rig's stats as they stand: the platform's groups, then
     * per emulator a "dragonhead<i>" group followed by its slices'
     * groups. The same in serial and parallel mode: how the bank's
     * workers shared the chunks depends on host threads, so it stays
     * out.
     */
    std::vector<stats::Group> stats() const;

    VirtualPlatform& platform() { return platform_; }

  private:
    /** Return every emulator to power-on state. */
    void resetEmulators();
    /** Reset emulators and bus counters before a replay pass. */
    void prepareReplay();
    /** Wait for the bank's workers (if any) to drain, timing the wait
     * into @p result's drainSeconds and hostSeconds. */
    void drainBank(RunResult& result);
    /** Drain workers and assemble a replay-mode RunResult. */
    RunResult finishReplay(const ReplayResult& rr,
                           const std::string& source,
                           ReplayResult* details);

    VirtualPlatform platform_;
    /** Serial mode: the emulators' stacks, attached directly. */
    std::unique_ptr<DragonheadStacks> stacks_;
    /** Parallel mode: emulators owned by the worker bank. */
    std::unique_ptr<AsyncEmulatorBank> bank_;
};

} // namespace cosim

#endif // COSIM_CORE_COSIM_HH
