/**
 * @file
 * One sweep cell: a stream source times an emulator group.
 *
 * The paper gets a whole LLC sweep from one workload execution by
 * attaching passive Dragonheads to it. Every --cells mode is a choice
 * of cells over one body (runCellBody):
 *
 *   mode      phase-1 cell, per workload     phase-2 cells
 *   combined  -                              Guest|File x All, per workload
 *   exec      -                              Guest x One, per config
 *   replay    Guest x None (in-memory FSBC)  Memory|File x One, per config
 *   sampled   Guest|File x One, config 0     Sampled x All, per workload
 *
 * A phase-1 cell produces what its workload's later cells consume (the
 * in-memory capture, the sampling plan and its full-run reference);
 * with --replay (and, for sampled, --plan) the inputs come from files
 * and phase 1 disappears. Capture and digest ride on whichever cell
 * speaks for the workload's first configuration.
 *
 * A rig is the CoSimulation a cell runs on. RigSlot enforces the one
 * lifetime rule: at most one rig per running cell, reused by the next
 * cell of a serial sweep only when it attaches the same emulator group
 * and the previous attempt succeeded, and never kept past its cell
 * otherwise.
 */

#ifndef COSIM_HARNESS_SWEEP_CELL_HH
#define COSIM_HARNESS_SWEEP_CELL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cosim.hh"
#include "core/results.hh"
#include "harness/report.hh"
#include "obs/run_manifest.hh"
#include "trace/phase_cluster.hh"

namespace cosim {

namespace obs {
class HeartbeatSlot;
} // namespace obs

/** Everything one sweep cell (or one workload's merged cells) produces. */
struct CellOutput
{
    /** Manifest entry; mw.mpkiPerConfig is also the figure series. */
    obs::ManifestWorkload mw;
    std::vector<SweepPoint> points;

    /** Cell outcome: true when every attempt failed. The manifest
     * entry (mw.status / mw.attempts / mw.error) carries the detail. */
    bool failed = false;

    /** Times the guest executed to produce this output. */
    std::uint64_t guestExecutions = 0;

    /** Stream fingerprint for the digest manifest (when observed). @{ */
    bool hasDigest = false;
    std::uint64_t streamTxns = 0;
    std::uint64_t streamDigest = 0;
    /** @} */

    /** Capture/replay bookkeeping for the run manifest. @{ */
    std::uint64_t captureTxns = 0;
    std::uint64_t captureBytes = 0;
    double captureSeconds = 0.0;
    std::uint64_t replayTxns = 0;
    std::uint64_t replayBytes = 0;
    double replaySeconds = 0.0;
    /** @} */

    /** Raw CB sample series of the first configuration; the input
     * --plan-out clusters into a sampling plan. */
    std::vector<Sample> cbSamples;
};

/** Where a cell's bus stream comes from. */
enum class StreamSource : std::uint8_t
{
    Guest,   ///< execute the workload live
    Memory,  ///< the workload's in-memory FSBC capture (phase 1)
    File,    ///< "<replayBase>.<workload>.fsb"
    Sampled, ///< the capture or file, gated by the workload's plan
};

/** Which of the sweep's configurations a cell's rig attaches. */
enum class EmulatorGroup : std::uint8_t
{
    All,   ///< every configuration
    One,   ///< SweepCell::config only
    None,  ///< no emulator: the rig only produces the stream
};

/** One planned sweep cell. */
struct SweepCell
{
    /** Progress/journal label; stats freeze under "cell/<label>/". */
    std::string label;
    /** Index into BenchOptions::workloads. */
    std::size_t workload = 0;
    StreamSource source = StreamSource::Guest;
    EmulatorGroup group = EmulatorGroup::All;
    /** The configuration of a One group. */
    std::size_t config = 0;
    /** Record the stream: in memory for phase 2 (phase-1 cells) and
     * to "<captureBase>.<workload>.fsb" under --capture. */
    bool capture = false;
    /** Fingerprint the stream for --digest (a replay always has the
     * reader's fingerprint; this says whether the cell reports it). */
    bool digest = false;
    /** Produces the workload's stream and plan for its later cells. */
    bool phase1 = false;
};

/** The figure every cell of a sweep belongs to. */
struct SweepFigure
{
    const BenchOptions& opts;
    PlatformParams platform;
    /** One per configuration, CB windows already retimed. */
    std::vector<DragonheadParams> emulators;
    std::vector<std::string> ticks;
};

/**
 * A figure's cells in progress-row order, and how to run them: stages
 * run one after another (the phase-1 barrier of replay mode); within a
 * stage, chains run concurrently across --jobs host threads, each chain
 * executing its cells in order on one thread (sampled mode fuses a
 * workload's profile and sampled cells into one chain).
 */
struct SweepPlan
{
    using Chain = std::vector<std::size_t>;

    std::vector<SweepCell> cells;
    std::vector<std::vector<Chain>> stages;
};

/** Plan every cell of @p fig's sweep (see file comment). */
SweepPlan planSweep(const SweepFigure& fig);

/** What one workload's cells share: its stream, plan and phase 1. */
struct WorkloadStream
{
    /** In-memory capture (null = file-backed via @ref path). */
    std::shared_ptr<const std::vector<std::uint8_t>> buffer;
    std::string path;
    /** Provenance label for in-memory replays. */
    std::string source;

    /** The phase-1 cell's output (failed = later cells cannot run). */
    CellOutput base;

    /** Sampled mode: the plan the sampled cell replays under. @{ */
    SamplingPlan plan;
    bool hasPlan = false;
    /** @} */

    /** Sampled mode: full-run reference counters from the profiling
     * pass, the denominator of the accuracy layer (absent when the
     * plan came from --plan and the stream from --replay: nothing was
     * profiled, so nothing can be compared). @{ */
    LlcResults ref;
    bool hasRef = false;
    /** @} */
};

/**
 * Resolve workload @p w's file-backed inputs before any cell runs: the
 * --replay stream path, and the --plan file when no phase-1 cell
 * produces the plan. A plan that does not load fails the workload
 * (base.failed), not the sweep.
 */
WorkloadStream resolveStream(const SweepFigure& fig, std::size_t w);

/**
 * The rig lifetime rule (see file comment). A slot holds at most one
 * rig; acquire() builds -- the one place a sweep assembles CoSimParams
 * -- unless the held rig can be reused, and finish() drops the rig
 * unless the next cell of a serial sweep can take it over.
 */
class RigSlot
{
  public:
    /** The rig for attempt @p attempt of @p cell, publishing into
     * @p beat (which must outlive the rig). */
    CoSimulation& acquire(const SweepFigure& fig, const SweepCell& cell,
                          unsigned attempt, obs::HeartbeatSlot* beat);

    /** The holding cell ended (@p ok = it succeeded); keep the rig only
     * for @p next, the cell a serial sweep runs next (null = none). */
    void finish(bool ok, const SweepCell* next);

  private:
    bool fits(const SweepCell& cell) const;

    std::unique_ptr<CoSimulation> rig_;
    EmulatorGroup group_ = EmulatorGroup::None;
    std::size_t config_ = 0;
};

/**
 * Run @p cell on @p rig: execute or replay its stream, collect the
 * attached configurations, and freeze the rig's stats under
 * "cell/<label>/". A phase-1 cell also fills @p ws (stream, plan,
 * reference); later cells only read it. Throws on any failure.
 */
CellOutput runCellBody(const SweepFigure& fig, const SweepCell& cell,
                       CoSimulation& rig, WorkloadStream& ws);

/** Fold one workload's cells into its figure row: @p base is the
 * phase-1 output (null when the plan has none). */
CellOutput mergeWorkloadCells(const std::string& name,
                              const CellOutput* base,
                              std::vector<CellOutput>& configs);

/** Cluster @p samples into a plan whose window geometry matches the
 * sweep's CB configuration @p cb. */
SamplingPlan makePlan(const std::vector<Sample>& samples,
                      const std::string& name,
                      const ControlBlockParams& cb,
                      const BenchOptions& opts);

} // namespace cosim

#endif // COSIM_HARNESS_SWEEP_CELL_HH
