/**
 * @file
 * Machine-readable per-run manifest.
 *
 * The figure CSVs record *results*; the manifest records the *run*: what
 * configuration produced the numbers, from which source revision, how
 * long each workload took on the host, and the full CB 500 us MPKI
 * series that used to be computed and dropped. One `run.json` is written
 * next to the figure CSVs so results stay self-describing and diffable
 * across revisions. `examples/cosim_inspect.cpp` pretty-prints one.
 */

#ifndef COSIM_OBS_RUN_MANIFEST_HH
#define COSIM_OBS_RUN_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cosim {
namespace obs {

namespace json {
struct Value;
} // namespace json

/** Manifest schema identifier (bump on incompatible change). */
inline constexpr const char* kManifestSchema = "cosim-run-manifest/1";

/** The source revision this binary was built from ("unknown" outside git). */
std::string buildRevision();

/**
 * Sampled-simulation record for one workload (--cells=sampled): what
 * the plan covered and how far the weight-extrapolated estimates landed
 * from the full-run reference (relative error per gated metric).
 */
struct ManifestSampling
{
    bool active = false;

    /** Representative intervals simulated in detail. */
    std::uint64_t intervals = 0;
    /** CB windows in the profiled series. */
    std::uint64_t totalWindows = 0;
    /** Warm-up windows (discarded stats) before each interval. */
    std::uint64_t warmupQuanta = 0;
    /** Fraction of windows simulated in detail (intervals + warm-up). */
    double coverage = 0.0;

    /** A full-run reference existed, so the errors below are real
     * measurements (false for a pure --replay + --plan run, which has
     * no reference to compare against). */
    bool hasError = false;

    /** Relative error of the estimates vs the full-run reference. @{ */
    double errCpi = 0.0;
    double errMpki = 0.0;
    double errApki = 0.0;
    double errDram = 0.0;
    /** @} */

    /** Estimate / reference pairs behind the errors. @{ */
    double estCpi = 0.0, fullCpi = 0.0;
    double estMpki = 0.0, fullMpki = 0.0;
    double estApki = 0.0, fullApki = 0.0;
    /** @} */
};

/** One workload execution within a run. */
struct ManifestWorkload
{
    std::string name;
    std::uint64_t totalInsts = 0;
    double hostSeconds = 0.0;
    double simMips = 0.0;
    bool verified = false;

    /** Stream provenance: empty for a live execution, otherwise the
     * source the cell's emulator results were replayed from. */
    std::string replayedFrom;

    /** @name Cell outcome (--keep-going) @{ */
    /** "ok" or "failed". */
    std::string status = "ok";
    /** Attempts spent on the cell; a cell runs once, so always 1 (the
     * field is kept so run.json's format is unchanged). */
    std::uint64_t attempts = 1;
    /** The cell's error; empty unless status is "failed". */
    std::string error;
    /** @} */

    /** Final MPKI of every emulated configuration, in sweep order. */
    std::vector<double> mpkiPerConfig;

    /** CB 500 us sample series of the first emulated configuration. */
    std::vector<double> seriesTimeUs;
    std::vector<double> seriesMpki;

    /** Sampled-simulation record (active only under --cells=sampled). */
    ManifestSampling sampling;

    /** Serialize as one entry of the manifest's "workloads" array. */
    std::string toJson() const;

    /** Parse a toJson() object back into @p out (exact for every
     * field); false when @p v is not an object. */
    static bool fromJson(const json::Value& v, ManifestWorkload* out);
};

/** One phase of the host-profiler snapshot embedded in the manifest. */
struct ManifestHostPhase
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/** See file comment. */
struct RunManifest
{
    std::string figureId;
    std::string platform;
    unsigned nCores = 0;
    double scale = 1.0;
    std::uint64_t seed = 0;
    /** Seed provenance ("default", "cli", ...); see base/random.hh. */
    std::string seedSource = "default";

    /** Sweep axis labels, one per emulated configuration. */
    std::vector<std::string> configTicks;

    std::vector<ManifestWorkload> workloads;

    std::vector<ManifestHostPhase> hostPhases;
    double hostSimMips = 0.0;

    /** @name Host-parallelism record @{ */
    /** Sweep cells run on this many parallel host threads. */
    unsigned hostJobs = 1;
    /** Dragonhead emulation worker threads per rig (0 = inline). */
    unsigned emulationThreads = 0;
    /** Wall-clock of the whole sweep phase. */
    double wallSeconds = 0.0;
    /** Sum of per-workload host seconds over wallSeconds (>= ~1). */
    double hostSpeedup = 0.0;
    /** @} */

    /** @name FSB capture / replay record @{ */
    /** Sweep cell decomposition ("combined" / "exec" / "replay"). */
    std::string cellMode = "combined";
    /** Times the guest actually executed during the sweep (a pure
     * file-backed replay reports 0). */
    std::uint64_t guestExecutions = 0;
    /** Transactions and encoded bytes recorded by --capture. */
    std::uint64_t captureTxns = 0;
    std::uint64_t captureBytes = 0;
    /** Host wall-clock spent encoding captures (overhead gauge). */
    double captureSeconds = 0.0;
    /** Transactions and stream bytes fed back by replay cells. */
    std::uint64_t replayTxns = 0;
    std::uint64_t replayBytes = 0;
    double replaySeconds = 0.0;
    /** @} */

    /** @name Crash-safe sweep record (--journal / --resume) @{ */
    /** This run resumed an interrupted sweep from its journal. */
    bool resumed = false;
    /** Cells whose journaled artifacts verified and were not re-run. */
    std::uint64_t resumeSkipped = 0;
    /** Write-ahead journal path ("" when journaling was off). */
    std::string journalPath;
    /** @} */

    /** Serialize (pretty-printed JSON, schema + buildRevision included). */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal() on I/O error. */
    void writeJson(const std::string& path) const;
};

} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_RUN_MANIFEST_HH
