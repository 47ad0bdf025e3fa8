/**
 * @file
 * Shared command-line handling and output conventions for the bench
 * binaries.
 */

#ifndef COSIM_HARNESS_REPORT_HH
#define COSIM_HARNESS_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cosim {

/** How a sweep figure is decomposed into cells (see sweep_runner.hh). */
enum class CellMode : std::uint8_t
{
    /** One cell per workload, every configuration passively attached to
     * the one execution (the paper's rig; the default). */
    Combined,
    /** One cell per (workload, configuration), each executing the guest
     * -- the execute-every-cell baseline replay is measured against. */
    Exec,
    /** Combined over a capture: per workload, one guest execution
     * records the bus stream in memory, then one broadcast cell replays
     * it into every configuration. With --replay the stream is the
     * recorded file, and the plan is combined's. */
    Replay,
    /** Like replay, but the broadcast cell simulates only a sampling
     * plan's representative intervals in detail and reconstructs
     * whole-run metrics by weight extrapolation
     * (trace/phase_cluster.hh, trace/sampled_replay.hh). */
    Sampled,
};

const char* toString(CellMode mode);

/** Options every bench binary accepts. */
struct BenchOptions
{
    /** Input scale; 1.0 reproduces the paper-shaped inputs. */
    double scale = 1.0;
    std::uint64_t seed = 42;
    /** Where the seed came from: "default" or "cli" (--seed=). */
    std::string seedSource = "default";
    /** Workload subset (empty = all eight). */
    std::vector<std::string> workloads;
    /** Directory CSV outputs are written into. */
    std::string outDir = "results";
    /** Abort the bench if a workload fails self-verification. */
    bool strictVerify = true;
    /** Chrome trace-event JSON output (empty = tracing disabled). */
    std::string traceFile;
    /** Stats-registry dump path (.json/.csv/.txt; empty = no dump). */
    std::string statsFile;
    /** Per-run manifest path; defaults to "<outDir>/run.json". */
    std::string manifestFile;
    /** Host threads running sweep cells in parallel (1 = serial). */
    unsigned jobs = 1;
    /** Host threads per rig emulating Dragonheads (0 = inline/serial). */
    unsigned emuThreads = 0;

    /** @name FSB capture / replay @{ */
    /** Sweep cell decomposition. */
    CellMode cells = CellMode::Combined;
    /** Record each workload's FSB stream to "<base>.<workload>.fsb". */
    std::string captureBase;
    /** Replay recorded streams from "<base>.<workload>.fsb" instead of
     * executing the guest. */
    std::string replayBase;
    /** Write a per-workload stream-digest manifest to this path. */
    std::string digestFile;
    /** @} */

    /** @name Sampled simulation @{ */
    /** Load sampling plans from "<base>.<workload>.plan.json" instead
     * of clustering them from the profiling pass (--cells=sampled). */
    std::string planBase;
    /** Write the per-workload sampling plans generated from this run's
     * CB sample series to "<base>.<workload>.plan.json". */
    std::string planOutBase;
    /** Override every emulator's CB sample window, in microseconds
     * (0 = keep the preset's 500 us). Only --quick sets it, to 50, so
     * its ~20x-shorter runs still decompose into enough windows for
     * phase clustering to find fast-forwardable spans. */
    std::uint64_t samplePeriodUs = 0;
    /** @} */

    /** @name Robustness / fault injection @{ */
    /** Finish the sweep even when cells fail (they stay in run.json
     * and the CSV with status "failed"). */
    bool keepGoing = false;
    /** Re-run a failed cell up to this many extra times. */
    unsigned retryCells = 0;
    /** Armed fault plan spec ("site:nth=K,..."); empty = none. */
    std::string faults;
    /** @} */

    /** @name Live telemetry @{ */
    /** Live one-line-per-cell progress view on stderr. */
    bool progress = false;
    /** Machine-readable progress stream (JSONL; empty = off). */
    std::string progressFile;
    /** OpenMetrics dump path for the metrics registry (empty = off). */
    std::string metricsFile;
    /** @} */

    /** @name Crash-safe sweeps (harness/sweep_journal.hh) @{ */
    /** Write-ahead journal path; bare --journal means
     * "<outDir>/sweep.journal.jsonl", and --resume sets it to the
     * journal it resumes. */
    std::string journalFile;
    /** Resume an interrupted sweep from this journal: cells whose done
     * records' artifact digests verify are loaded, the rest re-run. */
    std::string resumeFrom;
    /** @} */
};

/**
 * Resolve the per-workload stream file for a --capture/--replay base
 * path: "results/fig4.fsb" + "PLSA" -> "results/fig4.PLSA.fsb" (the
 * ".fsb" suffix is appended when the base does not end in it).
 */
std::string fsbStreamPath(const std::string& base,
                          const std::string& workload);

/**
 * Parse the common flags:
 *   --scale=<f>      input scale factor
 *   --quick          --scale=0.05 with 50 us CB sample windows, the
 *                    only way to get them (same CSV as --scale=0.05,
 *                    finer run.json series)
 *   --seed=<n>       data-generation seed
 *   --workloads=a,b  comma-separated subset
 *   --out=<dir>      output directory for CSVs
 *   --no-verify      keep going when self-verification fails
 *   --trace=<file>   record a Chrome trace-event JSON of the run
 *   --stats=<file>   dump the stats registry (.json/.csv/.txt)
 *   --manifest=<f>   run manifest path (default <out>/run.json)
 *   --jobs=<n>       run up to n sweep cells on parallel host threads
 *   --emu-threads=<n> emulate Dragonheads on n worker threads per rig
 *   --plan=<base>    load sampling plans from <base>.<workload>.plan.json
 *                    (requires --cells=sampled)
 *   --plan-out=<base> write generated sampling plans to
 *                    <base>.<workload>.plan.json
 *   --faults=<spec>  arm a fault plan (site:nth=K / site:p=X, comma-
 *                    separated; see base/fault.hh)
 *   --keep-going     finish the sweep despite failed cells
 *   --retry-cells=<n> retry a failed cell up to n times (n <= 1000)
 *   --progress       live per-cell progress view on stderr
 *   --progress-file=<f> machine-readable progress stream (JSONL)
 *   --metrics=<f>    dump telemetry histograms/counters (OpenMetrics)
 *   --journal[=<f>]  write-ahead journal of cell state transitions
 *   --resume=<f>     resume an interrupted sweep from its journal,
 *                    appending to that journal
 *   --help           print usage (and exit 0)
 * Unknown flags are fatal, and so are a flag given twice (--journal
 * and --journal=<f> are one flag), --quick with --scale, --resume with
 * --journal, a numeric value that does not parse whole or lies outside
 * its flag's range, and an unknown, empty or repeated --workloads
 * entry; the error names the flag or entry. A --faults plan is parsed,
 * seeded with the run seed, and armed in the global FaultInjector
 * before returning.
 * Any of the telemetry flags enables the (otherwise zero-cost) metrics
 * registry for the whole run.
 */
BenchOptions parseBenchArgs(int argc, char** argv,
                            const std::string& bench_description);

/** Create @p dir if needed; fatal() if that fails. */
void ensureOutputDir(const std::string& dir);

/** Print the standard bench banner. */
void printBanner(const std::string& title, const BenchOptions& opts);

} // namespace cosim

#endif // COSIM_HARNESS_REPORT_HH
