/**
 * @file
 * Process isolation and the cell artifact.
 *
 * Under --isolate-cells every cell attempt re-executes the bench binary
 * with --run-cell=<label>. The child plans the same sweep, runs the one
 * cell whose label matches on the same cell body, and writes a
 * cosim-cell-result artifact: the run manifest's workload entry, the
 * figure points and stream bookkeeping, the CB samples, and the stats
 * registry's JSON dump of the cell's "cell/<label>/" groups. The same
 * artifact is the journal's durable result, which --resume verifies
 * and loads instead of re-running the cell.
 */

#ifndef COSIM_HARNESS_CELL_ISOLATION_HH
#define COSIM_HARNESS_CELL_ISOLATION_HH

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

#include "base/subprocess.hh"
#include "harness/sweep_cell.hh"
#include "harness/sweep_journal.hh"

namespace cosim {

namespace obs {
class HeartbeatSlot;
class SweepProgress;
} // namespace obs

/**
 * An isolated cell's child process failed: non-zero exit, crash signal,
 * or shot by the silence watchdog. Carries the decoded SubprocessResult
 * so the guard can journal *how* the cell ended and write a postmortem
 * with the child's decoded signal and stderr tail.
 */
class CellProcessError : public std::runtime_error
{
  public:
    explicit CellProcessError(const SubprocessResult& r);

    SubprocessResult result;
};

/** Artifact schema identifier (bump on incompatible change). */
inline constexpr const char* kCellResultSchema = "cosim-cell-result/2";

/** "<outDir>/cells/<label>.cell.json", slashes flattened to '_'. */
std::string cellArtifactPath(const BenchOptions& opts,
                             const std::string& label);

/** Serialize @p cell plus the global registry's @p stats_prefix groups.
 * Round-trips exactly through parseCellArtifact(). */
std::string renderCellArtifact(const CellOutput& cell,
                               const std::string& stats_prefix);

/** Parse an artifact into @p out and re-register its stats groups as
 * frozen groups in the global registry. */
bool parseCellArtifact(const std::string& text, CellOutput* out,
                       std::string* error);

/** --resume: the journal's done/skipped cells whose artifacts still
 * digest to the journaled fingerprint and parse, by label. Anything
 * less (deleted artifact, torn write) is left out, so the cell re-runs. */
std::map<std::string, CellOutput> loadResumedCells(const JournalState& js);

/**
 * One isolated attempt of @p label: spawn the child, keep the live
 * progress view ticking from its heartbeat pipe, SIGKILL it once silent
 * past --cell-timeout, and load its artifact. A process death throws
 * CellProcessError, a missing or unparsable artifact std::runtime_error.
 */
CellOutput runIsolatedCell(const std::string& label,
                           const BenchOptions& opts,
                           obs::SweepProgress* progress,
                           std::size_t cell_idx, obs::HeartbeatSlot* slot,
                           SweepJournal* journal, unsigned attempt_no);

/** --run-cell child re-entry: run the planned cell named by
 * opts.runCell, write its artifact to opts.cellResultFile, and exit. */
[[noreturn]] void runCellChild(const SweepFigure& fig,
                               const SweepPlan& plan);

} // namespace cosim

#endif // COSIM_HARNESS_CELL_ISOLATION_HH
