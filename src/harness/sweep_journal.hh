/**
 * @file
 * Write-ahead journal for crash-safe sweeps (`cosim-journal/1`), and
 * the cell artifact --resume loads instead of re-running a cell.
 *
 * A sweep that runs for hours must survive being killed: the journal
 * records every cell state transition *before* the runner acts on it,
 * so `--resume=<journal>` can reconstruct exactly which cells finished
 * and re-run only the rest. One JSONL file, one record per line,
 * appended through base/atomic_file.hh's DurableAppendFile (O_APPEND +
 * single write() + fdatasync), so a record is either fully on disk or
 * absent -- never torn, even across a power cut.
 *
 * Record vocabulary (all carry "seq" and "t_us"; seq is dense and
 * continues across resume):
 *
 *   sweep_plan   schema, figure, config_digest, cells   (first record)
 *   planned      cell
 *   running      cell, attempt
 *   done         cell, attempts, artifact, bytes, digest
 *   failed       cell, attempts, error
 *   resume       skipped, rerun          (appended by --resume)
 *   resume_skip  cell
 *   sweep_done   ok, failed
 *
 * `config_digest` fingerprints the sweep configuration (figure,
 * platform, scale, seed, workloads, cell mode, ticks); --resume
 * refuses a journal whose digest does not match, so two different
 * sweeps can never be mixed. `digest` is FNV-1a64 over the cell's
 * result-artifact bytes, serialized as a decimal *string* (a 64-bit
 * value does not survive a JSON double round-trip).
 *
 * A done cell's result is a `cosim-cell-result/2` artifact: the run
 * manifest's workload entry, the figure points and stream bookkeeping,
 * the CB samples, and the stats registry's JSON dump of the cell's
 * "cell/<label>/" groups. --resume re-hashes it against the journaled
 * digest and loads it in place of the cell.
 *
 * Failure discipline mirrors the progress stream: the journal protects
 * the sweep, so it must never kill it. A write failure (including the
 * seeded "journal.write.fail" fault site) warns once and turns the
 * journal off; healthy() reports the degradation.
 *
 * `cosim_inspect journal` validates schema, seq density, and per-cell
 * state-machine consistency; see examples/cosim_inspect.cpp.
 */

#ifndef COSIM_HARNESS_SWEEP_JOURNAL_HH
#define COSIM_HARNESS_SWEEP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/annotations.hh"
#include "base/atomic_file.hh"
#include "base/mutex.hh"
#include "harness/sweep_cell.hh"

namespace cosim {

inline constexpr const char* kJournalSchema = "cosim-journal/1";

/** FNV-1a 64-bit over @p n bytes; the journal's artifact fingerprint. */
std::uint64_t fnv1a64(const void* data, std::size_t n);

/** FNV-1a64 + size of a file's bytes. @return false when unreadable. */
bool digestFileFnv(const std::string& path, std::uint64_t* digest,
                   std::uint64_t* bytes);

/** Appender side; see file comment. Thread-safe. */
class SweepJournal
{
  public:
    /**
     * Opens @p path for appending. @p next_seq seeds the sequence
     * counter: 0 truncates and starts a fresh journal; a resume passes
     * JournalState::nextSeq so numbering stays dense across the gap.
     * @throws IoError when the file cannot be opened.
     */
    explicit SweepJournal(const std::string& path,
                          std::uint64_t next_seq = 0);

    SweepJournal(const SweepJournal&) = delete;
    SweepJournal& operator=(const SweepJournal&) = delete;

    void sweepPlan(const std::string& figure,
                   std::uint64_t config_digest, std::size_t cells)
        EXCLUDES(mutex_);
    void cellPlanned(const std::string& cell) EXCLUDES(mutex_);
    void cellRunning(const std::string& cell, unsigned attempt)
        EXCLUDES(mutex_);
    void cellDone(const std::string& cell, unsigned attempts,
                  const std::string& artifact, std::uint64_t bytes,
                  std::uint64_t digest) EXCLUDES(mutex_);
    void cellFailed(const std::string& cell, unsigned attempts,
                    const std::string& error) EXCLUDES(mutex_);
    void resumed(std::size_t skipped, std::size_t rerun)
        EXCLUDES(mutex_);
    void resumeSkip(const std::string& cell) EXCLUDES(mutex_);
    void sweepDone(std::size_t ok, std::size_t failed) EXCLUDES(mutex_);

    /** False once a write has failed and the journal shut itself off. */
    bool healthy() const EXCLUDES(mutex_);

    const std::string& path() const { return file_.path(); }

  private:
    bool append(const std::string& event, const std::string& fields)
        EXCLUDES(mutex_);

    mutable Mutex mutex_;
    DurableAppendFile file_;
    std::uint64_t seq_ GUARDED_BY(mutex_);
    bool failed_ GUARDED_BY(mutex_) = false;
};

/** Latest journaled state of one cell (reader side). */
struct JournalCell
{
    std::string state; ///< "planned"|"running"|"done"|"failed"|"skipped"
    unsigned attempts = 0;
    std::string artifact;
    std::uint64_t artifactBytes = 0;
    std::uint64_t artifactDigest = 0;
    std::string error;
};

/**
 * Reader side: replays a journal into per-cell latest state. A torn
 * final line (no trailing newline: the append that was interrupted) is
 * ignored; any other malformed record is an error.
 */
struct JournalState
{
    std::uint64_t nextSeq = 0; ///< seq for the next appended record
    /** Byte length of the valid prefix (through the last complete,
     * newline-terminated record). A resume truncates the file here
     * before appending, so a torn tail cannot concatenate with the
     * first new record. */
    std::uint64_t validBytes = 0;
    std::string figure;
    std::uint64_t configDigest = 0;
    bool sawPlan = false;
    /** Journal order, first appearance. */
    std::vector<std::pair<std::string, JournalCell>> cells;

    const JournalCell* find(const std::string& cell) const;

    static bool load(const std::string& path, JournalState* out,
                     std::string* error);
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

} // namespace cosim

#endif // COSIM_HARNESS_SWEEP_JOURNAL_HH
