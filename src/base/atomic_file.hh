/**
 * @file
 * Crash-safe artifact writing: write-temp + flush + rename.
 *
 * Every artifact the harness emits (run.json, stats dumps, CSVs,
 * Chrome traces, FSBC captures, golden digests) is written through
 * this class so that a crash, full disk, or injected I/O fault leaves
 * either the complete new file or the previous one -- never a
 * truncated hybrid. The protocol:
 *
 *   1. open "<path>.tmp" (fresh, truncated)
 *   2. stream the body into it
 *   3. commit(): flush, close, check the stream, rename over <path>
 *
 * Any failure removes the temp file and throws IoError naming the
 * path, so callers can either propagate (cell isolation) or convert
 * to fatal() (top-level writers). An AtomicFile destroyed without
 * commit() aborts the write and removes its temp file.
 *
 * commit() honours the "io.write.fail" fault-injection site (see
 * base/fault.hh): an armed trigger poisons the stream just before the
 * final flush, exercising the full error path including temp-file
 * cleanup.
 *
 * std::rename is atomic within a filesystem on POSIX; the temp file
 * lives next to its target, so the pair is always on one filesystem.
 */

#ifndef COSIM_BASE_ATOMIC_FILE_HH
#define COSIM_BASE_ATOMIC_FILE_HH

#include <fstream>
#include <stdexcept>
#include <string>

namespace cosim {

/** Thrown when an artifact write fails; what() names the path. */
class IoError : public std::runtime_error
{
  public:
    explicit IoError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** See file comment. */
class AtomicFile
{
  public:
    /**
     * Opens "<path>.tmp" for writing. @throws IoError when the temp
     * file cannot be created (missing directory, permissions).
     */
    explicit AtomicFile(const std::string& path, bool binary = false);

    /** Aborts (removes the temp file) if not committed. */
    ~AtomicFile();

    AtomicFile(const AtomicFile&) = delete;
    AtomicFile& operator=(const AtomicFile&) = delete;

    /** The stream to write the body into. */
    std::ofstream& stream() { return out_; }

    /** Convenience: append @p body to the stream. */
    void write(const std::string& body) { out_ << body; }

    /**
     * Flush, close, and rename the temp file over the target.
     * @throws IoError (after removing the temp file) on any failure.
     * The object is inert afterwards; commit() twice is an error.
     */
    void commit();

    /** Drops the temp file without touching the target. Idempotent. */
    void abort() noexcept;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    bool done_ = false;
};

/** One-shot helper: write @p body to @p path atomically. */
void writeFileAtomic(const std::string& path, const std::string& body,
                     bool binary = false);

/**
 * Durable atomic-append stream: the write-ahead-journal discipline.
 *
 * Atomic-rename is the wrong shape for a journal, which must reach the
 * disk while the run is still going. A journal that crash recovery
 * replays needs an existing file to be appendable (resume), each
 * record to reach the disk before the caller acts on its success, and
 * a record never to tear even when several processes hold the file
 * open. DurableAppendFile provides exactly that:
 *
 *   - open(2) with O_APPEND: POSIX makes each write() land at the
 *     current end atomically, so one appendLine() is one contiguous
 *     record regardless of who else appends.
 *   - one write() call per line (line + '\n' in a single buffer), so a
 *     crash mid-append leaves at most one torn *final* line, which a
 *     reader can detect (no trailing newline) and discard.
 *   - fdatasync() before reporting success, so "appendLine() returned
 *     true" means "the record survives a power cut".
 *
 * Write failures after open are reported by a false return rather
 * than an exception -- journal writers degrade to journal-less
 * operation instead of killing the sweep they protect.
 * harness/sweep_journal.cc layers the "journal.write.fail" fault site
 * on top; cosim_analyze's journal-atomic-append rule keeps journal
 * writers on this class.
 */
class DurableAppendFile
{
  public:
    /**
     * Opens @p path for appending, creating it when absent. With
     * @p truncate, any existing content is discarded first (fresh
     * journal); without, appends continue after the existing records
     * (resume). @throws IoError when the file cannot be opened.
     */
    explicit DurableAppendFile(const std::string& path,
                               bool truncate = false);
    ~DurableAppendFile();

    DurableAppendFile(const DurableAppendFile&) = delete;
    DurableAppendFile& operator=(const DurableAppendFile&) = delete;

    /**
     * Append @p line plus a trailing newline as one write() and sync
     * it to disk. @return false on failure (and on every later call);
     * never throws. Lines must not themselves contain '\n'.
     */
    bool appendLine(const std::string& line);

    const std::string& path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

} // namespace cosim

#endif // COSIM_BASE_ATOMIC_FILE_HH
