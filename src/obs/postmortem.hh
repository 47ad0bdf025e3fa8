/**
 * @file
 * postmortem.json: an explained failure next to run.json.
 *
 * Whenever a sweep cell fails or a fatal() fires, the harness calls
 * writePostmortem() to drop a machine-readable corpse beside the run
 * artifacts:
 *
 *   {
 *     "schema": "cosim-postmortem/1",
 *     "t_us": <host clock>,
 *     "reason": "cell_failed" | "fatal",
 *     "cell": "<label>",          // empty outside cell context
 *     "attempt": <n>,
 *     "error": "<message>",
 *     "fault_sites": [{"site","hits","fired","armed"}, ...],
 *     "threads": [{"label", "events": [...]}, ...]
 *   }
 *
 * "fault_sites" snapshots the fault injector so an injected failure
 * names the site that fired; "threads" is the flight recorder's
 * per-thread event history (base/flight_recorder.hh), so the file says
 * not just *that* a worker died but what it was chewing on.
 *
 * The write goes through writeFileAtomic but is deliberately
 * best-effort: a post-mortem must never turn one failure into two, so
 * I/O errors are warned and swallowed. Repeated failures (retries,
 * --keep-going) overwrite: the file describes the most recent failure.
 *
 * installFatalPostmortem() arms a base/logging.hh fatal hook so even
 * failures outside the guarded cell (an artifact writer calling
 * fatal(), e.g. under io.write.fail) leave a postmortem behind.
 */

#ifndef COSIM_OBS_POSTMORTEM_HH
#define COSIM_OBS_POSTMORTEM_HH

#include <string>

namespace cosim {
namespace obs {

/** What failed; everything may be empty except @p reason. */
struct PostmortemInfo
{
    std::string reason; ///< "cell_failed" or "fatal"
    std::string cell;   ///< failing cell label, when in cell context
    unsigned attempt = 0;
    std::string error;  ///< the exception / fatal message
};

/** Render the postmortem JSON body (exposed for tests). */
std::string renderPostmortem(const PostmortemInfo& info);

/**
 * Atomically write postmortem.json at @p path. @return false (after
 * a warn) when the write fails; never throws.
 */
bool writePostmortem(const std::string& path, const PostmortemInfo& info);

/**
 * Route fatal() through a postmortem dump to @p path before the
 * process exits; an empty path uninstalls the hook.
 */
void installFatalPostmortem(const std::string& path);

/**
 * Remember the cell a thread is about to run, so a fatal() that fires
 * inside it (or right after, in an artifact writer) is attributed.
 * Best-effort under parallel cells: the most recent caller wins.
 */
void setPostmortemContext(const std::string& cell, unsigned attempt);

} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_POSTMORTEM_HH
