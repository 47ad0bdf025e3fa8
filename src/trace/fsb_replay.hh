/**
 * @file
 * FSB stream replay: drive a recorded transaction stream back through a
 * front-side bus, so every attached snooper -- inline Dragonheads or an
 * AsyncEmulatorBank -- sees the exact sequence a live run broadcast.
 *
 * Replay re-issues each decoded transaction through
 * FrontSideBus::issue(), which is the same entry point the CPU models
 * use. The bus therefore keeps its own traffic counters, applies its
 * configured batching, and hands chunks to BusSnooper::observeBatch()
 * exactly as in a live run: per-slice and per-core counters and CB sample
 * series come out bit-identical (tests/test_replay.cc enforces this),
 * only the guest execution is gone.
 */

#ifndef COSIM_TRACE_FSB_REPLAY_HH
#define COSIM_TRACE_FSB_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/fsb_capture.hh"

namespace cosim {

class FrontSideBus;

/** What one replay pass did. */
struct ReplayResult
{
    bool ok = false;
    std::string error; ///< set when !ok (corrupt/unreadable stream)

    FsbStreamMeta meta;
    std::uint64_t txns = 0;
    std::uint64_t chunks = 0;
    std::uint64_t streamBytes = 0;
    std::uint64_t digest = 0;
    /** Host wall-clock of decode + bus delivery + snooper emulation. */
    double seconds = 0.0;
};

/** See file comment. */
class ReplayDriver
{
  public:
    /**
     * Replay the stream at @p path through @p bus. On a corrupt stream
     * the error is reported in the result; transactions decoded before
     * the damage was detected have already been delivered.
     */
    ReplayResult replayFile(const std::string& path, FrontSideBus& bus);

    /** Replay an in-memory stream (a capture-run writer's share()). */
    ReplayResult replayBuffer(
        std::shared_ptr<const std::vector<std::uint8_t>> stream,
        FrontSideBus& bus);

  private:
    ReplayResult replay(FsbStreamReader& reader, FrontSideBus& bus);
};

} // namespace cosim

#endif // COSIM_TRACE_FSB_REPLAY_HH
