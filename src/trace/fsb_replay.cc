#include "trace/fsb_replay.hh"

#include <chrono>
#include <vector>

#include "mem/fsb.hh"
#include "obs/host_profiler.hh"

namespace cosim {

ReplayResult
ReplayDriver::replay(FsbStreamReader& reader, FrontSideBus& bus)
{
    ReplayResult result;
    auto t0 = std::chrono::steady_clock::now();

    std::vector<BusTransaction> chunk;
    while (reader.nextChunk(chunk)) {
        for (const BusTransaction& txn : chunk)
            bus.issue(txn);
        ++result.chunks;
    }
    // A batched bus may hold a partial chunk, exactly as at the end of a
    // live run; snoopers must see the complete stream.
    bus.flush();

    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    result.meta = reader.meta();
    result.txns = reader.txnsDecoded();
    result.streamBytes = reader.streamBytes();
    result.digest = reader.contentDigest();
    result.ok = reader.ok();
    if (!result.ok)
        result.error = reader.error();

    obs::HostProfiler::global().accumulate("replay", result.seconds);
    return result;
}

} // namespace cosim
