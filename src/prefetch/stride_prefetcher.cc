#include "prefetch/stride_prefetcher.hh"

#include "base/logging.hh"

namespace cosim {

StridePrefetcher::StridePrefetcher(const StridePrefetcherParams& params)
    : params_(params), table_(params.tableEntries)
{
    fatal_if(params_.tableEntries == 0, "stride table needs entries");
    fatal_if(params_.degree == 0, "stride degree must be >= 1");
}

void
StridePrefetcher::observe(Addr addr, std::vector<Addr>& out)
{
    ++stats_.observed;

    std::uint64_t region = addr >> params_.regionBits;
    Entry& e = table_[region % table_.size()];

    if (e.regionTag != region) {
        // New stream (or table conflict): start training from scratch.
        e.regionTag = region;
        e.lastAddr = addr;
        e.stride = 0;
        e.confidence = 0;
        return;
    }

    std::int64_t delta = static_cast<std::int64_t>(addr) -
                         static_cast<std::int64_t>(e.lastAddr);
    e.lastAddr = addr;
    if (delta == 0)
        return;

    if (delta == e.stride) {
        if (e.confidence < params_.maxConfidence)
            ++e.confidence;
    } else {
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = delta;
        }
        return;
    }

    if (e.confidence >= params_.threshold) {
        ++stats_.trained;
        for (unsigned d = 1; d <= params_.degree; ++d) {
            std::int64_t target = static_cast<std::int64_t>(addr) +
                                  e.stride * static_cast<std::int64_t>(d);
            if (target < 0)
                break;
            out.push_back(static_cast<Addr>(target));
            ++stats_.issued;
        }
    }
}

void
StridePrefetcher::reset()
{
    for (auto& e : table_)
        e = Entry();
}

} // namespace cosim
