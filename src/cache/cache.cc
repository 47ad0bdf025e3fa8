#include "cache/cache.hh"

#include <algorithm>
#include <cstdint>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace cosim {

CacheStats&
CacheStats::operator+=(const CacheStats& o)
{
    accesses += o.accesses;
    reads += o.reads;
    writes += o.writes;
    misses += o.misses;
    readMisses += o.readMisses;
    writeMisses += o.writeMisses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    prefetchFills += o.prefetchFills;
    usefulPrefetches += o.usefulPrefetches;
    return *this;
}

void
CacheStats::addStats(stats::Group& group) const
{
    group.add("accesses", double(accesses));
    group.add("reads", double(reads));
    group.add("writes", double(writes));
    group.add("misses", double(misses));
    group.add("read_misses", double(readMisses));
    group.add("write_misses", double(writeMisses));
    group.add("evictions", double(evictions));
    group.add("writebacks", double(writebacks));
    group.add("prefetch_fills", double(prefetchFills));
    group.add("useful_prefetches", double(usefulPrefetches));
    group.add("miss_rate", missRate());
}

Cache::Cache(const CacheParams& params) : params_(params)
{
    fatal_if(params_.lineSize < 8 || !isPowerOf2(params_.lineSize),
             "%s: line size %u must be a power of two >= 8",
             params_.name.c_str(), params_.lineSize);
    fatal_if(params_.assoc == 0, "%s: associativity must be nonzero",
             params_.name.c_str());
    fatal_if(params_.size % (static_cast<std::uint64_t>(params_.lineSize) *
                             params_.assoc) != 0,
             "%s: size %llu is not divisible by lineSize*assoc",
             params_.name.c_str(),
             static_cast<unsigned long long>(params_.size));

    sets_ = params_.sets();
    fatal_if(sets_ == 0, "%s: zero sets", params_.name.c_str());
    fatal_if(!isPowerOf2(sets_), "%s: set count %u must be a power of two",
             params_.name.c_str(), sets_);

    lineBits_ = floorLog2(params_.lineSize);
    setBits_ = floorLog2(sets_);
    lineMask_ = params_.lineSize - 1;
    setMask_ = sets_ - 1;

    // One spare host line of entries, so the first set can start on a
    // 64 B boundary and a 16-way set never straddles two host lines.
    constexpr std::size_t hostLine = 64 / sizeof(Entry);
    std::size_t n = static_cast<std::size_t>(sets_) * params_.assoc;
    storage_.assign(n + hostLine - 1, 0);
    const std::uintptr_t at =
        reinterpret_cast<std::uintptr_t>(storage_.data());
    first_ = (hostLine - at / sizeof(Entry) % hostLine) % hostLine;
}

void
Cache::tagOutOfRange(Addr addr, std::uint64_t tag) const
{
    fatal("%s: address %#llx is out of range: its tag %#llx is wider "
          "than the %u bits of a cache entry",
          params_.name.c_str(), static_cast<unsigned long long>(addr),
          static_cast<unsigned long long>(tag), tagBits);
}

bool
Cache::prefetchFill(Addr addr)
{
    std::uint32_t set;
    std::uint64_t tag;
    locate(addr, set, tag);
    if (findWay(setEntries(set), params_.assoc, keyOf(tag)) >= 0)
        return false;
    Outcome scratch;
    install(set, tag, entryPrefetched, scratch);
    ++stats_.prefetchFills;
    return true;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = addr >> lineBits_;
    const std::uint64_t tag = line >> setBits_;
    return tag <= maxTag &&
           findWay(setEntries(static_cast<std::uint32_t>(line & setMask_)),
                   params_.assoc, keyOf(tag)) >= 0;
}

void
Cache::flush()
{
    std::fill(storage_.begin(), storage_.end(), Entry{0});
}

std::uint64_t
Cache::linesValid() const
{
    std::uint64_t n = 0;
    for (Entry e : storage_)
        if ((e & entryValid) != 0)
            ++n;
    return n;
}

} // namespace cosim
