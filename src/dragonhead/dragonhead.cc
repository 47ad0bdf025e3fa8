#include "dragonhead/dragonhead.hh"

#include "base/bitops.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/units.hh"

namespace cosim {

namespace {

/** CB trace label: distinct per configuration ("llc.32MB.64B"). */
ControlBlockParams
labeledCb(const DragonheadParams& params)
{
    ControlBlockParams cb = params.cb;
    if (cb.traceLabel == "cb") {
        cb.traceLabel = params.llc.name + "." +
                        formatSize(params.llc.size) + "." +
                        formatSize(params.llc.lineSize);
    }
    return cb;
}

/** The LLC's geometry, once the slice count is known to divide it. */
const CacheParams&
sliceable(const DragonheadParams& params)
{
    fatal_if(params.nSlices == 0, "Dragonhead needs at least one CC");
    fatal_if(!isPowerOf2(params.nSlices),
             "slice count %u must be a power of two", params.nSlices);
    fatal_if(params.llc.size % params.nSlices != 0,
             "LLC size %llu not divisible across %u slices",
             static_cast<unsigned long long>(params.llc.size),
             params.nSlices);
    return params.llc;
}

/**
 * Count one access in its CC slice's counters. Reads, writes, hits and
 * dirty victims mix unpredictably on the bus, so the counts are added
 * rather than branched on.
 */
void
countAccess(CacheStats& s, const Cache::Outcome& out, bool write)
{
    const bool miss = !out.hit;
    ++s.accesses;
    s.writes += write;
    s.reads += !write;
    s.misses += miss;
    s.writeMisses += miss && write;
    s.readMisses += miss && !write;
    s.evictions += out.evicted;
    s.writebacks += out.evictedDirty;
}

} // namespace

Dragonhead::Dragonhead(const DragonheadParams& params)
    : params_(params), llc_(sliceable(params)), cb_(labeledCb(params)),
      slices_(params.nSlices), perCore_(1)
{
    const std::uint32_t sets = llc_.params().sets();
    fatal_if(sets < params_.nSlices,
             "LLC too small: a slice has no complete set");
    cb_.attachCounters(&llc_.stats());
    lineBits_ = floorLog2(params_.llc.lineSize);
    sliceSetBits_ = floorLog2(sets / params_.nSlices);
}

Dragonhead::~Dragonhead() = default;

void
Dragonhead::observe(const BusTransaction& txn)
{
    CoreId core = 0;
    msg::Message m{};
    switch (af_.process(txn, core, m)) {
      case FilterAction::Dropped:
        return;
      case FilterAction::Consumed:
        if (m.type == msg::Type::SetCoreId &&
            af_.currentCore() >= perCore_.size())
            perCore_.resize(af_.currentCore() + std::size_t{1});
        cb_.onMessage(m);
        return;
      case FilterAction::Forward:
        break;
    }

    // Prefetch fills brought lines into *private* caches; the shared LLC
    // still observes them as line reads. WriteLine transactions install
    // the line dirty.
    const bool write = txn.kind == TxnKind::WriteLine;
    const Addr line = txn.addr >> lineBits_;
    unsigned slice;
    Cache::Outcome out;
    if (params_.partitioning == LlcPartitioning::PerCore) {
        // Private partitions: the issuing core's run of sets, indexed
        // and tagged by the full address as a cache of that size would.
        slice = static_cast<unsigned>(core) % nSlices();
        const Addr set_mask = (Addr{1} << sliceSetBits_) - 1;
        out = llc_.accessSet(
            (slice << sliceSetBits_) |
                static_cast<std::uint32_t>(line & set_mask),
            line >> sliceSetBits_, write);
    } else {
        // Interleaved: the slice is the low bits of the line address,
        // which are also the low bits of the whole cache's set index.
        slice = static_cast<unsigned>(line & (nSlices() - 1));
        out = llc_.access(txn.addr, write);
    }
    countAccess(slices_[slice], out, write);
    CoreCounters& row = perCore_[core];
    ++row.accesses;
    row.misses += !out.hit;
}

void
Dragonhead::observeBatch(const BusTransaction* txns, std::size_t n)
{
    // Qualified call: no virtual dispatch inside the chunk loop.
    for (std::size_t i = 0; i < n; ++i)
        Dragonhead::observe(txns[i]);
}

LlcResults
Dragonhead::results() const
{
    LlcResults r;
    r.accesses = llc_.stats().accesses;
    r.misses = llc_.stats().misses;
    r.insts = cb_.totalInsts();
    r.cycles = cb_.totalCycles();
    return r;
}

CoreCounters
Dragonhead::coreResults(CoreId core) const
{
    return core < perCore_.size() ? perCore_[core] : CoreCounters{};
}

const CacheStats&
Dragonhead::sliceStats(unsigned i) const
{
    panic_if(i >= slices_.size(), "slice index %u out of range", i);
    return slices_[i];
}

stats::Group&
Dragonhead::registerStats(obs::StatsRegistry& registry,
                          const std::string& prefix) const
{
    stats::Group agg(prefix);
    agg.add("accesses", [this] { return double(results().accesses); });
    agg.add("misses", [this] { return double(results().misses); });
    agg.add("insts", [this] { return double(cb_.totalInsts()); });
    agg.add("cycles", [this] { return double(cb_.totalCycles()); });
    agg.add("mpki", [this] { return results().mpki(); });
    agg.add("miss_rate", [this] { return results().missRate(); });
    agg.add("samples",
            [this] { return double(cb_.samples().size()); });
    stats::Group& stored = registry.add(std::move(agg));

    for (unsigned i = 0; i < nSlices(); ++i) {
        stats::Group g(prefix + ".cc" + std::to_string(i));
        slices_[i].addStats(g);
        registry.add(std::move(g));
    }
    return stored;
}

void
Dragonhead::reset()
{
    af_.reset();
    cb_.reset();
    llc_.flush();
    llc_.resetStats();
    std::fill(slices_.begin(), slices_.end(), CacheStats{});
    perCore_.assign(1, CoreCounters{});
}

} // namespace cosim
