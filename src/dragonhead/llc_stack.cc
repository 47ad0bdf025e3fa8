#include "dragonhead/llc_stack.hh"

#include <algorithm>

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

/** fatal() unless the slice count divides the board. */
void
checkBoard(const DragonheadParams& params)
{
    fatal_if(params.nSlices == 0, "Dragonhead needs at least one CC");
    fatal_if(!isPowerOf2(params.nSlices),
             "slice count %u must be a power of two", params.nSlices);
    fatal_if(params.llc.size % params.nSlices != 0,
             "LLC size %llu not divisible across %u slices",
             static_cast<unsigned long long>(params.llc.size),
             params.nSlices);
}

} // namespace

LlcStack::Level::Level(const CacheParams& p, unsigned n_slices,
                       bool per_core)
    : cache(p)
{
    const std::uint32_t sets = cache.params().sets();
    fatal_if(sets < n_slices, "LLC too small: a slice has no complete set");
    const unsigned set_bits = floorLog2(sets);
    sliceShift = per_core ? set_bits - floorLog2(n_slices) : 0;
    setBits = per_core ? sliceShift : set_bits;
    setMask = (Addr{1} << setBits) - 1;
}

LlcStack::LlcStack(const std::vector<DragonheadParams>& configs)
    : configs_(configs)
{
    panic_if(configs_.empty(), "an LLC stack needs a configuration");
    const DragonheadParams& first = configs_.front();
    for (const DragonheadParams& p : configs_) {
        checkBoard(p);
        panic_if(configs_.size() > 1 && !stacks(first, p),
                 "%s does not stack with %s", p.llc.name.c_str(),
                 first.llc.name.c_str());
    }
    nSlices_ = first.nSlices;
    perCore_ = first.partitioning == LlcPartitioning::PerCore;

    // One level per distinct capacity, smallest first.
    std::vector<std::uint64_t> sizes;
    for (const DragonheadParams& p : configs_)
        sizes.push_back(p.llc.size);
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    levels_.reserve(sizes.size());
    for (std::uint64_t size : sizes) {
        const auto p = std::find_if(
            configs_.begin(), configs_.end(),
            [size](const DragonheadParams& c) { return c.llc.size == size; });
        levels_.emplace_back(p->llc, nSlices_, perCore_);
    }
    lineBits_ = floorLog2(first.llc.lineSize);

    cbs_.reserve(configs_.size());
    for (const DragonheadParams& p : configs_) {
        levelOf_.push_back(static_cast<unsigned>(
            std::lower_bound(sizes.begin(), sizes.end(), p.llc.size) -
            sizes.begin()));
        cbs_.emplace_back(labeledCb(p));
    }

    nHitLevels_ = static_cast<unsigned>(levels_.size()) + 1;
    sliceHits_.assign(std::size_t{2} * nSlices_ * nHitLevels_, 0);
    coreHits_.assign(nHitLevels_, 0);
    evictions_.assign(levels_.size() * nSlices_, 0);
    writebacks_.assign(levels_.size() * nSlices_, 0);
}

bool
LlcStack::stacks(const DragonheadParams& a, const DragonheadParams& b)
{
    return a.llc.lineSize == b.llc.lineSize && a.llc.assoc == b.llc.assoc &&
           a.nSlices == b.nSlices && a.partitioning == b.partitioning &&
           a.cb.samplePeriodUs == b.cb.samplePeriodUs &&
           a.cb.coreFreqGhz == b.cb.coreFreqGhz &&
           a.cb.traceLabel == b.cb.traceLabel;
}

template <bool PerCore>
[[gnu::always_inline]] inline unsigned
LlcStack::access(Addr addr, unsigned slice, bool write)
{
    const Addr line = addr >> lineBits_;
    std::uint32_t set;
    std::uint64_t tag;
    // The smallest capacity has the widest tag.
    locate<PerCore>(levels_.front(), line, slice, set, tag);
    levels_.front().cache.checkTag(addr, tag);

    // Levels hit..top hold the line (inclusion); search down from the
    // top until one misses.
    auto hit = static_cast<unsigned>(levels_.size());
    for (; hit > 0; --hit) {
        Level& level = levels_[hit - 1];
        locate<PerCore>(level, line, slice, set, tag);
        const int way = level.cache.findLine(set, tag);
        if (way < 0)
            break;
        level.cache.promoteHit(set, way, write);
    }
    for (unsigned i = 0; i < hit; ++i) {
        Level& level = levels_[i];
        locate<PerCore>(level, line, slice, set, tag);
        const Cache::Victim victim = level.cache.installMiss(set, tag, write);
        evictions_[i * nSlices_ + slice] += victim.valid;
        writebacks_[i * nSlices_ + slice] += victim.dirty;
    }
    return hit;
}

[[gnu::always_inline]] inline void
LlcStack::emulate(const BusTransaction& txn)
{
    CoreId core = 0;
    msg::Message m{};
    switch (af_.process(txn, core, m)) {
      case FilterAction::Dropped:
        return;
      case FilterAction::Consumed:
        onMessage(m);
        return;
      case FilterAction::Forward:
        break;
    }

    // Prefetch fills brought lines into *private* caches; the shared LLC
    // still observes them as line reads. WriteLine transactions install
    // the line dirty. Interleaved, the slice is the low bits of the line
    // address, which are also the low bits of every level's set index.
    const bool write = txn.kind == TxnKind::WriteLine;
    const unsigned slice =
        perCore_ ? static_cast<unsigned>(core) % nSlices_
                 : static_cast<unsigned>((txn.addr >> lineBits_) &
                                         (nSlices_ - 1));
    const unsigned hit = perCore_ ? access<true>(txn.addr, slice, write)
                                  : access<false>(txn.addr, slice, write);
    ++sliceHits_[(slice * 2 + write) * nHitLevels_ + hit];
    ++coreHits_[static_cast<std::size_t>(core) * nHitLevels_ + hit];
}

void
LlcStack::observe(const BusTransaction& txn)
{
    emulate(txn);
}

void
LlcStack::observeBatch(const BusTransaction* txns, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        emulate(txns[i]);
}

void
LlcStack::onMessage(const msg::Message& m)
{
    if (m.type == msg::Type::SetCoreId) {
        const std::size_t rows = std::size_t{af_.currentCore()} + 1;
        if (rows * nHitLevels_ > coreHits_.size())
            coreHits_.resize(rows * nHitLevels_, 0);
    }
    for (unsigned c = 0; c < nConfigs(); ++c) {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        totals(levelOf_[c], accesses, misses);
        cbs_[c].onMessage(m, accesses, misses);
    }
}

void
LlcStack::tally(const std::uint64_t* row, unsigned level,
                std::uint64_t& accesses, std::uint64_t& misses) const
{
    for (unsigned h = 0; h < nHitLevels_; ++h) {
        accesses += row[h];
        misses += h > level ? row[h] : 0;
    }
}

void
LlcStack::totals(unsigned level, std::uint64_t& accesses,
                 std::uint64_t& misses) const
{
    for (std::size_t r = 0; r < sliceHits_.size(); r += nHitLevels_)
        tally(&sliceHits_[r], level, accesses, misses);
}

void
LlcStack::reset()
{
    af_.reset();
    for (ControlBlock& cb : cbs_)
        cb.reset();
    for (Level& level : levels_)
        level.cache.flush();
    std::fill(sliceHits_.begin(), sliceHits_.end(), 0);
    coreHits_.assign(nHitLevels_, 0);
    std::fill(evictions_.begin(), evictions_.end(), 0);
    std::fill(writebacks_.begin(), writebacks_.end(), 0);
}

const DragonheadParams&
LlcStack::params(unsigned config) const
{
    panic_if(config >= configs_.size(), "config %u out of range", config);
    return configs_[config];
}

LlcResults
LlcStack::results(unsigned config) const
{
    LlcResults r;
    totals(levelOf_[config], r.accesses, r.misses);
    r.insts = cbs_[config].totalInsts();
    r.cycles = cbs_[config].totalCycles();
    return r;
}

CoreCounters
LlcStack::coreResults(unsigned config, CoreId core) const
{
    CoreCounters c;
    const std::size_t row = static_cast<std::size_t>(core) * nHitLevels_;
    if (row < coreHits_.size())
        tally(&coreHits_[row], levelOf_[config], c.accesses, c.misses);
    return c;
}

CacheStats
LlcStack::sliceStats(unsigned config, unsigned slice) const
{
    panic_if(slice >= nSlices_, "slice index %u out of range", slice);
    const unsigned level = levelOf_[config];
    const std::size_t row = std::size_t{slice} * 2 * nHitLevels_;
    CacheStats s;
    tally(&sliceHits_[row], level, s.reads, s.readMisses);
    tally(&sliceHits_[row + nHitLevels_], level, s.writes, s.writeMisses);
    s.accesses = s.reads + s.writes;
    s.misses = s.readMisses + s.writeMisses;
    s.evictions = evictions_[level * nSlices_ + slice];
    s.writebacks = writebacks_[level * nSlices_ + slice];
    return s;
}

const std::vector<Sample>&
LlcStack::samples(unsigned config) const
{
    return cbs_[config].samples();
}

std::vector<unsigned>
planStacks(const std::vector<DragonheadParams>& configs, unsigned workers)
{
    std::vector<unsigned> stack_of;
    std::vector<unsigned> firsts; // each stack's first config
    for (unsigned i = 0; i < configs.size(); ++i) {
        unsigned s = 0;
        while (s < firsts.size() &&
               !LlcStack::stacks(configs[firsts[s]], configs[i]))
            ++s;
        if (s == firsts.size())
            firsts.push_back(i);
        stack_of.push_back(s);
    }
    if (firsts.size() >= workers)
        return stack_of;

    // Each stack's distinct capacities, ascending.
    const std::size_t n_stacks = firsts.size();
    std::vector<std::vector<std::uint64_t>> sizes(n_stacks);
    for (unsigned i = 0; i < configs.size(); ++i)
        sizes[stack_of[i]].push_back(configs[i].llc.size);
    for (std::vector<std::uint64_t>& s : sizes) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }

    // Each spare worker splits the stack with the most capacities per
    // part once more, until every capacity has a part of its own.
    std::vector<std::size_t> parts(n_stacks, 1);
    for (std::size_t n = n_stacks; n < workers; ++n) {
        std::size_t best = n_stacks;
        for (std::size_t s = 0; s < n_stacks; ++s) {
            if (parts[s] < sizes[s].size() &&
                (best == n_stacks || sizes[s].size() * parts[best] >
                                         sizes[best].size() * parts[s]))
                best = s;
        }
        if (best == n_stacks)
            break;
        ++parts[best];
    }

    // Deal a stack's capacities out round-robin, smallest first, and
    // number the parts in order of their first config. Inclusion holds
    // within any subset of capacities, so each part is a stack.
    constexpr unsigned unnumbered = ~0u;
    std::vector<std::vector<unsigned>> part_ids(n_stacks);
    for (std::size_t s = 0; s < n_stacks; ++s)
        part_ids[s].assign(parts[s], unnumbered);
    unsigned next = 0;
    for (unsigned i = 0; i < configs.size(); ++i) {
        const std::vector<std::uint64_t>& s = sizes[stack_of[i]];
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(s.begin(), s.end(), configs[i].llc.size) -
            s.begin());
        unsigned& id = part_ids[stack_of[i]][rank % parts[stack_of[i]]];
        if (id == unnumbered)
            id = next++;
        stack_of[i] = id;
    }
    return stack_of;
}

} // namespace cosim
