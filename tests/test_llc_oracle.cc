/**
 * @file
 * Differential oracle for the LLC model.
 *
 * ReferenceLlc is a deliberately naive cache: one std::list per set,
 * tags compared node by node, no packing and no SIMD. The optimized
 * Cache must agree with it access by access on seeded random streams,
 * and every configuration of an LLC stack must agree with a reference
 * board built from it (one reference cache per CC slice, as the
 * physical board was organized) on seeded random bus streams and on the
 * bus streams of every fig4 workload.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "cache/cache.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "dragonhead/dragonhead.hh"
#include "workloads/workload_factory.hh"

namespace cosim {
namespace {

/** See file comment. Each set's list keeps the most recent line
 * first, so the LRU victim is its last line. */
class ReferenceLlc
{
  public:
    ReferenceLlc(std::uint64_t size, std::uint32_t line_size,
                 std::uint32_t ways)
        : lineSize_(line_size), ways_(ways), sets_(size / line_size / ways)
    {}

    Cache::Outcome
    access(Addr addr, bool write)
    {
        Cache::Outcome out;
        auto& set = setOf(addr);
        auto it = find(addr);
        if (it != set.end()) {
            out.hit = true;
            out.firstHitOnPrefetch = it->prefetched;
            it->prefetched = false;
            it->dirty = it->dirty || write;
            set.splice(set.begin(), set, it);
            return out;
        }
        fill(addr, write, false, out);
        return out;
    }

    bool
    prefetchFill(Addr addr)
    {
        if (probe(addr))
            return false;
        Cache::Outcome ignored;
        fill(addr, false, true, ignored);
        return true;
    }

    bool probe(Addr addr) { return find(addr) != setOf(addr).end(); }

    void
    flush()
    {
        for (auto& set : sets_)
            set.clear();
    }

  private:
    struct Line
    {
        Addr lineAddr;
        bool dirty;
        bool prefetched;
    };

    std::list<Line>&
    setOf(Addr addr)
    {
        return sets_[(addr / lineSize_) % sets_.size()];
    }

    std::list<Line>::iterator
    find(Addr addr)
    {
        auto& set = setOf(addr);
        auto it = set.begin();
        while (it != set.end() && it->lineAddr != addr / lineSize_ * lineSize_)
            ++it;
        return it;
    }

    void
    fill(Addr addr, bool dirty, bool prefetched, Cache::Outcome& out)
    {
        auto& set = setOf(addr);
        if (set.size() == ways_) {
            out.evicted = true;
            out.evictedDirty = set.back().dirty;
            out.victimAddr = set.back().lineAddr;
            set.pop_back();
        }
        set.push_front({addr / lineSize_ * lineSize_, dirty, prefetched});
    }

    std::uint64_t lineSize_;
    std::size_t ways_;
    std::vector<std::list<Line>> sets_;
};

// ------------------------------------------------------ random streams

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t lineSize;
    std::uint32_t ways;
};

std::string
describe(const Geometry& g)
{
    return std::to_string(g.sets) + " sets x " + std::to_string(g.ways) +
           " ways x " + std::to_string(g.lineSize) + " B";
}

/** Play one seeded stream of mixed operations through both models. */
void
checkAgainstReference(const Geometry& g, std::uint64_t seed)
{
    SCOPED_TRACE(describe(g));
    const std::uint64_t size =
        std::uint64_t{g.sets} * g.lineSize * g.ways;
    Cache cache({"oracle", size, g.lineSize, g.ways});
    ReferenceLlc ref(size, g.lineSize, g.ways);

    // Three times the capacity, above the workload base, so lines
    // conflict, get evicted and come back.
    const std::uint64_t span = 3 * size;
    const Addr base = 0x1000'0000;
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = base + rng.nextBounded(span);
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 80) {
            const bool write = op >= 55;
            Cache::Outcome want = ref.access(addr, write);
            Cache::Outcome got = cache.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << "op " << i;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << i;
            ASSERT_EQ(got.evictedDirty, want.evictedDirty) << "op " << i;
            if (want.evicted) {
                ASSERT_EQ(got.victimAddr, want.victimAddr) << "op " << i;
            }
            ASSERT_EQ(got.firstHitOnPrefetch, want.firstHitOnPrefetch)
                << "op " << i;
        } else if (op < 88) {
            ASSERT_EQ(cache.prefetchFill(addr), ref.prefetchFill(addr))
                << "op " << i;
        } else if (op < 99 || rng.nextBounded(40) != 0) {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "op " << i;
        } else {
            cache.flush();
            ref.flush();
            ASSERT_EQ(cache.linesValid(), 0u);
        }
    }
}

TEST(LlcOracle, CacheMatchesReferenceOnRandomStreams)
{
    std::uint64_t seed = 1;
    for (std::uint32_t line : {8u, 64u, 512u, 4096u})
        for (std::uint32_t ways : {1u, 2u, 3u, 4u, 8u, 12u, 16u})
            for (std::uint32_t sets : {1u, 16u})
                checkAgainstReference({sets, line, ways}, seed++);
}

TEST(LlcOracle, FullyAssociativeBeyondSixteenWays)
{
    checkAgainstReference({1, 64, 64}, 101);
}

// -------------------------------------------------- fig4 bus streams

/**
 * A whole Dragonhead, built naively: the real address filter, one
 * ReferenceLlc per CC slice (line-interleaved with the slice bits
 * folded out, or one private partition per core), counters per core
 * and per slice, and the control block's 500 us windows recomputed
 * from the message stream.
 */
class ReferenceBoard : public BusSnooper
{
  public:
    explicit ReferenceBoard(const DragonheadParams& p)
        : slices_(p.nSlices), p_(p),
          cyclesPerWindow_(static_cast<Cycles>(
              static_cast<double>(p.cb.samplePeriodUs) * 1000.0 *
              p.cb.coreFreqGhz))
    {
        for (unsigned i = 0; i < p.nSlices; ++i)
            llcs_.emplace_back(p.llc.size / p.nSlices, p.llc.lineSize,
                               p.llc.assoc);
    }

    void
    observe(const BusTransaction& txn) override
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
        const bool write = txn.kind == TxnKind::WriteLine;
        const Addr line = txn.addr / p_.llc.lineSize;
        unsigned slice = static_cast<unsigned>(line % p_.nSlices);
        Addr addr = line / p_.nSlices * p_.llc.lineSize;
        if (p_.partitioning == LlcPartitioning::PerCore) {
            slice = core % p_.nSlices;
            addr = txn.addr;
        }
        const Cache::Outcome out = llcs_[slice].access(addr, write);

        CacheStats& s = slices_[slice];
        ++s.accesses;
        ++(write ? s.writes : s.reads);
        if (!out.hit) {
            ++s.misses;
            ++(write ? s.writeMisses : s.readMisses);
        }
        if (out.evicted) {
            ++s.evictions;
            if (out.evictedDirty)
                ++s.writebacks;
        }
        ++perCore_[core].accesses;
        if (!out.hit)
            ++perCore_[core].misses;
        ++accesses_;
        if (!out.hit)
            ++misses_;
    }

    std::vector<CacheStats> slices_;
    std::map<CoreId, CoreCounters> perCore_;
    std::vector<Sample> samples_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;

  private:
    void
    onMessage(const msg::Message& m)
    {
        switch (m.type) {
          case msg::Type::StartEmulation:
            mark_ = {cycles_, insts_, accesses_, misses_};
            break;
          case msg::Type::StopEmulation: {
            // A partial window is published unless it is empty.
            const Cycles partial = cycles_ - mark_.cycles;
            if (partial != 0 || insts_ != mark_.insts ||
                accesses_ != mark_.accesses)
                close(partial, static_cast<double>(closed_) *
                                       static_cast<double>(
                                           p_.cb.samplePeriodUs) +
                                   static_cast<double>(partial) /
                                       (p_.cb.coreFreqGhz * 1000.0));
            break;
          }
          case msg::Type::SetCoreId:
            break;
          case msg::Type::InstRetired:
            insts_ += m.payload;
            break;
          case msg::Type::CyclesCompleted:
            cycles_ += m.payload;
            while (cycles_ - mark_.cycles >= cyclesPerWindow_) {
                ++closed_;
                close(cyclesPerWindow_,
                      static_cast<double>(closed_) *
                          static_cast<double>(p_.cb.samplePeriodUs));
            }
            break;
        }
    }

    /** Publish the window ending now, @p cycles long, at @p time_us. */
    void
    close(Cycles cycles, double time_us)
    {
        Sample s;
        s.timeUs = time_us;
        s.cycles = cycles;
        s.insts = insts_ - mark_.insts;
        s.accesses = accesses_ - mark_.accesses;
        s.misses = misses_ - mark_.misses;
        samples_.push_back(s);
        mark_ = {mark_.cycles + cycles, insts_, accesses_, misses_};
    }

    struct Mark
    {
        Cycles cycles = 0;
        InstCount insts = 0;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    DragonheadParams p_;
    AddressFilter af_;
    std::vector<ReferenceLlc> llcs_;
    Cycles cyclesPerWindow_;
    Cycles cycles_ = 0;
    InstCount insts_ = 0;
    std::uint64_t closed_ = 0;
    Mark mark_;
};

/** The boards under test: 1, 4 and 8 interleaved slices, per-core. */
std::vector<DragonheadParams>
boards(std::uint64_t size, std::uint32_t ways, unsigned cores)
{
    std::vector<DragonheadParams> out;
    for (unsigned slices : {1u, 4u, 8u, cores}) {
        DragonheadParams p = presets::llcConfig(size, 64);
        p.llc.assoc = ways;
        p.nSlices = slices;
        if (out.size() == 3)
            p.partitioning = LlcPartitioning::PerCore;
        out.push_back(p);
    }
    return out;
}

/** Every counter of board @p i agrees with its reference. */
void
expectBoardMatches(const Dragonhead& dh, const ReferenceBoard& ref,
                   unsigned cores)
{
    EXPECT_EQ(dh.results().accesses, ref.accesses_);
    EXPECT_EQ(dh.results().misses, ref.misses_);
    for (unsigned c = 0; c < cores; ++c) {
        const CoreId core = static_cast<CoreId>(c);
        const auto it = ref.perCore_.find(core);
        const CoreCounters want =
            it == ref.perCore_.end() ? CoreCounters{} : it->second;
        EXPECT_EQ(dh.coreResults(core).accesses, want.accesses) << c;
        EXPECT_EQ(dh.coreResults(core).misses, want.misses) << c;
    }

    std::vector<stats::Group> groups;
    dh.addStats(groups, "dh");
    // The aggregate, then one group per slice.
    ASSERT_EQ(groups.size(), 1 + ref.slices_.size());
    for (unsigned j = 0; j < ref.slices_.size(); ++j) {
        const CacheStats& s = ref.slices_[j];
        const stats::Group& g = groups[1 + j];
        ASSERT_EQ(g.name, "dh.cc" + std::to_string(j));
        const std::map<std::string, double> want = {
            {"accesses", double(s.accesses)},
            {"reads", double(s.reads)},
            {"writes", double(s.writes)},
            {"misses", double(s.misses)},
            {"read_misses", double(s.readMisses)},
            {"write_misses", double(s.writeMisses)},
            {"evictions", double(s.evictions)},
            {"writebacks", double(s.writebacks)},
            {"prefetch_fills", 0.0},
            {"useful_prefetches", 0.0},
            {"miss_rate", s.missRate()},
        };
        ASSERT_EQ(g.values.size(), want.size()) << j;
        for (const auto& [key, value] : g.values)
            EXPECT_EQ(value, want.at(key)) << "cc" << j << "." << key;
    }

    ASSERT_EQ(dh.samples().size(), ref.samples_.size());
    for (std::size_t w = 0; w < ref.samples_.size(); ++w) {
        const Sample& got = dh.samples()[w];
        const Sample& want = ref.samples_[w];
        EXPECT_EQ(got.timeUs, want.timeUs) << w;
        EXPECT_EQ(got.cycles, want.cycles) << w;
        EXPECT_EQ(got.insts, want.insts) << w;
        EXPECT_EQ(got.accesses, want.accesses) << w;
        EXPECT_EQ(got.misses, want.misses) << w;
    }
}

/** A board of @p size, 4-way, 64 B lines, 4 slices, 1 GHz CB. */
DragonheadParams
smallBoard(std::uint64_t size, LlcPartitioning partitioning)
{
    DragonheadParams p;
    p.llc = {"llc" + formatSize(size), size, 64, 4};
    p.nSlices = 4;
    p.partitioning = partitioning;
    p.cb.coreFreqGhz = 1.0;
    return p;
}

TEST(LlcOracle, StackMatchesReferenceOnRandomStreams)
{
    // Per organization, one stack whose chain has a 2x gap, a 16x gap
    // and two equal sizes, listed out of order.
    std::vector<DragonheadParams> configs;
    for (LlcPartitioning part :
         {LlcPartitioning::Interleaved, LlcPartitioning::PerCore})
        for (std::uint64_t size : {8 * KiB, 4 * KiB, 128 * KiB, 128 * KiB})
            configs.push_back(smallBoard(size, part));
    DragonheadStacks stacks(configs);
    ASSERT_EQ(stacks.nStacks(), 2u);

    FrontSideBus bus;
    bus.setBatchCapacity(256);
    for (unsigned s = 0; s < stacks.nStacks(); ++s)
        bus.attach(&stacks.stack(s));
    std::vector<std::unique_ptr<ReferenceBoard>> refs;
    for (const DragonheadParams& p : configs) {
        refs.push_back(std::make_unique<ReferenceBoard>(p));
        bus.attach(refs.back().get());
    }

    // Three times the largest capacity, so lines conflict, get evicted
    // dirty and come back; messages switch cores and close CB windows.
    const unsigned cores = 8;
    const std::uint64_t span = 3 * 128 * KiB;
    Rng rng(2024);
    bus.issue(msg::encode(msg::Type::StartEmulation, 0));
    for (int i = 0; i < 60000; ++i) {
        const std::uint64_t op = rng.nextBounded(1000);
        if (op < 8) {
            bus.issue(msg::encode(msg::Type::SetCoreId,
                                  rng.nextBounded(cores)));
        } else if (op < 12) {
            bus.issue(msg::encode(msg::Type::InstRetired,
                                  rng.nextBounded(20000)));
        } else if (op < 16) {
            bus.issue(msg::encode(msg::Type::CyclesCompleted,
                                  rng.nextBounded(300000)));
        } else {
            BusTransaction txn;
            txn.addr = 0x1000'0000 + rng.nextBounded(span);
            txn.size = 64;
            txn.kind = rng.nextBool(0.3) ? TxnKind::WriteLine
                                         : TxnKind::ReadLine;
            bus.issue(txn);
        }
    }
    bus.issue(msg::encode(msg::Type::StopEmulation, 0));
    bus.flush();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_GT(refs[i]->accesses_, 0u);
        ASSERT_GT(refs[i]->misses_, 0u);
        ASSERT_GT(refs[i]->samples_.size(), 1u);
        std::uint64_t writebacks = 0;
        for (const CacheStats& slice : refs[i]->slices_)
            writebacks += slice.writebacks;
        ASSERT_GT(writebacks, 0u);
        expectBoardMatches(stacks.board(static_cast<unsigned>(i)),
                           *refs[i], cores);
    }
    // The 16x gap is a real one: the largest level misses less.
    EXPECT_LT(refs[2]->misses_, refs[0]->misses_);
}

class Fig4Streams : public ::testing::TestWithParam<std::string>
{};

TEST_P(Fig4Streams, DragonheadMatchesReferenceBoard)
{
    const PlatformParams platform = presets::scmp();
    const unsigned cores = platform.nCores;
    // fig4's smallest LLC, and one small enough that the --quick
    // inputs evict and write back.
    std::vector<DragonheadParams> configs = boards(4 * MiB, 16, cores);
    for (const DragonheadParams& p : boards(256 * KiB, 8, cores))
        configs.push_back(p);
    // Chains the rig emulates as LLC stacks: fig4's whole sweep; a
    // 16-way chain with 2x and 4x gaps that evicts and writes back at
    // --quick; and per-core partitions of 1 and 4 MB.
    const std::size_t sweep_at = configs.size();
    const std::vector<DragonheadParams> sweep =
        presets::llcSizeSweepEmulators();
    configs.insert(configs.end(), sweep.begin(), sweep.end());
    for (std::uint64_t size : {256 * KiB, 512 * KiB, 2 * MiB, 8 * MiB})
        configs.push_back(presets::llcConfig(size, 64));
    for (std::uint64_t size : {1 * MiB, 4 * MiB}) {
        DragonheadParams p = presets::llcConfig(size, 64);
        p.nSlices = cores;
        p.partitioning = LlcPartitioning::PerCore;
        configs.push_back(p);
    }

    CoSimParams params;
    params.platform = platform;
    params.emulators = configs;
    CoSimulation rig(params);
    std::vector<std::unique_ptr<ReferenceBoard>> refs;
    for (const DragonheadParams& p : configs) {
        refs.push_back(std::make_unique<ReferenceBoard>(p));
        rig.platform().fsb().attach(refs.back().get());
    }
    // fig4's sweep again, split for three workers as a bank splits it:
    // {4, 32, 256}, {8, 64} and {16, 128} MB.
    DragonheadStacks split(sweep, 3);
    ASSERT_EQ(split.nStacks(), 3u);
    for (unsigned s = 0; s < split.nStacks(); ++s)
        rig.platform().fsb().attach(&split.stack(s));

    const double quick = 0.05;
    auto workload = createWorkload(GetParam(), quick);
    WorkloadConfig cfg;
    cfg.nThreads = cores;
    cfg.scale = quick;
    const RunResult result = rig.run(*workload, cfg);
    for (const auto& ref : refs)
        rig.platform().fsb().detach(ref.get());
    for (unsigned s = 0; s < split.nStacks(); ++s)
        rig.platform().fsb().detach(&split.stack(s));
    ASSERT_TRUE(result.verified);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("board " + std::to_string(i));
        ASSERT_GT(refs[i]->accesses_, 0u);
        expectBoardMatches(rig.emulator(static_cast<unsigned>(i)),
                           *refs[i], cores);
    }
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        SCOPED_TRACE("split board " + std::to_string(i));
        expectBoardMatches(split.board(static_cast<unsigned>(i)),
                           *refs[sweep_at + i], cores);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Fig4Streams, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string n = info.param;
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace cosim
