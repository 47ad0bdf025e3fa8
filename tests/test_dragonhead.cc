/**
 * @file
 * Tests for the Dragonhead emulator blocks: message protocol, address
 * filter, control block, and the assembled board with its per-slice and
 * per-core counters.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "base/units.hh"
#include "dragonhead/dragonhead.hh"
#include "mem/address_space.hh"

namespace cosim {
namespace {

// ----------------------------------------------------------- messages

class MessageRoundTrip : public ::testing::TestWithParam<msg::Type>
{};

TEST_P(MessageRoundTrip, EncodeDecode)
{
    const std::uint64_t payloads[] = {0, 1, 12345, msg::maxPayload};
    for (std::uint64_t payload : payloads) {
        Addr a = msg::encodeAddr(GetParam(), payload);
        EXPECT_TRUE(msg::isMessageAddr(a));
        msg::Message m = msg::decode(a);
        EXPECT_EQ(m.type, GetParam());
        EXPECT_EQ(m.payload, payload);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MessageRoundTrip,
    ::testing::Values(msg::Type::StartEmulation, msg::Type::StopEmulation,
                      msg::Type::SetCoreId, msg::Type::InstRetired,
                      msg::Type::CyclesCompleted),
    [](const ::testing::TestParamInfo<msg::Type>& info) {
        std::string n = msg::toString(info.param);
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Messages, OrdinaryAddressesAreNotMessages)
{
    EXPECT_FALSE(msg::isMessageAddr(0x1000));
    EXPECT_FALSE(msg::isMessageAddr(0xffff'ffffull));
    EXPECT_FALSE(msg::isMessageAddr(SimAllocator::workloadBase));
}

TEST(Messages, EncodeWrapsInMessageTxn)
{
    BusTransaction txn = msg::encode(msg::Type::SetCoreId, 7);
    EXPECT_EQ(txn.kind, TxnKind::Message);
    EXPECT_EQ(msg::decode(txn.addr).payload, 7u);
}

// ------------------------------------------------------- address filter

BusTransaction
demand(Addr a, CoreId core = 0, TxnKind kind = TxnKind::ReadLine)
{
    BusTransaction txn;
    txn.addr = a;
    txn.size = 64;
    txn.kind = kind;
    txn.core = core;
    return txn;
}

TEST(AddressFilter, DropsOutsideEmulationWindow)
{
    AddressFilter af;
    CoreId core = 0;
    msg::Message m{};
    EXPECT_EQ(af.process(demand(0x1000), core, m), FilterAction::Dropped);
    EXPECT_FALSE(af.emulating());

    af.process(msg::encode(msg::Type::StartEmulation, 0), core, m);
    EXPECT_TRUE(af.emulating());
    EXPECT_EQ(af.process(demand(0x1000), core, m), FilterAction::Forward);

    af.process(msg::encode(msg::Type::StopEmulation, 0), core, m);
    EXPECT_EQ(af.process(demand(0x1000), core, m), FilterAction::Dropped);
}

TEST(AddressFilter, TracksCurrentCore)
{
    AddressFilter af;
    CoreId core = 99;
    msg::Message m{};
    af.process(msg::encode(msg::Type::StartEmulation, 0), core, m);
    af.process(msg::encode(msg::Type::SetCoreId, 5), core, m);
    af.process(demand(0x40), core, m);
    EXPECT_EQ(core, 5u);
    af.process(msg::encode(msg::Type::SetCoreId, 11), core, m);
    af.process(demand(0x80), core, m);
    EXPECT_EQ(core, 11u);
}

TEST(AddressFilter, StatsAndReset)
{
    AddressFilter af;
    CoreId core = 0;
    msg::Message m{};
    af.process(demand(0x40), core, m);  // dropped
    af.process(msg::encode(msg::Type::StartEmulation, 0), core, m);
    af.process(demand(0x40), core, m);  // forwarded
    EXPECT_EQ(af.stats().observed, 3u);
    EXPECT_EQ(af.stats().dropped, 1u);
    EXPECT_EQ(af.stats().messages, 1u);
    EXPECT_EQ(af.stats().forwarded, 1u);

    af.reset();
    EXPECT_FALSE(af.emulating());
    EXPECT_EQ(af.stats().observed, 0u);
}

// --------------------------------------------------------- control block

TEST(ControlBlock, InstructionAndCycleTotals)
{
    ControlBlockParams p;
    p.samplePeriodUs = 500;
    p.coreFreqGhz = 1.0; // 500k cycles per window
    ControlBlock cb(p);

    cb.onMessage({msg::Type::StartEmulation, 0});
    cb.onMessage({msg::Type::InstRetired, 1000});
    cb.onMessage({msg::Type::CyclesCompleted, 2000});
    cb.onMessage({msg::Type::InstRetired, 500});
    cb.onMessage({msg::Type::CyclesCompleted, 700});
    EXPECT_EQ(cb.totalInsts(), 1500u);
    EXPECT_EQ(cb.totalCycles(), 2700u);
}

TEST(ControlBlock, ClosesWindowsEvery500us)
{
    ControlBlockParams p;
    p.samplePeriodUs = 500;
    p.coreFreqGhz = 1.0; // 500,000 cycles per window
    ControlBlock cb(p);

    cb.onMessage({msg::Type::StartEmulation, 0});
    for (int i = 0; i < 10; ++i) {
        cb.onMessage({msg::Type::InstRetired, 100000});
        cb.onMessage({msg::Type::CyclesCompleted, 250000});
    }
    // 2.5M cycles -> 5 closed windows of 500k cycles each.
    ASSERT_EQ(cb.samples().size(), 5u);
    for (const Sample& s : cb.samples()) {
        EXPECT_EQ(s.cycles, 500000u);
        EXPECT_EQ(s.insts, 200000u);
    }
    EXPECT_DOUBLE_EQ(cb.samples()[0].timeUs, 500.0);
    EXPECT_DOUBLE_EQ(cb.samples()[4].timeUs, 2500.0);
}

TEST(ControlBlock, StopFlushesPartialWindow)
{
    ControlBlockParams p;
    p.samplePeriodUs = 500;
    p.coreFreqGhz = 1.0;
    ControlBlock cb(p);

    cb.onMessage({msg::Type::StartEmulation, 0});
    cb.onMessage({msg::Type::InstRetired, 42});
    cb.onMessage({msg::Type::CyclesCompleted, 100});
    cb.onMessage({msg::Type::StopEmulation, 0});
    ASSERT_EQ(cb.samples().size(), 1u);
    EXPECT_EQ(cb.samples()[0].insts, 42u);
    EXPECT_EQ(cb.samples()[0].cycles, 100u);
    EXPECT_GT(cb.samples()[0].timeUs, 0.0);
}

TEST(ControlBlock, FlushAfterFullWindowsStampsShortTail)
{
    ControlBlockParams p;
    p.samplePeriodUs = 500;
    p.coreFreqGhz = 1.0; // 500,000 cycles per window, 1000 cycles per us
    ControlBlock cb(p);

    cb.onMessage({msg::Type::StartEmulation, 0});
    // Two full windows plus a 125,000-cycle (125 us) tail.
    cb.onMessage({msg::Type::InstRetired, 900000});
    cb.onMessage({msg::Type::CyclesCompleted, 1125000});
    ASSERT_EQ(cb.samples().size(), 2u);

    cb.onMessage({msg::Type::StopEmulation, 0});
    ASSERT_EQ(cb.samples().size(), 3u);
    const Sample& tail = cb.samples().back();
    EXPECT_EQ(tail.cycles, 125000u);
    // The short window's timestamp continues from the last full window:
    // 2 * 500 us + 125,000 cycles / 1000 cycles-per-us.
    EXPECT_DOUBLE_EQ(tail.timeUs, 1125.0);
    // Instructions not covered by the closed windows land in the tail.
    EXPECT_EQ(tail.insts,
              900000u - cb.samples()[0].insts - cb.samples()[1].insts);

    // A second flush with no new activity must not add an empty sample.
    cb.onMessage({msg::Type::StopEmulation, 0});
    EXPECT_EQ(cb.samples().size(), 3u);
}

TEST(ControlBlock, SampleMpki)
{
    Sample s;
    s.insts = 2000;
    s.misses = 5;
    EXPECT_DOUBLE_EQ(s.mpki(), 2.5);
    Sample zero;
    EXPECT_DOUBLE_EQ(zero.mpki(), 0.0);
}

// ------------------------------------------------------------ dragonhead

DragonheadParams
testBoard(std::uint64_t llc_size = 64 * KiB, unsigned slices = 4)
{
    DragonheadParams p;
    p.llc = {"llc", llc_size, 64, 4};
    p.nSlices = slices;
    p.cb.samplePeriodUs = 500;
    p.cb.coreFreqGhz = 1.0;
    return p;
}

TEST(Dragonhead, IgnoresTrafficOutsideWindow)
{
    Dragonhead dh(testBoard());
    dh.observe(demand(0x1000));
    EXPECT_EQ(dh.results().accesses, 0u);
}

TEST(Dragonhead, EmulatesWithinWindow)
{
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    dh.observe(msg::encode(msg::Type::SetCoreId, 1));
    dh.observe(demand(0x1000));
    dh.observe(demand(0x1000));
    dh.observe(msg::encode(msg::Type::InstRetired, 1000));
    dh.observe(msg::encode(msg::Type::StopEmulation, 0));

    LlcResults r = dh.results();
    EXPECT_EQ(r.accesses, 2u);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.insts, 1000u);
    EXPECT_DOUBLE_EQ(r.mpki(), 1.0);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.5);

    CoreCounters cc = dh.coreResults(1);
    EXPECT_EQ(cc.accesses, 2u);
    EXPECT_EQ(cc.misses, 1u);
}

TEST(Dragonhead, PerCoreAttribution)
{
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    dh.observe(msg::encode(msg::Type::SetCoreId, 2));
    dh.observe(demand(0x0));                       // miss
    dh.observe(demand(0x0));                       // hit
    dh.observe(msg::encode(msg::Type::SetCoreId, 5));
    dh.observe(demand(0x40, 0, TxnKind::WriteLine)); // miss

    EXPECT_EQ(dh.coreResults(2).accesses, 2u);
    EXPECT_EQ(dh.coreResults(2).misses, 1u);
    EXPECT_EQ(dh.coreResults(5).accesses, 1u);
    EXPECT_EQ(dh.coreResults(5).misses, 1u);
    EXPECT_EQ(dh.coreResults(3).accesses, 0u);
    EXPECT_EQ(dh.results().accesses, 3u);

    dh.reset();
    EXPECT_EQ(dh.coreResults(2).accesses, 0u);
    EXPECT_EQ(dh.results().accesses, 0u);
}

TEST(Dragonhead, CountsEveryCoreOfA128CoreStream)
{
    // Rows grow with the core ids the AF is told about: no core of a
    // 128-core rig goes uncounted, and asking about one never seen
    // reads zero.
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    Rng rng(128);
    for (int i = 0; i < 20000; ++i) {
        if (i % 16 == 0)
            dh.observe(msg::encode(msg::Type::SetCoreId,
                                   rng.nextBounded(128)));
        dh.observe(demand(rng.nextBounded(1 * MiB)));
    }
    dh.observe(msg::encode(msg::Type::SetCoreId, 127));
    dh.observe(demand(0x40));
    EXPECT_GT(dh.coreResults(127).accesses, 0u);
    EXPECT_EQ(dh.coreResults(1000).accesses, 0u);

    CoreCounters sum;
    for (unsigned c = 0; c < 128; ++c) {
        sum.accesses += dh.coreResults(static_cast<CoreId>(c)).accesses;
        sum.misses += dh.coreResults(static_cast<CoreId>(c)).misses;
    }
    EXPECT_EQ(sum.accesses, dh.results().accesses);
    EXPECT_EQ(sum.misses, dh.results().misses);
}

TEST(Dragonhead, SlicedBoardMatchesMonolithicCache)
{
    // Interleaving puts slice j's set i at set i * nSlices + j of a
    // monolithic cache of the full size, under the same tag, so an
    // n-slice board is that cache access for access.
    const CacheParams whole = testBoard().llc;
    for (unsigned slices : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(slices) + " slices");
        Dragonhead sliced(testBoard(whole.size, slices));
        Cache mono(whole);
        sliced.observe(msg::encode(msg::Type::StartEmulation, 0));

        Rng rng(77);
        std::uint64_t diffs = 0;
        for (int i = 0; i < 200000; ++i) {
            const bool write = rng.nextBool(0.3);
            const Addr a = rng.nextBounded(256 * KiB);
            sliced.observe(demand(a, 0, write ? TxnKind::WriteLine
                                              : TxnKind::ReadLine));
            mono.access(a, write);
            std::uint64_t writebacks = 0;
            for (unsigned s = 0; s < sliced.nSlices(); ++s)
                writebacks += sliced.sliceStats(s).writebacks;
            if (sliced.results().misses != mono.stats().misses ||
                writebacks != mono.stats().writebacks)
                ++diffs;
        }
        EXPECT_EQ(diffs, 0u);
        EXPECT_GT(mono.stats().writebacks, 0u);
        EXPECT_EQ(sliced.results().accesses, mono.stats().accesses);
    }
}

TEST(Dragonhead, SliceSelectionCoversAllControllers)
{
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    for (Addr a = 0; a < 64 * 64; a += 64)
        dh.observe(demand(a));
    for (unsigned s = 0; s < dh.nSlices(); ++s)
        EXPECT_EQ(dh.sliceStats(s).accesses, 16u);
}

TEST(Dragonhead, WriteLineInstallsDirtyLines)
{
    Dragonhead dh(testBoard(1 * KiB, 1));
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    dh.observe(demand(0x0, 0, TxnKind::WriteLine));
    // Fill the set until the dirty line is evicted.
    for (Addr a = 0; a < 16 * KiB; a += 64)
        dh.observe(demand(a));
    EXPECT_GT(dh.sliceStats(0).writebacks, 0u);
}

TEST(Dragonhead, PerCorePartitioningIsolatesCores)
{
    DragonheadParams p = testBoard(64 * KiB, 4);
    p.partitioning = LlcPartitioning::PerCore;
    Dragonhead dh(p);
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));

    // Core 0 warms a working set into its private partition.
    dh.observe(msg::encode(msg::Type::SetCoreId, 0));
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < 8 * KiB; a += 64)
            dh.observe(demand(a, 0));
    // Pass 2 hits: the 8 KB set fits the 16 KB partition.
    EXPECT_EQ(dh.coreResults(0).misses, 8 * KiB / 64);

    // Core 1 touching the same addresses gets no benefit from core 0's
    // partition: private means cold again.
    dh.observe(msg::encode(msg::Type::SetCoreId, 1));
    for (Addr a = 0; a < 8 * KiB; a += 64)
        dh.observe(demand(a, 1));
    EXPECT_EQ(dh.coreResults(1).misses, 8 * KiB / 64);

    // All of core 1's traffic landed in slice 1.
    EXPECT_EQ(dh.sliceStats(1).accesses, 8 * KiB / 64);
    EXPECT_EQ(dh.sliceStats(2).accesses, 0u);
}

TEST(Dragonhead, SharedLlcLetsCoresReuseEachOther)
{
    // Contrast with the interleaved (shared) organization: core 1 hits
    // on the lines core 0 fetched.
    Dragonhead dh(testBoard(64 * KiB, 4));
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    dh.observe(msg::encode(msg::Type::SetCoreId, 0));
    for (Addr a = 0; a < 8 * KiB; a += 64)
        dh.observe(demand(a, 0));
    dh.observe(msg::encode(msg::Type::SetCoreId, 1));
    for (Addr a = 0; a < 8 * KiB; a += 64)
        dh.observe(demand(a, 1));
    EXPECT_EQ(dh.coreResults(1).misses, 0u);
}

TEST(Dragonhead, ResetClearsEverything)
{
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    dh.observe(demand(0x40));
    dh.observe(msg::encode(msg::Type::InstRetired, 10));
    dh.reset();
    EXPECT_EQ(dh.results().accesses, 0u);
    EXPECT_EQ(dh.results().insts, 0u);
    EXPECT_FALSE(dh.addressFilter().emulating());
}

TEST(Dragonhead, SamplesAppearOverEmulatedTime)
{
    Dragonhead dh(testBoard());
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    for (int i = 0; i < 4; ++i) {
        dh.observe(demand(static_cast<Addr>(i) * 64));
        dh.observe(msg::encode(msg::Type::InstRetired, 1000));
        dh.observe(msg::encode(msg::Type::CyclesCompleted, 300000));
    }
    dh.observe(msg::encode(msg::Type::StopEmulation, 0));
    // 1.2M cycles at 1 GHz = 1200 us -> 2 full windows + partial flush.
    ASSERT_EQ(dh.samples().size(), 3u);
    std::uint64_t insts = 0;
    std::uint64_t accesses = 0;
    for (const Sample& s : dh.samples()) {
        insts += s.insts;
        accesses += s.accesses;
    }
    EXPECT_EQ(insts, 4000u);
    EXPECT_EQ(accesses, 4u);
}

} // namespace
} // namespace cosim
