/**
 * @file
 * Tests for the instrumented containers and the cooperative
 * synchronization primitives.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "mem/address_space.hh"
#include "softsdv/core_context.hh"
#include "softsdv/cpu_model.hh"
#include "workloads/sim_array.hh"
#include "workloads/thread_sync.hh"

namespace cosim {
namespace {

CpuParams
tinyCpu()
{
    CpuParams p;
    p.baseCpi = 1.0;
    p.caches.l1 = {"l1", 1024, 64, 2};
    p.caches.hasL2 = false;
    p.useDramLatency = false;
    p.emitFsbTraffic = false;
    return p;
}

class SimArrayTest : public ::testing::Test
{
  protected:
    SimArrayTest() : cpu_(0, tinyCpu(), &dram_, nullptr), ctx_(&cpu_) {}

    SimAllocator alloc_;
    DramModel dram_;
    CpuModel cpu_;
    CoreContext ctx_;
};

TEST_F(SimArrayTest, AddressesAreContiguousAndAligned)
{
    SimArray<std::uint32_t> a;
    a.init(alloc_, "a", 100);
    EXPECT_EQ(a.base() % 64, 0u);
    EXPECT_EQ(a.addrOf(0), a.base());
    EXPECT_EQ(a.addrOf(7), a.base() + 28);
    EXPECT_TRUE(a.initialized());
    EXPECT_EQ(a.size(), 100u);
}

TEST_F(SimArrayTest, ReadWriteRoundTripAndInstrumentation)
{
    SimArray<std::uint64_t> a;
    a.init(alloc_, "a", 16);
    a.write(ctx_, 3, 42);
    EXPECT_EQ(a.read(ctx_, 3), 42u);
    EXPECT_EQ(a.host(3), 42u);
    EXPECT_EQ(cpu_.stores(), 1u);
    EXPECT_EQ(cpu_.loads(), 1u);
    // Both accesses touched the line holding element 3.
    EXPECT_EQ(cpu_.caches().l1().stats().accesses, 2u);
}

TEST_F(SimArrayTest, BlockAccessChargesPerElement)
{
    SimArray<std::uint8_t> bytes;
    bytes.init(alloc_, "bytes", 256);
    bytes.readBlock(ctx_, 0, 256);
    // 256 one-byte loads...
    EXPECT_EQ(cpu_.loads(), 256u);
    // ...over 4 cache lines.
    EXPECT_EQ(cpu_.caches().l1().stats().accesses, 4u);

    SimArray<std::uint64_t> words;
    words.init(alloc_, "words", 64);
    words.writeBlock(ctx_, 0, 64);
    EXPECT_EQ(cpu_.stores(), 64u);
}

TEST_F(SimArrayTest, BlockReturnsWritableHostPointer)
{
    SimArray<int> a;
    a.init(alloc_, "a", 8);
    int* p = a.writeBlock(ctx_, 2, 4);
    p[0] = 11;
    p[3] = 44;
    EXPECT_EQ(a.host(2), 11);
    EXPECT_EQ(a.host(5), 44);
    EXPECT_EQ(a.readBlock(ctx_, 2, 4)[3], 44);
}

TEST_F(SimArrayTest, DistinctArraysDoNotOverlap)
{
    SimArray<double> a;
    SimArray<double> b;
    a.init(alloc_, "a", 100);
    b.init(alloc_, "b", 100);
    EXPECT_GE(b.base(), a.addrOf(99) + sizeof(double));
}

TEST_F(SimArrayTest, MatrixRowMajorAddressing)
{
    SimMatrix<float> m;
    m.init(alloc_, "m", 4, 10);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 10u);
    EXPECT_EQ(m.addrOf(1, 0), m.base() + 10 * sizeof(float));
    EXPECT_EQ(m.addrOf(2, 3), m.base() + 23 * sizeof(float));

    m.write(ctx_, 2, 3, 1.5f);
    EXPECT_FLOAT_EQ(m.read(ctx_, 2, 3), 1.5f);
    EXPECT_FLOAT_EQ(m.host(2, 3), 1.5f);

    const float* row = m.readBlock(ctx_, 2, 0, 10);
    EXPECT_FLOAT_EQ(row[3], 1.5f);
}

TEST_F(SimArrayTest, AdoptedDataSizesTheRegion)
{
    SimArray<std::uint16_t> a;
    a.init(alloc_, "adopted", std::vector<std::uint16_t>{5, 6, 7});
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.host(2), 7u);
    const SimRegion* r = alloc_.findRegion(a.base());
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->size, 3 * sizeof(std::uint16_t));

    SimMatrix<float> m;
    m.init(alloc_, "adopted.matrix", 2, 3, std::vector<float>(6, 0.5f));
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FLOAT_EQ(m.host(1, 2), 0.5f);
    EXPECT_EQ(alloc_.findRegion(m.base())->size, 6 * sizeof(float));
}

TEST(SimMatrixDeathTest, AdoptedDataMustMatchTheShape)
{
    SimAllocator alloc;
    SimMatrix<float> m;
    EXPECT_DEATH(m.init(alloc, "m", 2, 3, std::vector<float>(5)),
                 "5 elements for 2 x 3");
}

TEST_F(SimArrayTest, AllocatorRegionNamesSurvive)
{
    SimArray<int> a;
    a.init(alloc_, "workload.structure", 4);
    const SimRegion* r = alloc_.findRegion(a.addrOf(2));
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->name, "workload.structure");
}

// ------------------------------------------------------------ barriers

TEST(PhaseBarrier, LastArriverReleasesAndRunsCallback)
{
    PhaseBarrier barrier;
    barrier.init(3);
    int released = 0;
    barrier.setOnRelease([&] { ++released; });

    EXPECT_EQ(barrier.generation(), 0u);
    barrier.arrive();
    barrier.arrive();
    EXPECT_EQ(released, 0);
    EXPECT_EQ(barrier.generation(), 0u);
    barrier.arrive();
    EXPECT_EQ(released, 1);
    EXPECT_EQ(barrier.generation(), 1u);

    // Reusable for the next generation.
    barrier.arrive();
    barrier.arrive();
    barrier.arrive();
    EXPECT_EQ(released, 2);
    EXPECT_EQ(barrier.generation(), 2u);
}

TEST(PhaseBarrier, SinglePartyNeverBlocks)
{
    PhaseBarrier barrier;
    barrier.init(1);
    for (int i = 0; i < 5; ++i)
        barrier.arrive();
    EXPECT_EQ(barrier.generation(), 5u);
}

TEST(BarrierWaiter, WaitsUntilAllArriveAndYields)
{
    DramModel dram;
    CpuModel cpu(0, tinyCpu(), &dram, nullptr);
    CoreContext ctx(&cpu);

    PhaseBarrier barrier;
    barrier.init(2);
    BarrierWaiter w1;
    BarrierWaiter w2;

    // Party 1 arrives and must keep waiting (and yield each time).
    EXPECT_TRUE(w1.wait(barrier, ctx));
    EXPECT_TRUE(ctx.yielded());
    ctx.clearYield();
    EXPECT_TRUE(w1.wait(barrier, ctx)); // still waiting; no re-arrive
    ctx.clearYield();

    // Party 2's arrival releases the generation; both pass.
    EXPECT_FALSE(w2.wait(barrier, ctx));
    EXPECT_FALSE(w1.wait(barrier, ctx));

    // The waiter is reusable for the next phase.
    EXPECT_TRUE(w1.wait(barrier, ctx));
}

} // namespace
} // namespace cosim
