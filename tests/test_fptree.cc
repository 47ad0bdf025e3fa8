/**
 * @file
 * Unit tests for the FP-tree substrate (independent of the FIMI
 * workload driver).
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "mem/address_space.hh"
#include "softsdv/cpu_model.hh"
#include "softsdv/core_context.hh"
#include "workloads/fp_tree.hh"

namespace cosim {
namespace {

class FpTreeTest : public ::testing::Test
{
  protected:
    FpTreeTest()
        : cpu_(0, cpuParams(), &dram_, nullptr), ctx_(&cpu_)
    {
        tree_.init(alloc_, "t", 1024, 16);
    }

    static CpuParams
    cpuParams()
    {
        CpuParams p;
        p.baseCpi = 1.0;
        p.caches.l1 = {"l1", 1024, 64, 2};
        p.caches.hasL2 = false;
        p.useDramLatency = false;
        p.emitFsbTraffic = false;
        return p;
    }

    void
    insert(std::initializer_list<std::uint16_t> items,
           std::uint32_t count = 1)
    {
        std::vector<std::uint16_t> v(items);
        ASSERT_TRUE(tree_.insert(ctx_, v.data(), v.size(), count));
    }

    SimAllocator alloc_;
    DramModel dram_;
    CpuModel cpu_;
    CoreContext ctx_;
    FpTree tree_;
};

TEST_F(FpTreeTest, EmptyTreeHasOnlyRoot)
{
    EXPECT_EQ(tree_.nodesUsed(), 1u);
    EXPECT_EQ(tree_.hostHeader(3), FpTree::nil);
    EXPECT_EQ(tree_.hostChainSupport(3), 0u);
}

TEST_F(FpTreeTest, SharedPrefixesShareNodes)
{
    insert({1, 2, 3});
    insert({1, 2, 4});
    insert({1, 2, 3});
    // root + 1 + 2 + 3 + 4 = 5 nodes; the {1,2} prefix is shared.
    EXPECT_EQ(tree_.nodesUsed(), 5u);
    EXPECT_EQ(tree_.hostChainSupport(1), 3u);
    EXPECT_EQ(tree_.hostChainSupport(2), 3u);
    EXPECT_EQ(tree_.hostChainSupport(3), 2u);
    EXPECT_EQ(tree_.hostChainSupport(4), 1u);
}

TEST_F(FpTreeTest, DivergentPathsMakeSeparateNodesAndChains)
{
    insert({1, 3});
    insert({2, 3});
    // Two distinct "3" nodes under different parents...
    EXPECT_EQ(tree_.nodesUsed(), 5u);
    // ...linked into one node-link chain carrying the total support.
    EXPECT_EQ(tree_.hostChainSupport(3), 2u);
    std::uint32_t head = tree_.hostHeader(3);
    ASSERT_NE(head, FpTree::nil);
    EXPECT_NE(tree_.hostNode(head).nodeLink, FpTree::nil);
}

TEST_F(FpTreeTest, CountsCarryMultiplicity)
{
    insert({5, 6}, 7);
    insert({5}, 2);
    EXPECT_EQ(tree_.hostChainSupport(5), 9u);
    EXPECT_EQ(tree_.hostChainSupport(6), 7u);
}

TEST_F(FpTreeTest, ParentPointersReachRoot)
{
    insert({1, 2, 3});
    std::uint32_t node = tree_.hostHeader(3);
    ASSERT_NE(node, FpTree::nil);
    EXPECT_EQ(tree_.hostNode(node).item, 3);
    std::uint32_t up = tree_.hostNode(node).parent;
    EXPECT_EQ(tree_.hostNode(up).item, 2);
    up = tree_.hostNode(up).parent;
    EXPECT_EQ(tree_.hostNode(up).item, 1);
    EXPECT_EQ(tree_.hostNode(up).parent, 0u); // the root
}

TEST_F(FpTreeTest, MoveToFrontPromotesRevisitedChild)
{
    insert({1});
    insert({2});
    insert({3});
    // Head of the root's child list is now 3 (inserted last).
    EXPECT_EQ(tree_.hostNode(tree_.hostNode(0).firstChild).item, 3);
    insert({1}); // revisit: move-to-front must promote it
    EXPECT_EQ(tree_.hostNode(tree_.hostNode(0).firstChild).item, 1);
    EXPECT_EQ(tree_.hostChainSupport(1), 2u);
    // No nodes were duplicated by the splice.
    EXPECT_EQ(tree_.nodesUsed(), 4u);
}

TEST_F(FpTreeTest, MoveToFrontPreservesAllSiblings)
{
    insert({1});
    insert({2});
    insert({3});
    insert({2}); // promote the middle sibling
    std::vector<std::uint16_t> seen;
    std::uint32_t child = tree_.hostNode(0).firstChild;
    while (child != FpTree::nil) {
        seen.push_back(tree_.hostNode(child).item);
        child = tree_.hostNode(child).nextSibling;
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::uint16_t>{1, 2, 3}));
}

TEST_F(FpTreeTest, CapacityExhaustionReturnsFalse)
{
    SimAllocator alloc;
    FpTree tiny;
    tiny.init(alloc, "tiny", 3, 16); // root + 2 nodes
    std::uint16_t path[] = {1, 2, 3};
    EXPECT_FALSE(tiny.insert(ctx_, path, 3, 1));
    // The two nodes that fit were installed before the pool ran dry.
    EXPECT_EQ(tiny.nodesUsed(), 3u);
}

TEST_F(FpTreeTest, ResetClearsEverything)
{
    insert({1, 2});
    tree_.reset(ctx_);
    EXPECT_EQ(tree_.nodesUsed(), 1u);
    EXPECT_EQ(tree_.hostHeader(1), FpTree::nil);
    EXPECT_EQ(tree_.hostNode(0).firstChild, FpTree::nil);
    insert({4});
    EXPECT_EQ(tree_.hostChainSupport(4), 1u);
}

TEST_F(FpTreeTest, UsedBytesTracksNodes)
{
    std::uint64_t before = tree_.usedBytes();
    insert({1, 2, 3, 4});
    EXPECT_EQ(tree_.usedBytes(), before + 4 * sizeof(FpNode));
}

TEST_F(FpTreeTest, InsertGeneratesInstrumentedTraffic)
{
    InstCount before = cpu_.insts();
    insert({1, 2, 3});
    EXPECT_GT(cpu_.insts(), before);
    EXPECT_GT(cpu_.memInsts(), 0u);
}

} // namespace
} // namespace cosim
