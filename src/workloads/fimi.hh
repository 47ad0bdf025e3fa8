/**
 * @file
 * FIMI: frequent-itemset mining with FP-growth (Section 2.3).
 *
 * Three stages, as in the FP-Zhu package the paper used:
 *  1. first scan -- count item frequencies over the transaction stream;
 *  2. FP-tree construction -- insert every transaction (filtered to
 *     frequent items, sorted by descending frequency) into the shared
 *     prefix tree (built serially, as in the reference implementation);
 *  3. mining -- per frequent item (partitioned across threads,
 *     least-frequent first), walk its node-link chain, accumulate the
 *     conditional pattern base, emit frequent pairs, and build a small
 *     private conditional FP-tree to mine frequent triples.
 *
 * Memory structure: the global tree (~16 MB at scale 1) is shared and
 * read-only during mining; each thread's conditional tree and counters
 * are private and small -- which is why the paper sees only a 20-30%
 * miss increase when scaling threads.
 */

#ifndef COSIM_WORKLOADS_FIMI_HH
#define COSIM_WORKLOADS_FIMI_HH

#include <cstdint>
#include <vector>

#include "softsdv/guest.hh"
#include "workloads/data/synth.hh"
#include "workloads/fp_tree.hh"
#include "workloads/thread_sync.hh"

namespace cosim {

/** Scaled input description. */
struct FimiParams
{
    synth::TransactionParams txn;
    std::uint32_t minSupport = 300;
    std::size_t scanBlockItems = 2048;  ///< first-scan step granularity
    std::size_t buildBatch = 32;        ///< transactions per build step
    std::size_t chainNodesPerStep = 256;
    std::uint32_t condTreeCapacity = 65536; ///< per-thread bound

    static FimiParams scaled(double scale);
};

/** A mined frequent itemset (1-3 items) with its support. */
struct FrequentItemset
{
    std::uint16_t items[3];
    std::uint8_t arity;
    std::uint32_t support;
};

/** See file comment. */
class FimiWorkload : public Workload
{
  public:
    explicit FimiWorkload(
        const FimiParams& params = FimiParams::scaled(1.0));

    std::string name() const override { return "FIMI"; }
    std::string description() const override
    {
        return "FP-growth frequent itemset mining over Kosarak-like "
               "transactions";
    }

    void setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override;
    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;
    bool verify() override;

    const FimiParams& params() const { return params_; }

    /** All mined itemsets (post-run). */
    const std::vector<FrequentItemset>& results() const { return mined_; }

    /** The shared FP-tree (post-run inspection / tests). */
    const FpTree& tree() const { return tree_; }

    /** Host-side brute-force support count of a 1-3 itemset. */
    std::uint32_t referenceSupport(const std::uint16_t* items,
                                   std::size_t n) const;

  private:
    friend class FimiTask;

    enum class Phase { FirstScan, Build, Mine, Done };

    void advancePhase();

    FimiParams params_;
    unsigned nThreads_ = 1;

    /** Flattened transaction database (shared, streamed). */
    SimArray<std::uint32_t> offsets_;
    SimArray<std::uint16_t> items_;

    /** First-scan output. */
    SimArray<std::uint32_t> counts_;

    /** Frequency-descending order: rank[item]; ~0 if infrequent. */
    std::vector<std::uint32_t> rank_;
    /** Frequent items in ascending frequency (mining order). */
    std::vector<std::uint16_t> mineOrder_;

    FpTree tree_; ///< the shared global tree

    /** Per-thread private mining state. */
    struct MineBuffers
    {
        FpTree condTree;
        SimArray<std::uint32_t> condCount;
        SimArray<std::uint32_t> cond2Count;
    };
    std::vector<MineBuffers> mineBuf_;

    Phase phase_ = Phase::FirstScan;
    std::uint64_t phaseGen_ = 0;
    PhaseBarrier barrier_;

    /**
     * Mining emissions staged per thread and folded into mined_ in tid
     * order when the Mine phase's barrier releases, so the result order
     * does not depend on how DEX slices interleave the miners.
     */
    std::vector<std::vector<FrequentItemset>> minedByTid_;
    std::vector<FrequentItemset> mined_;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_FIMI_HH
