#include "workloads/fimi.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace cosim {

FimiParams
FimiParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "FIMI scale must be positive");
    FimiParams p;
    p.txn.nTransactions = 140000;
    p.txn.nItems = 4000;
    p.txn.avgLength = 10;
    p.txn.maxLength = 24;
    p.txn.zipfS = 1.05;
    p.minSupport = 300;
    if (scale < 1.0) {
        p.txn.nTransactions = std::max<std::size_t>(
            2000, static_cast<std::size_t>(140000 * scale));
        p.minSupport = std::max<std::uint32_t>(
            8, static_cast<std::uint32_t>(300 * scale));
        if (scale < 0.1) {
            p.txn.nItems = 512;
            p.condTreeCapacity = 8192;
        }
    }
    return p;
}

/** FP-growth worker: scan, build (thread 0), then mine its items. */
class FimiTask : public ThreadTask
{
  public:
    FimiTask(FimiWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool step(CoreContext& ctx) override;

  private:
    void scanBlock(CoreContext& ctx, std::size_t block);
    void buildBatch(CoreContext& ctx);
    bool mineStep(CoreContext& ctx);
    void finishItem();

    void
    syncPhase()
    {
        if (seenGen_ != wl_.phaseGen_) {
            seenGen_ = wl_.phaseGen_;
            cursor_ = tid_;
            mineStage_ = 0;
        }
    }

    FimiWorkload& wl_;
    unsigned tid_;
    std::uint64_t seenGen_ = ~std::uint64_t{0};
    std::size_t cursor_ = 0;
    BarrierWaiter waiter_;

    // Build cursor (thread 0 only).
    std::size_t buildTxn_ = 0;

    // Mining sub-state for the current item.
    unsigned mineStage_ = 0;
    std::uint32_t chainNode_ = FpTree::nil;
    std::vector<std::uint16_t> condItems_; ///< J, ascending rank
    std::vector<std::uint16_t> touched_;
    std::vector<std::uint16_t> touchedCond_;
    std::size_t mineJ_ = 0;
    std::uint32_t condChain_ = FpTree::nil;
    bool condOverflow_ = false;
};

FimiWorkload::FimiWorkload(const FimiParams& params) : params_(params)
{
    fatal_if(params_.minSupport == 0, "FIMI: minSupport must be nonzero");
    fatal_if(params_.txn.nItems == 0, "FIMI: empty item universe");
}

void
FimiWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;

    Rng rng(cfg.seed * 0xf131f131ull + 17);
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint16_t> items;
    synth::transactions(params_.txn, rng, offsets, items);

    offsets_.init(alloc, "fimi.offsets", offsets.size());
    offsets_.hostData() = std::move(offsets);
    items_.init(alloc, "fimi.items", items.size());
    items_.hostData() = std::move(items);

    counts_.init(alloc, "fimi.item-counts", params_.txn.nItems);

    // Upper bound: every item instance could create a node.
    std::uint32_t cap =
        static_cast<std::uint32_t>(items_.size()) + 2;
    tree_.init(alloc, "fimi.tree", cap, params_.txn.nItems);

    mineBuf_.resize(nThreads_);
    for (unsigned t = 0; t < nThreads_; ++t) {
        std::string prefix = "fimi.t" + std::to_string(t);
        mineBuf_[t].condTree.init(alloc, prefix + ".cond",
                                  params_.condTreeCapacity,
                                  params_.txn.nItems);
        mineBuf_[t].condCount.init(alloc, prefix + ".condCount",
                                   params_.txn.nItems);
        mineBuf_[t].cond2Count.init(alloc, prefix + ".cond2Count",
                                    params_.txn.nItems);
    }

    rank_.assign(params_.txn.nItems, ~std::uint32_t{0});
    mineOrder_.clear();
    mined_.clear();
    minedByTid_.assign(nThreads_, {});

    phase_ = Phase::FirstScan;
    phaseGen_ = 0;
    barrier_.init(nThreads_);
    barrier_.setOnRelease([this] { advancePhase(); });
}

void
FimiWorkload::advancePhase()
{
    switch (phase_) {
      case Phase::FirstScan: {
        // Rank items by descending frequency; frequent ones get ranks.
        std::vector<std::uint16_t> freq;
        for (std::size_t i = 0; i < params_.txn.nItems; ++i) {
            if (counts_.host(i) >= params_.minSupport)
                freq.push_back(static_cast<std::uint16_t>(i));
        }
        std::sort(freq.begin(), freq.end(),
                  [this](std::uint16_t a, std::uint16_t b) {
                      if (counts_.host(a) != counts_.host(b))
                          return counts_.host(a) > counts_.host(b);
                      return a < b;
                  });
        for (std::size_t r = 0; r < freq.size(); ++r)
            rank_[freq[r]] = static_cast<std::uint32_t>(r);
        // Mining proceeds least-frequent first.
        mineOrder_.assign(freq.rbegin(), freq.rend());
        phase_ = Phase::Build;
        break;
      }
      case Phase::Build:
        phase_ = Phase::Mine;
        break;
      case Phase::Mine:
      case Phase::Done:
        // Fold the per-thread mining emissions in tid order; runs in
        // the barrier's release callback, after every miner arrived.
        for (std::vector<FrequentItemset>& staged : minedByTid_) {
            mined_.insert(mined_.end(), staged.begin(), staged.end());
            staged.clear();
        }
        phase_ = Phase::Done;
        break;
    }
    ++phaseGen_;
}

void
FimiTask::scanBlock(CoreContext& ctx, std::size_t block)
{
    const FimiParams& p = wl_.params_;
    std::size_t lo = block * p.scanBlockItems;
    std::size_t n =
        std::min(p.scanBlockItems, wl_.items_.size() - lo);

    const std::uint16_t* items = wl_.items_.readBlock(ctx, lo, n);
    for (std::size_t k = 0; k < n; ++k)
        ++wl_.counts_.host(items[k]);
    // Each item is a read-modify-write of its counter.
    ctx.load(wl_.counts_.base(),
             static_cast<std::uint32_t>(wl_.counts_.size() * 4));
    ctx.store(wl_.counts_.base(),
              static_cast<std::uint32_t>(wl_.counts_.size() * 4));
    ctx.compute(2 * n);
}

void
FimiTask::buildBatch(CoreContext& ctx)
{
    const FimiParams& p = wl_.params_;
    std::size_t end =
        std::min(buildTxn_ + p.buildBatch, p.txn.nTransactions);

    std::vector<std::uint16_t> path;
    for (; buildTxn_ < end; ++buildTxn_) {
        std::uint32_t lo = wl_.offsets_.read(ctx, buildTxn_);
        std::uint32_t hi = wl_.offsets_.host(buildTxn_ + 1);
        if (hi == lo)
            continue;
        const std::uint16_t* items =
            wl_.items_.readBlock(ctx, lo, hi - lo);

        path.clear();
        for (std::uint32_t k = 0; k < hi - lo; ++k) {
            if (wl_.rank_[items[k]] != ~std::uint32_t{0})
                path.push_back(items[k]);
        }
        std::sort(path.begin(), path.end(),
                  [this](std::uint16_t a, std::uint16_t b) {
                      return wl_.rank_[a] < wl_.rank_[b];
                  });
        ctx.compute(8 * path.size() + 8);
        if (!path.empty()) {
            bool ok = wl_.tree_.insert(ctx, path.data(), path.size(), 1);
            panic_if(!ok, "FIMI: global tree pool exhausted");
        }
    }
}

bool
FimiTask::mineStep(CoreContext& ctx)
{
    const FimiParams& p = wl_.params_;
    auto& buf = wl_.mineBuf_[tid_];

    if (cursor_ >= wl_.mineOrder_.size())
        return false;
    std::uint16_t item = wl_.mineOrder_[cursor_];

    switch (mineStage_) {
      case 0: {
        // Start this item: clear only the conditional counters the
        // previous item touched (FP-growth's standard trick -- a full
        // memset per mined item would dominate the runtime), then find
        // the head of this item's node-link chain.
        for (std::uint16_t t : touchedCond_)
            buf.condCount.write(ctx, t, 0);
        touchedCond_.clear();
        chainNode_ = wl_.tree_.headerLink(ctx, item);
        mineStage_ = 1;
        return true;
      }

      case 1: {
        // First chain walk: accumulate the conditional pattern base.
        std::size_t budget = p.chainNodesPerStep;
        std::uint64_t visited = 0;
        while (chainNode_ != FpTree::nil && budget-- > 0) {
            FpNode node = wl_.tree_.readNode(ctx, chainNode_);
            std::uint32_t anc = node.parent;
            while (anc != FpTree::nil && anc != 0) {
                FpNode a = wl_.tree_.readNode(ctx, anc);
                std::uint32_t cc = buf.condCount.read(ctx, a.item);
                if (cc == 0)
                    touchedCond_.push_back(a.item);
                buf.condCount.write(ctx, a.item, cc + node.count);
                anc = a.parent;
                ++visited;
            }
            chainNode_ = node.nodeLink;
        }
        // Pointer arithmetic, compares and branches per visited node.
        ctx.compute(6 * visited + 8);
        if (chainNode_ != FpTree::nil)
            return true;

        // Conditional-frequent items: emit pairs, set up the triple
        // mining pass. Only touched counters can be frequent.
        condItems_.clear();
        std::sort(touchedCond_.begin(), touchedCond_.end());
        for (std::uint16_t j : touchedCond_) {
            std::uint32_t support = buf.condCount.host(j);
            if (support >= p.minSupport) {
                condItems_.push_back(static_cast<std::uint16_t>(j));
                FrequentItemset fs;
                fs.items[0] = item;
                fs.items[1] = static_cast<std::uint16_t>(j);
                fs.items[2] = 0;
                fs.arity = 2;
                fs.support = support;
                wl_.minedByTid_[tid_].push_back(fs);
            }
        }
        ctx.compute(2 * touchedCond_.size() + 8);
        std::sort(condItems_.begin(), condItems_.end(),
                  [this](std::uint16_t a, std::uint16_t b) {
                      return wl_.rank_[a] < wl_.rank_[b];
                  });

        if (condItems_.empty()) {
            finishItem();
            return true;
        }
        buf.condTree.reset(ctx);
        condOverflow_ = false;
        chainNode_ = wl_.tree_.headerLink(ctx, item);
        mineStage_ = 2;
        return true;
      }

      case 2: {
        // Second chain walk: build the private conditional tree from
        // the paths, filtered to the conditional-frequent items.
        std::size_t budget = p.chainNodesPerStep;
        std::vector<std::uint16_t> path;
        std::uint64_t walked = 0;
        while (chainNode_ != FpTree::nil && budget-- > 0) {
            FpNode node = wl_.tree_.readNode(ctx, chainNode_);
            path.clear();
            std::uint32_t anc = node.parent;
            while (anc != FpTree::nil && anc != 0) {
                FpNode a = wl_.tree_.readNode(ctx, anc);
                ++walked;
                if (wl_.rank_[a.item] != ~std::uint32_t{0} &&
                    buf.condCount.host(a.item) >= p.minSupport) {
                    path.push_back(a.item);
                }
                anc = a.parent;
            }
            // The upward walk yields ascending frequency; inserts want
            // descending.
            std::reverse(path.begin(), path.end());
            ctx.compute(4 * walked + 7 * path.size() + 4);
            walked = 0;
            if (!path.empty()) {
                if (!buf.condTree.insert(ctx, path.data(), path.size(),
                                         node.count)) {
                    condOverflow_ = true;
                }
            }
            chainNode_ = node.nodeLink;
        }
        if (chainNode_ != FpTree::nil)
            return true;

        if (condOverflow_) {
            // The memory bound was hit; triple supports would be
            // inexact, so skip them for this item.
            finishItem();
            return true;
        }
        mineJ_ = 0;
        mineStage_ = 3;
        return true;
      }

      case 3: {
        // Mine the conditional tree: one conditional item per step.
        if (mineJ_ >= condItems_.size()) {
            finishItem();
            return true;
        }
        // Ascending frequency within the conditional tree.
        std::uint16_t j =
            condItems_[condItems_.size() - 1 - mineJ_];
        ++mineJ_;

        // Clear only the counters touched last time.
        for (std::uint16_t t : touched_)
            buf.cond2Count.write(ctx, t, 0);
        touched_.clear();

        std::uint32_t node_idx = buf.condTree.headerLink(ctx, j);
        std::uint64_t visited = 0;
        while (node_idx != FpTree::nil) {
            FpNode node = buf.condTree.readNode(ctx, node_idx);
            std::uint32_t anc = node.parent;
            while (anc != FpTree::nil && anc != 0) {
                FpNode a = buf.condTree.readNode(ctx, anc);
                std::uint32_t cc = buf.cond2Count.read(ctx, a.item);
                if (cc == 0)
                    touched_.push_back(a.item);
                buf.cond2Count.write(ctx, a.item, cc + node.count);
                anc = a.parent;
                ++visited;
            }
            node_idx = node.nodeLink;
        }
        ctx.compute(6 * visited + 8);

        std::uint16_t item_i = wl_.mineOrder_[cursor_];
        for (std::uint16_t k : touched_) {
            std::uint32_t support = buf.cond2Count.host(k);
            if (support >= p.minSupport) {
                FrequentItemset fs;
                fs.items[0] = item_i;
                fs.items[1] = j;
                fs.items[2] = k;
                fs.arity = 3;
                fs.support = support;
                wl_.minedByTid_[tid_].push_back(fs);
            }
        }
        ctx.compute(touched_.size() + 8);
        return true;
      }

      default:
        panic("FIMI: bad mining stage");
    }
}

void
FimiTask::finishItem()
{
    cursor_ += wl_.nThreads_;
    mineStage_ = 0;
    chainNode_ = FpTree::nil;
}

bool
FimiTask::step(CoreContext& ctx)
{
    syncPhase();
    const FimiParams& p = wl_.params_;

    switch (wl_.phase_) {
      case FimiWorkload::Phase::FirstScan: {
        std::size_t blocks = (wl_.items_.size() + p.scanBlockItems - 1) /
                             p.scanBlockItems;
        if (cursor_ < blocks) {
            scanBlock(ctx, cursor_);
            cursor_ += wl_.nThreads_;
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;
      }

      case FimiWorkload::Phase::Build:
        // The reference FP-growth builds the global tree serially.
        if (tid_ == 0 && buildTxn_ < p.txn.nTransactions) {
            buildBatch(ctx);
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case FimiWorkload::Phase::Mine:
        if (mineStep(ctx))
            return true;
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case FimiWorkload::Phase::Done:
        return false;
    }
    return false;
}

std::unique_ptr<ThreadTask>
FimiWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "FIMI: thread id out of range");
    return std::make_unique<FimiTask>(*this, tid);
}

std::uint32_t
FimiWorkload::referenceSupport(const std::uint16_t* items,
                               std::size_t n) const
{
    std::uint32_t support = 0;
    const auto& offs = offsets_.hostData();
    const auto& data = items_.hostData();
    for (std::size_t t = 0; t + 1 < offs.size(); ++t) {
        std::size_t found = 0;
        for (std::uint32_t k = offs[t]; k < offs[t + 1]; ++k) {
            for (std::size_t m = 0; m < n; ++m) {
                if (data[k] == items[m]) {
                    ++found;
                    break;
                }
            }
        }
        if (found == n)
            ++support;
    }
    return support;
}

bool
FimiWorkload::verify()
{
    if (mineOrder_.empty()) {
        warn("FIMI: no frequent items at this support threshold");
        return false;
    }

    // (1) Tree consistency: an item's node-link chain carries exactly
    // its first-scan count.
    for (std::size_t s = 0; s < std::min<std::size_t>(16,
                                                      mineOrder_.size());
         ++s) {
        std::uint16_t item =
            mineOrder_[s * 131 % mineOrder_.size()];
        if (tree_.hostChainSupport(item) != counts_.host(item))
            return false;
    }

    // (2) All mined supports respect the threshold and monotonicity.
    for (const FrequentItemset& fs : mined_) {
        if (fs.support < params_.minSupport)
            return false;
        for (std::uint8_t k = 0; k < fs.arity; ++k) {
            if (fs.support > counts_.host(fs.items[k]))
                return false;
        }
    }

    // (3) Spot-check mined supports against a brute-force recount.
    std::size_t checks = std::min<std::size_t>(8, mined_.size());
    for (std::size_t s = 0; s < checks; ++s) {
        const FrequentItemset& fs =
            mined_[s * 2654435761u % mined_.size()];
        if (referenceSupport(fs.items, fs.arity) != fs.support)
            return false;
    }
    return true;
}

} // namespace cosim
