#include "workloads/svm_rfe.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "workloads/data/synth.hh"
#include "workloads/thread_sync.hh"

namespace cosim {

namespace {

constexpr double ascentRate = 0.05;
constexpr double alphaCap = 2.0;

} // namespace

SvmRfeParams
SvmRfeParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "SVM-RFE scale must be positive");
    SvmRfeParams p;
    if (scale < 1.0) {
        double genes = static_cast<double>(p.nGenes) * scale;
        p.nGenes = std::max<std::size_t>(
            1024, (static_cast<std::size_t>(genes) / 512) * 512);
        p.blockGenes = std::min<std::size_t>(p.blockGenes, p.nGenes);
        p.nInformative = std::max<std::size_t>(64, p.nGenes / 20);
        if (scale < 0.1) {
            p.nSamples = 64;
            p.pairsPerBlock = 256;
        }
    }
    return p;
}

/**
 * Thread task: cooperates through the workload's phase machine.
 * All heavy per-step work is bounded (one kernel pair, one ascent
 * sample, one weight-accumulation sample, one compaction row).
 */
class SvmRfeTask : public ThreadTask
{
  public:
    SvmRfeTask(SvmRfeWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool step(CoreContext& ctx) override;

  private:
    void kernelPair(CoreContext& ctx, std::size_t p);
    void ascentSample(CoreContext& ctx, std::size_t i);
    void weightSample(CoreContext& ctx, std::size_t i);
    void compactRow(CoreContext& ctx, std::size_t i);

    /** Reset per-phase iteration state when a new phase generation
     * starts. */
    void
    syncPhase()
    {
        if (seenGen_ != wl_.phaseGen_) {
            seenGen_ = wl_.phaseGen_;
            // Weight accumulation partitions genes per thread, so every
            // thread walks every sample; the other phases stride the
            // sample/pair space across threads.
            cursor_ = (wl_.phase_ == SvmRfeWorkload::Phase::Weights)
                ? 0
                : tid_;
            ascentIter_ = 0;
        }
    }

    SvmRfeWorkload& wl_;
    unsigned tid_;
    std::uint64_t seenGen_ = ~std::uint64_t{0};
    std::size_t cursor_ = 0;
    unsigned ascentIter_ = 0;
    BarrierWaiter waiter_;
};

SvmRfeWorkload::SvmRfeWorkload(const SvmRfeParams& params) : params_(params)
{
    fatal_if(params_.blockGenes == 0 ||
                 params_.blockGenes > params_.nGenes,
             "SVM-RFE: bad gene block size");
    fatal_if(params_.rfeRounds == 0, "SVM-RFE: need at least one round");
    fatal_if(params_.nInformative >= params_.nGenes,
             "SVM-RFE: all genes informative leaves nothing to eliminate");
}

void
SvmRfeWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;
    seed_ = cfg.seed;

    Rng rng(cfg.seed * 0xc0ffee123ull + 7);
    std::vector<float> data = synth::geneExpression(
        params_.nSamples, params_.nGenes, params_.nInformative,
        params_.shift, rng, labels_);

    x_.init(alloc, "svm.expression", params_.nSamples, params_.nGenes,
            std::move(data));

    kernel_.init(alloc, "svm.kernel", params_.nSamples, params_.nSamples);
    alpha_.init(alloc, "svm.alpha", params_.nSamples);
    weights_.init(alloc, "svm.weights", params_.nGenes);

    geneIds_.resize(params_.nGenes);
    for (std::size_t g = 0; g < params_.nGenes; ++g)
        geneIds_[g] = static_cast<std::uint32_t>(g);

    for (std::size_t i = 0; i < params_.nSamples; ++i)
        alpha_.host(i) = static_cast<float>(1.0 / params_.nSamples);

    phase_ = Phase::Kernel;
    round_ = 0;
    block_ = 0;
    activeGenes_ = params_.nGenes;
    phaseGen_ = 0;
    keepIdx_.clear();

    barrier_.init(nThreads_);
    barrier_.setOnRelease([this] { advancePhase(); });
}

std::size_t
SvmRfeWorkload::nBlocks() const
{
    return (activeGenes_ + params_.blockGenes - 1) / params_.blockGenes;
}

void
SvmRfeWorkload::advancePhase()
{
    switch (phase_) {
      case Phase::Kernel:
        ++block_;
        if (block_ >= nBlocks())
            phase_ = Phase::Ascent;
        break;

      case Phase::Ascent:
        phase_ = Phase::Weights;
        // Weight accumulation starts from zero.
        for (std::size_t g = 0; g < activeGenes_; ++g)
            weights_.host(g) = 0.0f;
        break;

      case Phase::Weights: {
        // Rank |w| and pick the surviving half (host-side bookkeeping;
        // the ranking scan itself is tiny next to the data passes).
        std::size_t keep = activeGenes_ / 2;
        std::vector<std::pair<float, std::uint32_t>> ranked(activeGenes_);
        for (std::size_t g = 0; g < activeGenes_; ++g)
            ranked[g] = {std::fabs(weights_.host(g)),
                         static_cast<std::uint32_t>(g)};
        std::nth_element(
            ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(keep),
            ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
        keepIdx_.assign(keep, 0);
        for (std::size_t k = 0; k < keep; ++k)
            keepIdx_[k] = ranked[k].second;
        std::sort(keepIdx_.begin(), keepIdx_.end());
        phase_ = Phase::Eliminate;
        break;
      }

      case Phase::Eliminate: {
        // Apply the halving: compact the weight vector alongside the
        // matrix columns, remap gene ids, and reset the kernel and dual
        // coefficients for the next round.
        for (std::size_t k = 0; k < keepIdx_.size(); ++k)
            weights_.host(k) = weights_.host(keepIdx_[k]);
        std::vector<std::uint32_t> new_ids(keepIdx_.size());
        for (std::size_t k = 0; k < keepIdx_.size(); ++k)
            new_ids[k] = geneIds_[keepIdx_[k]];
        geneIds_.swap(new_ids);
        activeGenes_ = keepIdx_.size();

        for (std::size_t i = 0; i < params_.nSamples; ++i)
            for (std::size_t j = 0; j < params_.nSamples; ++j)
                kernel_.host(i, j) = 0.0f;
        for (std::size_t i = 0; i < params_.nSamples; ++i)
            alpha_.host(i) = static_cast<float>(1.0 / params_.nSamples);

        ++round_;
        block_ = 0;
        phase_ = (round_ >= params_.rfeRounds) ? Phase::Done
                                               : Phase::Kernel;
        break;
      }

      case Phase::Done:
        break;
    }
    ++phaseGen_;
}

void
SvmRfeTask::kernelPair(CoreContext& ctx, std::size_t p)
{
    const SvmRfeParams& prm = wl_.params_;
    std::size_t n = prm.nSamples;
    std::size_t i, j;
    if (p < n) {
        i = j = p; // the diagonal is always sampled
    } else {
        i = p % n;
        j = (p * 7919 + 13 + wl_.round_) % n;
    }

    std::size_t start = wl_.block_ * prm.blockGenes;
    std::size_t len = std::min(prm.blockGenes, wl_.activeGenes_ - start);

    const float* xi = wl_.x_.readBlock(ctx, i, start, len);
    const float* xj = wl_.x_.readBlock(ctx, j, start, len);
    double dot = 0.0;
    for (std::size_t g = 0; g < len; ++g)
        dot += static_cast<double>(xi[g]) * static_cast<double>(xj[g]);
    ctx.compute(5 * len / 2); // multiply-accumulate chain per gene

    float k = wl_.kernel_.read(ctx, i, j);
    wl_.kernel_.write(ctx, i, j, k + static_cast<float>(dot));
}

void
SvmRfeTask::ascentSample(CoreContext& ctx, std::size_t i)
{
    std::size_t n = wl_.params_.nSamples;
    const float* krow = wl_.kernel_.readBlock(ctx, i, 0, n);
    double margin = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        margin += static_cast<double>(krow[j]) *
                  static_cast<double>(wl_.alpha_.host(j)) *
                  wl_.labels_[j];
    }
    ctx.load(wl_.alpha_.base(), static_cast<std::uint32_t>(n * 4));
    ctx.compute(3 * n);

    double a = wl_.alpha_.host(i);
    a += ascentRate * (1.0 - wl_.labels_[i] * margin);
    a = std::clamp(a, 0.0, alphaCap);
    wl_.alpha_.write(ctx, i, static_cast<float>(a));
}

void
SvmRfeTask::weightSample(CoreContext& ctx, std::size_t i)
{
    // This thread owns a contiguous gene range; accumulate sample i's
    // contribution to w over that range.
    std::size_t chunk =
        (wl_.activeGenes_ + wl_.nThreads_ - 1) / wl_.nThreads_;
    std::size_t lo = tid_ * chunk;
    if (lo >= wl_.activeGenes_)
        return;
    std::size_t len = std::min(chunk, wl_.activeGenes_ - lo);

    double coef = static_cast<double>(wl_.alpha_.read(ctx, i)) *
                  wl_.labels_[i];
    const float* row = wl_.x_.readBlock(ctx, i, lo, len);
    float* w = wl_.weights_.writeBlock(ctx, lo, len);
    ctx.load(wl_.weights_.addrOf(lo), static_cast<std::uint32_t>(len * 4));
    for (std::size_t g = 0; g < len; ++g)
        w[g] += static_cast<float>(coef * row[g]);
    ctx.compute(3 * len);
}

void
SvmRfeTask::compactRow(CoreContext& ctx, std::size_t i)
{
    std::size_t keep = wl_.keepIdx_.size();
    const float* row = wl_.x_.readBlock(ctx, i, 0, wl_.activeGenes_);
    // Gather the survivors to the row prefix (ascending -> in-place safe).
    std::vector<float> packed(keep);
    for (std::size_t k = 0; k < keep; ++k)
        packed[k] = row[wl_.keepIdx_[k]];
    float* dst = wl_.x_.writeBlock(ctx, i, 0, keep);
    std::copy(packed.begin(), packed.end(), dst);
    ctx.compute(2 * keep);
}

bool
SvmRfeTask::step(CoreContext& ctx)
{
    syncPhase();
    const SvmRfeParams& prm = wl_.params_;

    switch (wl_.phase_) {
      case SvmRfeWorkload::Phase::Kernel:
        if (cursor_ < prm.pairsPerBlock) {
            kernelPair(ctx, cursor_);
            cursor_ += wl_.nThreads_;
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case SvmRfeWorkload::Phase::Ascent:
        if (cursor_ < prm.nSamples) {
            ascentSample(ctx, cursor_);
            cursor_ += wl_.nThreads_;
            return true;
        }
        if (ascentIter_ + 1 < prm.ascentIters) {
            ++ascentIter_;
            cursor_ = tid_;
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case SvmRfeWorkload::Phase::Weights:
        if (cursor_ < prm.nSamples) {
            weightSample(ctx, cursor_);
            ++cursor_;
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case SvmRfeWorkload::Phase::Eliminate:
        if (cursor_ < prm.nSamples) {
            compactRow(ctx, cursor_);
            cursor_ += wl_.nThreads_;
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case SvmRfeWorkload::Phase::Done:
        return false;
    }
    return false;
}

std::unique_ptr<ThreadTask>
SvmRfeWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "SVM-RFE: thread id out of range");
    return std::make_unique<SvmRfeTask>(*this, tid);
}

double
SvmRfeWorkload::informativeSurvivalRate() const
{
    std::size_t informative_kept = 0;
    for (std::uint32_t id : geneIds_)
        if (id < params_.nInformative)
            ++informative_kept;
    return static_cast<double>(informative_kept) /
           static_cast<double>(params_.nInformative);
}

double
SvmRfeWorkload::trainingAccuracy() const
{
    // Score each sample with the surviving genes' final weights.
    std::size_t correct = 0;
    for (std::size_t i = 0; i < params_.nSamples; ++i) {
        double score = 0.0;
        for (std::size_t g = 0; g < activeGenes_; ++g) {
            score += static_cast<double>(weights_.host(g)) *
                     static_cast<double>(x_.host(i, g));
        }
        if ((score >= 0.0 ? 1 : -1) == labels_[i])
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(params_.nSamples);
}

bool
SvmRfeWorkload::verify()
{
    if (phase_ != Phase::Done) {
        warn("SVM-RFE: run ended before the RFE rounds completed");
        return false;
    }
    double survived = informativeSurvivalRate();
    double chance =
        static_cast<double>(activeGenes_) /
        static_cast<double>(params_.nGenes);
    double accuracy = trainingAccuracy();
    return survived > 1.5 * chance && accuracy > 0.75;
}

} // namespace cosim
