#include "workloads/mds.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace cosim {

MdsParams
MdsParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "MDS scale must be positive");
    MdsParams p;
    if (scale < 1.0) {
        double nnz = static_cast<double>(p.nnzPerRow) * scale;
        p.nnzPerRow = std::max<std::size_t>(
            64, (static_cast<std::size_t>(nnz) / 64) * 64);
        if (scale < 0.1)
            p.nSentences = 1024;
    }
    return p;
}

/**
 * Power-iteration worker; thread 0 also runs the MMR selection once the
 * rank vector converged.
 */
class MdsTask : public ThreadTask
{
  public:
    MdsTask(MdsWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool step(CoreContext& ctx) override;

  private:
    void powerRows(CoreContext& ctx, std::size_t count);
    void mmrRound(CoreContext& ctx);

    /**
     * Stream the simulated packed (column, weight) pairs of the row
     * whose entries start at @p lo: the caches see the whole span, and
     * the core retires one load per entry.
     */
    void
    loadRow(CoreContext& ctx, std::uint32_t lo, std::size_t nnz) const
    {
        ctx.load(wl_.matrixBase_ + std::uint64_t{lo} * 8,
                 static_cast<std::uint32_t>(nnz * 8), nnz);
    }

    void
    syncPhase()
    {
        if (seenGen_ != wl_.phaseGen_) {
            seenGen_ = wl_.phaseGen_;
            cursor_ = tid_;
        }
    }

    MdsWorkload& wl_;
    unsigned tid_;
    std::uint64_t seenGen_ = ~std::uint64_t{0};
    std::size_t cursor_ = 0;
    BarrierWaiter waiter_;

    std::vector<float> penalty_; ///< MMR redundancy penalty (thread 0)
};

MdsWorkload::MdsWorkload(const MdsParams& params) : params_(params)
{
    fatal_if(params_.powerIters == 0, "MDS: need at least one iteration");
    fatal_if(params_.summaryLength == 0, "MDS: empty summary");
    fatal_if(params_.summaryLength > params_.nSentences,
             "MDS: summary longer than the corpus");
}

void
MdsWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;

    // The packed matrix is simulated only (see the file comment), and
    // allocated first so every later region keeps its base.
    matrixBase_ = alloc.allocate("mds.matrix", params_.matrixBytes(), 64);
    Rng rng(cfg.seed * 0x3d5a11ull + 23);
    matrix_ = SimilarityRows(params_.nSentences, params_.nnzPerRow, rng);

    rowPtr_.init(alloc, "mds.rowptr", params_.nSentences + 1);
    for (std::size_t r = 0; r <= params_.nSentences; ++r)
        rowPtr_.host(r) = static_cast<std::uint32_t>(r * params_.nnzPerRow);

    rank_.init(alloc, "mds.rank", params_.nSentences);
    rankNext_.init(alloc, "mds.rank-next", params_.nSentences);
    queryAffinity_.init(alloc, "mds.query-affinity", params_.nSentences);

    float uniform = 1.0f / static_cast<float>(params_.nSentences);
    for (std::size_t i = 0; i < params_.nSentences; ++i) {
        rank_.host(i) = uniform;
        queryAffinity_.host(i) =
            static_cast<float>(0.1 + 0.9 * rng.nextDouble());
    }

    phase_ = Phase::Power;
    iter_ = 0;
    phaseGen_ = 0;
    summary_.clear();

    barrier_.init(nThreads_);
    barrier_.setOnRelease([this] { advancePhase(); });
}

SimilarityRows::SimilarityRows(std::size_t n_rows, std::size_t nnz_per_row,
                               Rng& rng)
    : nnzPerRow_(nnz_per_row)
{
    fatal_if(n_rows == 0 || nnz_per_row == 0, "empty similarity matrix");

    // One pass, a row at a time: each row's weights are drawn into one
    // reused buffer, normalized there and appended whole, so beside the
    // weights set-up holds one row.
    offsets_.reserve(n_rows);
    weights_.reserve(n_rows * nnz_per_row);
    std::vector<float> row(nnz_per_row);
    for (std::size_t r = 0; r < n_rows; ++r) {
        // Ascending columns spread evenly across the corpus (with a
        // per-row rotation): text similarity links a sentence to
        // sentences everywhere in the document set. Exactly nnz_per_row
        // entries per row keeps the compressed layout constant-stride,
        // the access property Section 4.3 calls out for MDS.
        offsets_.push_back(static_cast<std::uint32_t>(
            (r * 2654435761ull + rng.nextBounded(97)) % n_rows));
        double sum = 0.0;
        for (float& w : row) {
            w = static_cast<float>(0.05 + 0.95 * rng.nextDouble());
            sum += w;
        }
        // Row-normalize so power iteration is stable (stochastic-ish
        // matrix). Every weight is at least 0.05, so sum > 0. Each
        // weight is float(w / sum): a multiply by 1 / sum would round
        // differently.
        for (float& w : row)
            w = static_cast<float>(w / sum);
        weights_.insert(weights_.end(), row.begin(), row.end());
    }
}

void
MdsWorkload::advancePhase()
{
    switch (phase_) {
      case Phase::Power:
        // The freshly computed vector becomes the current one.
        rank_.hostData().swap(rankNext_.hostData());
        ++iter_;
        if (iter_ >= params_.powerIters)
            phase_ = Phase::Mmr;
        break;
      case Phase::Mmr:
        phase_ = Phase::Done;
        break;
      case Phase::Done:
        break;
    }
    ++phaseGen_;
}

void
MdsTask::powerRows(CoreContext& ctx, std::size_t count)
{
    const MdsParams& p = wl_.params_;
    for (std::size_t r = 0; r < count && cursor_ < p.nSentences; ++r) {
        std::size_t row = cursor_;
        std::uint32_t lo = wl_.rowPtr_.read(ctx, row);
        std::uint32_t hi = wl_.rowPtr_.host(row + 1);
        std::size_t nnz = hi - lo;

        // Stream the packed (column, weight) pairs of this row and
        // gather the rank entries they reference; the columns sweep the
        // corpus in ascending order, so the gather is one pass over the
        // rank vector.
        loadRow(ctx, lo, nnz);
        // The gather retires one load per entry; its cache footprint is
        // one ascending sweep of the rank vector (or less, for sparse
        // rows).
        std::uint64_t gather_bytes =
            std::min<std::uint64_t>(wl_.rank_.size() * 4, nnz * 8);
        ctx.load(wl_.rank_.base(),
                 static_cast<std::uint32_t>(gather_bytes), nnz);

        double acc = 0.0;
        wl_.matrix_.forEachEntry(row, [&](std::uint32_t col, float w) {
            acc += static_cast<double>(w) * wl_.rank_.host(col);
        });
        ctx.compute(2 * nnz);

        float out = static_cast<float>(
            (1.0 - p.damping) / static_cast<double>(p.nSentences) +
            p.damping * acc);
        wl_.rankNext_.write(ctx, row, out);

        cursor_ += wl_.nThreads_;
    }
}

void
MdsTask::mmrRound(CoreContext& ctx)
{
    const MdsParams& p = wl_.params_;
    std::size_t n = p.nSentences;

    if (penalty_.empty())
        penalty_.assign(n, 0.0f);

    // Score every candidate: relevance (query affinity x rank) traded
    // against redundancy with the already selected sentences.
    ctx.load(wl_.rank_.base(), static_cast<std::uint32_t>(n * 4));
    ctx.load(wl_.queryAffinity_.base(), static_cast<std::uint32_t>(n * 4));
    double best = -1e300;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
        bool taken = std::find(wl_.summary_.begin(), wl_.summary_.end(),
                               static_cast<std::uint32_t>(i)) !=
                     wl_.summary_.end();
        if (taken)
            continue;
        double score =
            p.mmrLambda * static_cast<double>(wl_.queryAffinity_.host(i)) *
                wl_.rank_.host(i) -
            (1.0 - p.mmrLambda) * static_cast<double>(penalty_[i]);
        if (score > best) {
            best = score;
            best_i = i;
        }
    }
    ctx.compute(n / 2);

    wl_.summary_.push_back(static_cast<std::uint32_t>(best_i));

    // Update redundancy penalties with the chosen sentence's similarity
    // row (stream it once).
    std::uint32_t lo = wl_.rowPtr_.read(ctx, best_i);
    std::uint32_t hi = wl_.rowPtr_.host(best_i + 1);
    loadRow(ctx, lo, hi - lo);
    wl_.matrix_.forEachEntry(best_i, [&](std::uint32_t col, float w) {
        penalty_[col] += w;
    });
    ctx.compute((hi - lo) / 4);
}

bool
MdsTask::step(CoreContext& ctx)
{
    syncPhase();
    const MdsParams& p = wl_.params_;

    switch (wl_.phase_) {
      case MdsWorkload::Phase::Power:
        if (cursor_ < p.nSentences) {
            powerRows(ctx, p.rowsPerStep);
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case MdsWorkload::Phase::Mmr:
        if (tid_ == 0 && wl_.summary_.size() < p.summaryLength) {
            mmrRound(ctx);
            return true;
        }
        waiter_.wait(wl_.barrier_, ctx);
        return true;

      case MdsWorkload::Phase::Done:
        return false;
    }
    return false;
}

std::unique_ptr<ThreadTask>
MdsWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "MDS: thread id out of range");
    return std::make_unique<MdsTask>(*this, tid);
}

const std::vector<float>
MdsWorkload::rankVector() const
{
    return rank_.hostData();
}

std::vector<float>
MdsWorkload::referenceRank() const
{
    std::size_t n = params_.nSentences;
    std::vector<float> r(n, 1.0f / static_cast<float>(n));
    std::vector<float> next(n, 0.0f);

    for (unsigned it = 0; it < params_.powerIters; ++it) {
        for (std::size_t row = 0; row < n; ++row) {
            double acc = 0.0;
            matrix_.forEachEntry(row, [&](std::uint32_t col, float w) {
                acc += static_cast<double>(w) * r[col];
            });
            next[row] = static_cast<float>(
                (1.0 - params_.damping) / static_cast<double>(n) +
                params_.damping * acc);
        }
        r.swap(next);
    }
    return r;
}

bool
MdsWorkload::verify()
{
    if (summary_.size() != params_.summaryLength)
        return false;

    // Summary sentences must be distinct.
    std::vector<std::uint32_t> sorted = summary_;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        return false;

    // The parallel rank vector must match the host reference.
    std::vector<float> ref = referenceRank();
    double max_err = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        max_err = std::max(
            max_err, std::fabs(static_cast<double>(ref[i]) -
                               static_cast<double>(rank_.host(i))));
    }
    if (max_err > 1e-6)
        return false;

    // The first selected sentence maximizes relevance (no penalty yet).
    double best = -1e300;
    std::uint32_t best_i = 0;
    for (std::size_t i = 0; i < params_.nSentences; ++i) {
        double score = params_.mmrLambda *
                       static_cast<double>(queryAffinity_.host(i)) *
                       rank_.host(i);
        if (score > best) {
            best = score;
            best_i = static_cast<std::uint32_t>(i);
        }
    }
    return summary_[0] == best_i;
}

} // namespace cosim
