#include "workloads/rsearch.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "base/random.hh"
#include "workloads/data/synth.hh"

namespace cosim {

namespace {

constexpr float negInf = -1e30f;
constexpr float stackBonus = 2.0f;
constexpr std::size_t minLoop = 4; ///< smallest span that may pair

/** RIBOSUM-flavoured pair scores: GC=3, AU=2, GU=1, else no pair. */
inline float
pairScore(std::uint8_t a, std::uint8_t b)
{
    // Encoding: A=0, C=1, G=2, U=3.
    if (a + b == 3)
        return (a == 1 || a == 2) ? 3.0f : 2.0f;
    if (a + b == 5)
        return 1.0f; // GU wobble
    return 0.0f;
}

/**
 * One d-level of the banded folding DP over row-major-by-d matrices.
 * Shared by the host reference and the instrumented task (which charges
 * the corresponding accesses around it).
 *
 * Three matrices: V (span folds with (i, i+d) paired), W (best fold of
 * the span, with bifurcation), and H (contiguous stacked helix ending at
 * the pair (i, i+d)). W drives the grammar; H is the homology statistic
 * -- on random sequence W grows with span length, while a long stacked
 * helix is exactly what the planted (and biological) signal looks like.
 */
void
foldLevel(const std::uint8_t* s, std::size_t n, std::size_t d,
          std::size_t max_split, const float* w_prev, const float* w_prev2,
          const float* v_prev2, const float* h_prev2,
          const float* const* w_low, float* v_out, float* w_out,
          float* h_out, float& best)
{
    for (std::size_t i = 0; i + d < n; ++i) {
        float v = negInf;
        float h = 0.0f;
        float pair = pairScore(s[i], s[i + d]);
        if (pair > 0.0f && d >= minLoop) {
            float inner = std::max(w_prev2[i + 1],
                                   v_prev2[i + 1] + stackBonus);
            v = pair + inner;
            h = pair;
            if (h_prev2[i + 1] > 0.0f)
                h += h_prev2[i + 1] + stackBonus;
        }
        float w = std::max({v, w_prev[i], w_prev[i + 1]});
        std::size_t splits = std::min(max_split, d - 1);
        for (std::size_t k = 0; k < splits; ++k)
            w = std::max(w, w_low[k][i] + w_low[d - k - 1][i + k + 1]);
        v_out[i] = v;
        w_out[i] = w;
        h_out[i] = h;
        if (h > best)
            best = h;
    }
}

} // namespace

RsearchParams
RsearchParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "RSEARCH scale must be positive");
    RsearchParams p;
    p.window = 512;
    p.band = 64;
    p.maxSplit = 8;
    p.stemLen = 16;
    p.scoreThreshold = 58.0;
    if (scale < 1.0) {
        double db = static_cast<double>(p.dbLength) * scale;
        p.dbLength = std::max<std::size_t>(
            64 * 1024, static_cast<std::size_t>(db));
        if (scale < 0.1) {
            p.window = 192;
            p.band = 48;
            p.windowsPerThread = 2;
            p.hairpinSpacing = 2048;
        }
    }
    return p;
}

/** Scans this thread's share of database windows with the folding DP. */
class RsearchTask : public ThreadTask
{
  public:
    RsearchTask(RsearchWorkload& wl, unsigned tid) : wl_(wl), tid_(tid)
    {
        std::size_t total = wl_.totalWindows();
        std::size_t per =
            (total + wl_.nThreads_ - 1) / wl_.nThreads_;
        first_ = std::min<std::size_t>(tid * per, total);
        last_ = std::min<std::size_t>(first_ + per, total);
        cur_ = first_;
    }

    bool
    step(CoreContext& ctx) override
    {
        if (cur_ >= last_)
            return false;

        const RsearchParams& p = wl_.params_;
        auto& buf = wl_.buffers_[tid_];

        if (d_ == 0) {
            loadWindow(ctx);
            d_ = minLoop;
            return true;
        }

        // One d-level of the DP.
        std::size_t n = p.window;
        const std::uint8_t* s = buf.seq.hostData().data();

        // Instrumented reads: the three neighbouring rows plus the split
        // rows this level consults.
        buf.w.readBlock(ctx, (d_ - 1) * n, n);
        buf.w.readBlock(ctx, (d_ - 2) * n, n);
        buf.v.readBlock(ctx, (d_ - 2) * n, n);
        buf.h.readBlock(ctx, (d_ - 2) * n, n);
        std::size_t splits = std::min(p.maxSplit, d_ - 1);
        for (std::size_t k = 0; k < splits; ++k) {
            buf.w.readBlock(ctx, k * n, n);
            buf.w.readBlock(ctx, (d_ - k - 1) * n, n);
        }
        buf.seq.readBlock(ctx, 0, n);

        const float* wd = buf.w.hostData().data();
        std::vector<const float*> w_low(p.band);
        for (std::size_t k = 0; k < p.band; ++k)
            w_low[k] = wd + k * n;

        float* v_out = buf.v.writeBlock(ctx, d_ * n, n);
        float* w_out = buf.w.writeBlock(ctx, d_ * n, n);
        float* h_out = buf.h.writeBlock(ctx, d_ * n, n);
        foldLevel(s, n, d_, p.maxSplit, wd + (d_ - 1) * n,
                  wd + (d_ - 2) * n,
                  buf.v.hostData().data() + (d_ - 2) * n,
                  buf.h.hostData().data() + (d_ - 2) * n, w_low.data(),
                  v_out, w_out, h_out, best_);
        // The split search and max chains dominate: ~4 ALU ops
        // per consulted DP entry.
        ctx.compute(n * 33);

        ++d_;
        if (d_ < p.band)
            return true;

        // Window finished.
        wl_.recordScore(cur_, best_);
        ++cur_;
        d_ = 0;
        best_ = 0.0f;
        return cur_ < last_;
    }

  private:
    void
    loadWindow(CoreContext& ctx)
    {
        const RsearchParams& p = wl_.params_;
        std::size_t start = wl_.windowStart(cur_);
        const std::uint8_t* src = wl_.db_.readBlock(ctx, start, p.window);
        std::uint8_t* dst = buf().seq.writeBlock(ctx, 0, p.window);
        std::copy(src, src + p.window, dst);

        // Base rows: spans too short to pair.
        for (std::size_t d = 0; d < minLoop; ++d) {
            float* v = buf().v.writeBlock(ctx, d * p.window, p.window);
            float* w = buf().w.writeBlock(ctx, d * p.window, p.window);
            float* h = buf().h.writeBlock(ctx, d * p.window, p.window);
            std::fill_n(v, p.window, negInf);
            std::fill_n(w, p.window, 0.0f);
            std::fill_n(h, p.window, 0.0f);
        }
        ctx.compute(p.window / 4);
        best_ = 0.0f;
    }

    RsearchWorkload::ThreadBuffers& buf() { return wl_.buffers_[tid_]; }

    RsearchWorkload& wl_;
    unsigned tid_;
    std::size_t first_ = 0;
    std::size_t last_ = 0;
    std::size_t cur_ = 0;
    std::size_t d_ = 0;
    float best_ = 0.0f;
};

RsearchWorkload::RsearchWorkload(const RsearchParams& params)
    : params_(params)
{
    fatal_if(params_.band < minLoop + 2, "RSEARCH: band too narrow");
    fatal_if(params_.band > params_.window,
             "RSEARCH: band wider than the window");
    fatal_if(params_.window % 8 != 0, "RSEARCH: window must be 8-aligned");
}

std::size_t
RsearchWorkload::totalWindows() const
{
    // The paper's run scans a fixed database regardless of thread count;
    // we fix the window count at the 8-thread (SCMP) work size.
    return 8 * params_.windowsPerThread;
}

std::size_t
RsearchWorkload::windowStart(std::size_t w) const
{
    // Even windows centre a planted hairpin; odd windows sit between
    // hairpins (background). Both stay inside the database.
    std::size_t hp = w / 2;
    panic_if(hp >= planted_.size(), "window %zu beyond planted hairpins",
             w);
    std::size_t hp_len = 2 * params_.stemLen + 4;
    std::size_t centre = planted_[hp] + hp_len / 2;
    if (w % 2 == 1)
        centre += params_.hairpinSpacing / 2;
    std::size_t start =
        centre >= params_.window / 2 ? centre - params_.window / 2 : 0;
    return std::min(start, params_.dbLength - params_.window);
}

void
RsearchWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;

    Rng rng(cfg.seed * 0xdbdbdbull + 3);
    planted_.clear();
    std::vector<std::uint8_t> db = synth::nucleotideDatabase(
        params_.dbLength, params_.stemLen, params_.hairpinSpacing, rng,
        planted_);
    fatal_if(planted_.size() < (totalWindows() + 1) / 2,
             "RSEARCH: database too small for the scanned windows");

    db_.init(alloc, "rsearch.database", std::move(db));

    buffers_.resize(nThreads_);
    for (unsigned t = 0; t < nThreads_; ++t) {
        std::string prefix = "rsearch.t" + std::to_string(t);
        buffers_[t].v.init(alloc, prefix + ".V",
                           params_.band * params_.window);
        buffers_[t].w.init(alloc, prefix + ".W",
                           params_.band * params_.window);
        buffers_[t].h.init(alloc, prefix + ".H",
                           params_.band * params_.window);
        buffers_[t].seq.init(alloc, prefix + ".seq", params_.window);
    }

    windowScores_.assign(totalWindows(), -1.0);
}

void
RsearchWorkload::recordScore(std::size_t window, double score)
{
    // One disjoint slot per window (windows are partitioned across
    // tasks), so concurrent tasks never write the same element.
    windowScores_[window] = score;
}

std::vector<std::size_t>
RsearchWorkload::hits() const
{
    std::vector<std::size_t> hits;
    for (std::size_t w = 0; w < windowScores_.size(); ++w) {
        if (windowScores_[w] >= params_.scoreThreshold)
            hits.push_back(w);
    }
    return hits;
}

double
RsearchWorkload::referenceFoldScore(std::size_t start, std::size_t len) const
{
    const std::uint8_t* s = db_.hostData().data() + start;
    std::size_t n = len;
    std::size_t b = params_.band;

    std::vector<float> v(b * n, negInf);
    std::vector<float> w(b * n, 0.0f);
    std::vector<float> h(b * n, 0.0f);
    float best = 0.0f;

    std::vector<const float*> w_low(b);
    for (std::size_t k = 0; k < b; ++k)
        w_low[k] = w.data() + k * n;

    for (std::size_t d = minLoop; d < b; ++d) {
        foldLevel(s, n, d, params_.maxSplit, w.data() + (d - 1) * n,
                  w.data() + (d - 2) * n, v.data() + (d - 2) * n,
                  h.data() + (d - 2) * n, w_low.data(), v.data() + d * n,
                  w.data() + d * n, h.data() + d * n, best);
    }
    return best;
}

std::unique_ptr<ThreadTask>
RsearchWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "RSEARCH: thread id out of range");
    return std::make_unique<RsearchTask>(*this, tid);
}

bool
RsearchWorkload::verify()
{
    std::size_t planted_seen = 0;
    std::size_t planted_hit = 0;
    std::size_t background_seen = 0;
    std::size_t background_hit = 0;

    for (std::size_t w = 0; w < windowScores_.size(); ++w) {
        if (windowScores_[w] < 0.0)
            continue; // not scanned (more windows than thread capacity)
        bool hit = windowScores_[w] >= params_.scoreThreshold;
        if (w % 2 == 0) {
            ++planted_seen;
            planted_hit += hit ? 1 : 0;
        } else {
            ++background_seen;
            background_hit += hit ? 1 : 0;
        }
    }

    if (planted_seen == 0 || background_seen == 0) {
        warn("RSEARCH: verification needs both window classes scanned");
        return false;
    }

    // Consistency: the instrumented DP matches the host reference.
    double ref = referenceFoldScore(windowStart(0), params_.window);
    bool consistent =
        std::fabs(ref - windowScores_[0]) <= 1e-4 * std::max(1.0, ref);

    double planted_rate = static_cast<double>(planted_hit) /
                          static_cast<double>(planted_seen);
    double background_rate = static_cast<double>(background_hit) /
                             static_cast<double>(background_seen);
    return consistent && planted_rate >= 0.8 &&
           background_rate <= 0.5 && planted_rate > background_rate;
}

} // namespace cosim
