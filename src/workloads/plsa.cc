#include "workloads/plsa.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"
#include "base/random.hh"
#include "workloads/data/synth.hh"

namespace cosim {

PlsaParams
PlsaParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "PLSA scale must be positive");
    PlsaParams p;
    if (scale < 1.0) {
        double len = static_cast<double>(p.seqLen) * scale;
        p.seqLen = std::max<std::size_t>(
            512, (static_cast<std::size_t>(len) / 256) * 256);
        // A block width that tiles the sequence exactly (the capped
        // width itself whenever it already does).
        p.blockWidth = std::gcd(
            p.seqLen, std::min<std::size_t>(p.blockWidth, p.seqLen / 2));
        p.commonLen = p.seqLen / 8;
        p.tracebackBands = 16;
    }
    return p;
}

/**
 * One strip of the wavefront. Thread t sweeps its rows block-column by
 * block-column, publishing its bottom boundary row for thread t+1.
 * Thread 0 additionally runs the checkpointed traceback at the end.
 */
class PlsaTask : public ThreadTask
{
  public:
    PlsaTask(PlsaWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool step(CoreContext& ctx) override;

  private:
    void startBlock(CoreContext& ctx);
    void doRows(CoreContext& ctx, std::size_t count);
    bool tracebackStep(CoreContext& ctx);

    PlsaWorkload& wl_;
    unsigned tid_;

    std::size_t block_ = 0;
    std::size_t localRow_ = 0;
    bool blockActive_ = false;
    bool stripDone_ = false;

    int best_ = 0;
    std::size_t bestRow_ = 0;
    std::size_t bestCol_ = 0;

    // Traceback state (thread 0 only).
    bool tracebackInit_ = false;
    std::size_t tbBand_ = 0;
    std::size_t tbBandsLeft_ = 0;
    std::size_t tbColLo_ = 0;
    std::size_t tbColHi_ = 0;
};

std::size_t
PlsaWorkload::stripRows() const
{
    return params_.seqLen / nThreads_;
}

std::size_t
PlsaWorkload::nBlocks() const
{
    return params_.seqLen / params_.blockWidth;
}

void
PlsaWorkload::recordBest(int score, std::size_t row, std::size_t col)
{
    if (score > bestScore_) {
        bestScore_ = score;
        bestRow_ = row;
        bestCol_ = col;
    }
}

void
PlsaTask::startBlock(CoreContext& ctx)
{
    const PlsaParams& p = wl_.params_;
    auto& buf = wl_.buffers_[tid_];
    std::size_t wb = p.blockWidth;
    std::size_t col0 = block_ * wb;

    // Previous row entering the block: the strip above's boundary row
    // (plus its corner), or zeros for the top strip.
    std::int32_t* prev = buf.prevRow.writeBlock(ctx, 0, wb + 1);
    if (tid_ == 0) {
        std::fill_n(prev, wb + 1, 0);
    } else {
        std::size_t lo = col0 == 0 ? 0 : col0 - 1;
        std::size_t n = col0 == 0 ? wb : wb + 1;
        const std::int32_t* above =
            wl_.boundary_.readBlock(ctx, tid_ - 1, lo, n);
        if (col0 == 0) {
            prev[0] = 0;
            std::copy(above, above + wb, prev + 1);
        } else {
            std::copy(above, above + wb + 1, prev);
        }
    }

    // Left edges entering the block come from the previous block.
    if (block_ == 0) {
        std::int32_t* left =
            buf.leftIn.writeBlock(ctx, 0, wl_.stripRows());
        std::fill_n(left, wl_.stripRows(), 0);
    } else {
        buf.leftIn.hostData().swap(buf.leftOut.hostData());
        buf.leftIn.readBlock(ctx, 0, wl_.stripRows());
    }

    ctx.compute(16);
    localRow_ = 0;
    blockActive_ = true;
}

void
PlsaTask::doRows(CoreContext& ctx, std::size_t count)
{
    const PlsaParams& p = wl_.params_;
    auto& buf = wl_.buffers_[tid_];
    std::size_t wb = p.blockWidth;
    std::size_t col0 = block_ * wb;
    std::size_t strip_rows = wl_.stripRows();

    for (std::size_t r = 0; r < count && localRow_ < strip_rows; ++r) {
        std::size_t grow = tid_ * strip_rows + localRow_;

        std::uint8_t ai = wl_.a_.read(ctx, grow);
        const std::uint8_t* bseg = wl_.b_.readBlock(ctx, col0, wb);
        const std::int32_t* prev = buf.prevRow.readBlock(ctx, 0, wb + 1);
        std::int32_t* cur = buf.curRow.writeBlock(ctx, 0, wb + 1);

        // Left edge of this row (last column of the previous block) and
        // the diagonal corner (same, one row up).
        std::int32_t left = buf.leftIn.read(ctx, localRow_);
        std::int32_t diag_corner =
            localRow_ == 0 ? buf.prevRow.host(0)
                           : buf.leftIn.host(localRow_ - 1);
        if (localRow_ > 0)
            buf.leftIn.read(ctx, localRow_ - 1);
        if (block_ == 0) {
            left = 0;
            diag_corner = 0;
        }

        cur[0] = left;
        std::int32_t row_best = 0;
        std::size_t row_best_col = 0;
        for (std::size_t j = 0; j < wb; ++j) {
            std::int32_t diag = (j == 0) ? diag_corner : prev[j];
            std::int32_t up = prev[j + 1];
            std::int32_t lf = cur[j];
            std::int32_t score = std::max(
                {0, diag + wl_.sub(ai, bseg[j]), up - p.gapPenalty,
                 lf - p.gapPenalty});
            cur[j + 1] = score;
            if (score > row_best) {
                row_best = score;
                row_best_col = col0 + j;
            }
        }
        ctx.compute(3 * wb / 5);

        if (row_best > best_) {
            best_ = row_best;
            bestRow_ = grow;
            bestCol_ = row_best_col;
        }

        // Publish edges and boundary/checkpoint rows.
        buf.leftOut.write(ctx, localRow_, cur[wb]);
        if (localRow_ == strip_rows - 1) {
            std::int32_t* out =
                wl_.boundary_.writeBlock(ctx, tid_, col0, wb);
            std::copy(cur + 1, cur + 1 + wb, out);
        }
        if ((grow + 1) % p.checkpointStride == 0) {
            std::int32_t* ck = wl_.checkpoint_.writeBlock(
                ctx, grow / p.checkpointStride, col0, wb);
            std::copy(cur + 1, cur + 1 + wb, ck);
        }

        buf.prevRow.hostData().swap(buf.curRow.hostData());
        ++localRow_;
    }

    if (localRow_ >= strip_rows) {
        blockActive_ = false;
        ++block_;
        wl_.progress_[tid_] = block_;
        if (block_ >= wl_.nBlocks()) {
            stripDone_ = true;
            wl_.recordBest(best_, bestRow_, bestCol_);
        }
    }
}

bool
PlsaTask::tracebackStep(CoreContext& ctx)
{
    const PlsaParams& p = wl_.params_;

    if (!tracebackInit_) {
        // Wait for the whole grid (the last strip publishes last).
        if (wl_.progress_[wl_.nThreads_ - 1] < wl_.nBlocks()) {
            ctx.compute(16);
            ctx.yield();
            return true;
        }
        std::size_t best_band = wl_.bestRow_ / p.checkpointStride;
        tbBandsLeft_ = std::min<std::size_t>(p.tracebackBands,
                                             best_band + 1);
        tbBand_ = best_band;
        std::size_t win = 2 * p.blockWidth;
        tbColLo_ = wl_.bestCol_ >= win ? wl_.bestCol_ - win : 0;
        tbColHi_ = wl_.bestCol_ + 1;
        tracebackInit_ = true;
        return true;
    }

    if (tbBandsLeft_ == 0)
        return false;

    // Recompute one K-row band from its checkpoint row, over the column
    // window around the optimum -- the divide-and-conquer re-read that
    // linear-space alignment pays instead of storing the full matrix.
    std::size_t n = tbColHi_ - tbColLo_;
    std::size_t row0 = tbBand_ * p.checkpointStride;

    std::int32_t* prev = wl_.tbPrev_.writeBlock(ctx, 0, n + 1);
    std::fill_n(prev, n + 1, 0);
    if (tbBand_ > 0) {
        const std::int32_t* ck = wl_.checkpoint_.readBlock(
            ctx, tbBand_ - 1, tbColLo_, n);
        std::copy(ck, ck + n, prev + 1);
    }

    std::size_t rows =
        std::min(p.checkpointStride, p.seqLen - row0);
    for (std::size_t r = 0; r < rows; ++r) {
        std::uint8_t ai = wl_.a_.read(ctx, row0 + r);
        const std::uint8_t* bseg = wl_.b_.readBlock(ctx, tbColLo_, n);
        const std::int32_t* prow = wl_.tbPrev_.readBlock(ctx, 0, n + 1);
        std::int32_t* cur = wl_.tbCur_.writeBlock(ctx, 0, n + 1);
        cur[0] = 0;
        for (std::size_t j = 0; j < n; ++j) {
            std::int32_t score = std::max(
                {0, prow[j] + wl_.sub(ai, bseg[j]),
                 prow[j + 1] - p.gapPenalty, cur[j] - p.gapPenalty});
            cur[j + 1] = score;
        }
        ctx.compute(n / 2);
        wl_.tracebackCellsVisited_ += n;
        wl_.tbPrev_.hostData().swap(wl_.tbCur_.hostData());
    }

    --tbBandsLeft_;
    if (tbBand_ == 0)
        tbBandsLeft_ = 0;
    else
        --tbBand_;
    return tbBandsLeft_ > 0;
}

bool
PlsaTask::step(CoreContext& ctx)
{
    if (!stripDone_) {
        if (!blockActive_) {
            // Wavefront dependency: the strip above must have finished
            // this block column.
            if (tid_ != 0 && wl_.progress_[tid_ - 1] <= block_) {
                ctx.compute(16);
                ctx.yield();
                return true;
            }
            startBlock(ctx);
            return true;
        }
        doRows(ctx, wl_.params_.rowsPerStep);
        return !stripDone_ || tid_ == 0;
    }

    if (tid_ != 0)
        return false;
    return tracebackStep(ctx);
}

PlsaWorkload::PlsaWorkload(const PlsaParams& params) : params_(params)
{
    fatal_if(params_.seqLen % params_.blockWidth != 0,
             "PLSA: sequence length must be a multiple of the block "
             "width");
    fatal_if(params_.seqLen % params_.checkpointStride != 0,
             "PLSA: sequence length must be a multiple of the "
             "checkpoint stride");
    fatal_if(params_.commonLen >= params_.seqLen / 2,
             "PLSA: planted region too long");
}

void
PlsaWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;
    fatal_if(params_.seqLen % nThreads_ != 0,
             "PLSA: thread count must divide the sequence length");

    Rng rng(cfg.seed * 0xa119all + 11);
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
    synth::alignmentPair(params_.seqLen, params_.seqLen, params_.commonLen,
                         params_.seqLen / 4, params_.seqLen / 2, rng, a, b);

    a_.init(alloc, "plsa.seqA", std::move(a));
    b_.init(alloc, "plsa.seqB", std::move(b));

    boundary_.init(alloc, "plsa.boundary", nThreads_, params_.seqLen);
    checkpoint_.init(alloc, "plsa.checkpoint",
                     params_.seqLen / params_.checkpointStride,
                     params_.seqLen);

    buffers_.resize(nThreads_);
    for (unsigned t = 0; t < nThreads_; ++t) {
        std::string prefix = "plsa.t" + std::to_string(t);
        buffers_[t].prevRow.init(alloc, prefix + ".prev",
                                 params_.blockWidth + 1);
        buffers_[t].curRow.init(alloc, prefix + ".cur",
                                params_.blockWidth + 1);
        buffers_[t].leftIn.init(alloc, prefix + ".leftIn", stripRows());
        buffers_[t].leftOut.init(alloc, prefix + ".leftOut", stripRows());
    }

    tbPrev_.init(alloc, "plsa.tbPrev", 2 * params_.blockWidth + 2);
    tbCur_.init(alloc, "plsa.tbCur", 2 * params_.blockWidth + 2);

    progress_.assign(nThreads_, 0);
    bestScore_ = 0;
    bestRow_ = bestCol_ = 0;
    tracebackCellsVisited_ = 0;
}

std::unique_ptr<ThreadTask>
PlsaWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "PLSA: thread id out of range");
    return std::make_unique<PlsaTask>(*this, tid);
}

int
PlsaWorkload::referenceScore() const
{
    std::size_t n = params_.seqLen;
    const auto& a = a_.hostData();
    const auto& b = b_.hostData();

    std::vector<std::int32_t> prev(n + 1, 0);
    std::vector<std::int32_t> cur(n + 1, 0);
    int best = 0;
    for (std::size_t i = 0; i < n; ++i) {
        cur[0] = 0;
        for (std::size_t j = 0; j < n; ++j) {
            std::int32_t score = std::max(
                {0, prev[j] + sub(a[i], b[j]),
                 prev[j + 1] - params_.gapPenalty,
                 cur[j] - params_.gapPenalty});
            cur[j + 1] = score;
            if (score > best)
                best = score;
        }
        std::swap(prev, cur);
    }
    return best;
}

bool
PlsaWorkload::verify()
{
    // The planted exact common subsequence guarantees a local alignment
    // of at least matchScore * commonLen; random extensions add only a
    // bounded amount.
    int expected_min =
        params_.matchScore * static_cast<int>(params_.commonLen);
    int slack = static_cast<int>(params_.commonLen) / 2 + 64;
    if (bestScore_ < expected_min || bestScore_ > expected_min + slack)
        return false;
    // The wavefront's score must equal the full-matrix reference.
    return bestScore_ == referenceScore();
}

} // namespace cosim
