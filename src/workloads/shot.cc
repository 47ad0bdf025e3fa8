#include "workloads/shot.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "base/logging.hh"

namespace cosim {

namespace {

/** 48-bin histogram index of a pixel: 16 bins per RGB channel. */
inline void
histBins(synth::Pixel p, unsigned& r, unsigned& g, unsigned& b)
{
    r = synth::pixelR(p) >> 4;
    g = 16 + (synth::pixelG(p) >> 4);
    b = 32 + (synth::pixelB(p) >> 4);
}

} // namespace

ShotParams
ShotParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "SHOT scale must be positive");
    ShotParams p;
    if (scale < 1.0) {
        // CIF: the macroblock pipeline needs a 16-aligned width.
        p.video.width = 352;
        p.video.height = 288;
        if (scale < 0.1) {
            p.video.width = 176;
            p.video.height = 144;
            p.video.nFrames = 32;
            p.video.shotLength = 5;
        }
    }
    return p;
}

/** Processes one thread's video segment frame by frame. */
class ShotTask : public ThreadTask
{
  public:
    ShotTask(ShotWorkload& wl, unsigned tid) : wl_(wl), tid_(tid)
    {
        unsigned total = wl_.params_.video.nFrames;
        unsigned per = (total + wl_.nThreads_ - 1) / wl_.nThreads_;
        first_ = std::min(tid * per, total);
        last_ = std::min(first_ + per, total);
        frame_ = first_;
    }

    bool
    step(CoreContext& ctx) override
    {
        if (frame_ >= last_)
            return false;
        processRows(ctx);
        return frame_ < last_;
    }

  private:
    SimArray<synth::Pixel>&
    curBuf()
    {
        auto& b = wl_.buffers_[tid_];
        return (frame_ % 2 == 0) ? b.frameA : b.frameB;
    }

    SimArray<synth::Pixel>&
    prevBuf()
    {
        auto& b = wl_.buffers_[tid_];
        return (frame_ % 2 == 0) ? b.frameB : b.frameA;
    }

    /**
     * Slice-based processing: decode a row into the private frame
     * buffer and, while its pixels are still register/L1-hot, fold them
     * into the colour histogram and the pixel difference against the
     * previous frame's row (the only re-read that touches memory).
     */
    void
    processRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        std::size_t end = std::min<std::size_t>(
            row_ + wl_.params_.rowsPerStep, v.height);
        bool have_prev = frame_ > first_;

        // Compressed bits consumed per decoded row (~2 bits/pixel).
        std::size_t row_bits = v.width / 4;
        for (; row_ < end; ++row_) {
            wl_.bitstream_.readBlock(
                ctx,
                (static_cast<std::size_t>(frame_) * v.height + row_) *
                    row_bits,
                row_bits);
            synth::Pixel* out =
                curBuf().writeBlock(ctx, row_ * v.width, v.width);
            const synth::Pixel* prev =
                have_prev
                    ? prevBuf().readBlock(ctx, row_ * v.width, v.width)
                    : nullptr;
            for (unsigned x = 0; x < v.width; ++x) {
                synth::Pixel px = wl_.synth_->pixel(frame_, x, row_);
                out[x] = px;
                unsigned r, g, b;
                histBins(px, r, g, b);
                ++hist_[r];
                ++hist_[g];
                ++hist_[b];
                if (prev != nullptr) {
                    int dr = static_cast<int>(synth::pixelR(px)) -
                             synth::pixelR(prev[x]);
                    int dg = static_cast<int>(synth::pixelG(px)) -
                             synth::pixelG(prev[x]);
                    int db = static_cast<int>(synth::pixelB(px)) -
                             synth::pixelB(prev[x]);
                    pixelDiff_ += static_cast<std::uint64_t>(
                        std::abs(dr) + std::abs(dg) + std::abs(db));
                }
            }
            // Decode arithmetic + binning + difference math.
            ctx.compute(v.width * 5 / 3);
        }
        if (row_ < v.height)
            return;

        finishFrame(ctx);
    }

    void
    finishFrame(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        auto& buf = wl_.buffers_[tid_];

        // Persist the histogram and compare with the previous frame's.
        std::uint32_t* hist = buf.hist.writeBlock(ctx, 0, 48);
        std::copy(hist_.begin(), hist_.end(), hist);

        if (frame_ > first_) {
            const std::uint32_t* ph = buf.prevHist.readBlock(ctx, 0, 48);
            std::uint64_t dist = 0;
            std::uint64_t total = 0;
            for (unsigned k = 0; k < 48; ++k) {
                dist += static_cast<std::uint64_t>(
                    std::abs(static_cast<long>(hist_[k]) -
                             static_cast<long>(ph[k])));
                total += hist_[k];
            }
            double hist_metric =
                static_cast<double>(dist) / (2.0 * static_cast<double>(total));
            double pix_metric =
                static_cast<double>(pixelDiff_) /
                (3.0 * 255.0 * static_cast<double>(v.width) * v.height);
            ctx.compute(48 * 3);

            // A cut when either feature jumps (the pixel difference
            // supplements the histogram, as in the paper).
            if (hist_metric > wl_.params_.cutThreshold ||
                pix_metric > 2.0 * wl_.params_.cutThreshold) {
                wl_.cutsPerThread_[tid_].push_back(frame_);
            }
        }

        std::uint32_t* ph = buf.prevHist.writeBlock(ctx, 0, 48);
        std::copy(hist_.begin(), hist_.end(), ph);

        ++frame_;
        row_ = 0;
        std::fill(hist_.begin(), hist_.end(), 0);
        pixelDiff_ = 0;
    }

    ShotWorkload& wl_;
    unsigned tid_;
    unsigned first_ = 0;
    unsigned last_ = 0;
    unsigned frame_ = 0;
    std::size_t row_ = 0;
    std::array<std::uint32_t, 48> hist_{};
    std::uint64_t pixelDiff_ = 0;
};

ShotWorkload::ShotWorkload(const ShotParams& params) : params_(params)
{
    fatal_if(params_.video.nFrames < 2, "SHOT: need at least two frames");
    fatal_if(params_.video.width % 16 != 0,
             "SHOT: frame width must be 16-aligned");
}

void
ShotWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;
    seed_ = cfg.seed;
    synth_ = std::make_unique<synth::FrameSynthesizer>(params_.video,
                                                       cfg.seed);

    std::size_t pixels =
        static_cast<std::size_t>(params_.video.width) *
        params_.video.height;

    // The shared compressed input clip (~2 bits per pixel), streamed by
    // every thread's decoder.
    bitstream_.init(alloc, "shot.bitstream",
                    static_cast<std::size_t>(params_.video.nFrames) *
                        pixels / 4);

    buffers_.resize(nThreads_);
    for (unsigned t = 0; t < nThreads_; ++t) {
        std::string prefix = "shot.t" + std::to_string(t);
        buffers_[t].frameA.init(alloc, prefix + ".frameA", pixels);
        buffers_[t].frameB.init(alloc, prefix + ".frameB", pixels);
        buffers_[t].hist.init(alloc, prefix + ".hist", 48);
        buffers_[t].prevHist.init(alloc, prefix + ".prevHist", 48);
    }

    cutsPerThread_.assign(nThreads_, {});
}

std::unique_ptr<ThreadTask>
ShotWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "SHOT: thread id out of range");
    return std::make_unique<ShotTask>(*this, tid);
}

std::vector<unsigned>
ShotWorkload::detectedCuts() const
{
    std::vector<unsigned> all;
    for (const auto& cuts : cutsPerThread_)
        all.insert(all.end(), cuts.begin(), cuts.end());
    std::sort(all.begin(), all.end());
    return all;
}

std::vector<unsigned>
ShotWorkload::expectedCuts() const
{
    // A planted cut is detectable unless it is the first frame of its
    // thread's segment (no previous frame to compare against).
    unsigned total = params_.video.nFrames;
    unsigned per = (total + nThreads_ - 1) / nThreads_;
    std::vector<unsigned> expected;
    for (unsigned f = 1; f < total; ++f) {
        if (f % params_.video.shotLength != 0)
            continue;
        bool segment_first = (f % per) == 0;
        if (!segment_first)
            expected.push_back(f);
    }
    return expected;
}

bool
ShotWorkload::verify()
{
    return detectedCuts() == expectedCuts();
}

} // namespace cosim
