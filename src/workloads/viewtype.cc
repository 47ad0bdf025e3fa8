#include "workloads/viewtype.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cosim {

namespace {

/** Field-colour prior: dominant-hue training searches the green band. */
constexpr unsigned fieldHueLo = 60;
constexpr unsigned fieldHueHi = 110;
constexpr std::uint32_t maxLabels = 4096;

/** Classify from the largest playfield component's area fraction. */
synth::ViewType
classifyFraction(double frac)
{
    if (frac >= 0.55)
        return synth::ViewType::Global;
    if (frac >= 0.25)
        return synth::ViewType::Medium;
    if (frac >= 0.03)
        return synth::ViewType::CloseUp;
    return synth::ViewType::OutOfView;
}

} // namespace

ViewtypeParams
ViewtypeParams::scaled(double scale)
{
    fatal_if(scale <= 0.0, "VIEWTYPE scale must be positive");
    ViewtypeParams p;
    p.video.shotLength = 9;
    p.video.width = 480;
    p.video.height = 360;
    if (scale < 1.0) {
        p.video.width = 240;
        p.video.height = 192;
        if (scale < 0.1) {
            p.video.width = 120;
            p.video.height = 96;
            p.nKeyframes = 16;
        }
    }
    p.video.nFrames = p.nKeyframes * p.video.shotLength;
    return p;
}

/** Processes one thread's share of key frames through the full chain. */
class ViewtypeTask : public ThreadTask
{
  public:
    ViewtypeTask(ViewtypeWorkload& wl, unsigned tid) : wl_(wl), tid_(tid)
    {
        unsigned total = wl_.params_.nKeyframes;
        unsigned per = (total + wl_.nThreads_ - 1) / wl_.nThreads_;
        first_ = std::min(tid * per, total);
        last_ = std::min(first_ + per, total);
        kf_ = first_;
    }

    bool
    step(CoreContext& ctx) override
    {
        if (kf_ >= last_)
            return false;

        switch (stage_) {
          case 0:
            decodeRows(ctx);
            break;
          case 1:
            hueRows(ctx);
            break;
          case 2:
            maskRows(ctx);
            break;
          case 3:
            cclRows(ctx);
            break;
          case 4:
            countRows(ctx);
            break;
          default:
            panic("VIEWTYPE: bad stage");
        }
        return kf_ < last_;
    }

  private:
    void
    decodeRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        unsigned f = wl_.frameOf(kf_);
        std::size_t end = rowEnd();
        auto& buf = wl_.buffers_[tid_];
        for (; row_ < end; ++row_) {
            synth::Pixel* out =
                buf.frame.writeBlock(ctx, row_ * v.width, v.width);
            wl_.synth_->row(f, static_cast<unsigned>(row_), out);
            ctx.compute(v.width);
        }
        nextStageIfDone(1);
    }

    void
    hueRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        std::size_t end = rowEnd();
        auto& buf = wl_.buffers_[tid_];
        for (; row_ < end; ++row_) {
            const synth::Pixel* in =
                buf.frame.readBlock(ctx, row_ * v.width, v.width);
            std::uint8_t* out =
                buf.hue.writeBlock(ctx, row_ * v.width, v.width);
            for (unsigned x = 0; x < v.width; ++x) {
                std::uint8_t h = synth::hueOf(in[x]);
                // Only colour-dominant-green pixels may train the field
                // model; grey/red/blue pixels hash to hue 0ish anyway.
                bool greenish = synth::pixelG(in[x]) > synth::pixelR(in[x]) &&
                                synth::pixelG(in[x]) > synth::pixelB(in[x]);
                out[x] = greenish ? h : 0;
                ++wl_.hueHist_.host(out[x]);
            }
            ctx.compute(2 * v.width); // the RGB->HSV arithmetic
        }
        // The accumulation is a read-modify-write of the shared
        // histogram.
        ctx.load(wl_.hueHist_.base(), 256 * 4);
        ctx.store(wl_.hueHist_.base(), 256 * 4);
        if (row_ >= wl_.params_.video.height) {
            // Adaptive training: dominant field hue so far.
            std::uint32_t best = 0;
            dominant_ = fieldHueLo;
            for (unsigned h = fieldHueLo; h <= fieldHueHi; ++h) {
                if (wl_.hueHist_.host(h) > best) {
                    best = wl_.hueHist_.host(h);
                    dominant_ = h;
                }
            }
            ctx.compute(fieldHueHi - fieldHueLo + 1);
        }
        nextStageIfDone(2);
    }

    void
    maskRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        std::size_t end = rowEnd();
        auto& buf = wl_.buffers_[tid_];
        unsigned tol = wl_.params_.hueTolerance;
        for (; row_ < end; ++row_) {
            const std::uint8_t* hue =
                buf.hue.readBlock(ctx, row_ * v.width, v.width);
            std::uint8_t* mask =
                buf.mask.writeBlock(ctx, row_ * v.width, v.width);
            for (unsigned x = 0; x < v.width; ++x) {
                unsigned h = hue[x];
                mask[x] = (h != 0 && h + tol >= dominant_ &&
                           h <= dominant_ + tol)
                              ? 1
                              : 0;
            }
            ctx.compute(v.width);
        }
        if (row_ >= v.height) {
            nLabels_ = 1;
            std::uint32_t* par = buf.parent.writeBlock(ctx, 0, maxLabels);
            for (std::uint32_t i = 0; i < maxLabels; ++i)
                par[i] = i;
        }
        nextStageIfDone(3);
    }

    std::uint32_t
    findRoot(std::uint32_t l, ViewtypeWorkload::ThreadBuffers& buf)
    {
        while (buf.parent.host(l) != l) {
            buf.parent.host(l) = buf.parent.host(buf.parent.host(l));
            l = buf.parent.host(l);
        }
        return l;
    }

    void
    cclRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        std::size_t end = rowEnd();
        auto& buf = wl_.buffers_[tid_];
        for (; row_ < end; ++row_) {
            const std::uint8_t* mask =
                buf.mask.readBlock(ctx, row_ * v.width, v.width);
            const std::uint32_t* up =
                row_ > 0
                    ? buf.labels.readBlock(ctx, (row_ - 1) * v.width,
                                           v.width)
                    : nullptr;
            std::uint32_t* cur =
                buf.labels.writeBlock(ctx, row_ * v.width, v.width);

            for (unsigned x = 0; x < v.width; ++x) {
                if (mask[x] == 0) {
                    cur[x] = 0;
                    continue;
                }
                std::uint32_t left = x > 0 ? cur[x - 1] : 0;
                std::uint32_t above = up != nullptr ? up[x] : 0;
                if (left == 0 && above == 0) {
                    if (nLabels_ < maxLabels) {
                        cur[x] = nLabels_++;
                    } else {
                        cur[x] = maxLabels - 1;
                    }
                } else if (left == 0) {
                    cur[x] = above;
                } else if (above == 0) {
                    cur[x] = left;
                } else {
                    std::uint32_t rl = findRoot(left, buf);
                    std::uint32_t ra = findRoot(above, buf);
                    std::uint32_t m = std::min(rl, ra);
                    buf.parent.host(rl) = m;
                    buf.parent.host(ra) = m;
                    cur[x] = m;
                }
            }
            // Union-find traffic: the hot head of the parent array.
            ctx.load(buf.parent.base(), 1024);
            ctx.store(buf.parent.base(), 256);
            ctx.compute(2 * v.width); // neighbour tests + union-find
        }
        if (row_ >= v.height) {
            std::uint32_t* sizes =
                buf.compSize.writeBlock(ctx, 0, maxLabels);
            std::fill_n(sizes, maxLabels, 0u);
        }
        nextStageIfDone(4);
    }

    void
    countRows(CoreContext& ctx)
    {
        const synth::VideoParams& v = wl_.params_.video;
        std::size_t end = rowEnd();
        auto& buf = wl_.buffers_[tid_];
        for (; row_ < end; ++row_) {
            const std::uint32_t* lab =
                buf.labels.readBlock(ctx, row_ * v.width, v.width);
            for (unsigned x = 0; x < v.width; ++x) {
                if (lab[x] != 0)
                    ++buf.compSize.host(findRoot(lab[x], buf));
            }
            ctx.load(buf.compSize.base(), 1024);
            ctx.store(buf.compSize.base(), 256);
            ctx.compute(3 * v.width / 2);
        }
        if (row_ < v.height)
            return;

        // Classify from the dominant component's area.
        std::uint32_t largest = 0;
        for (std::uint32_t l = 0; l < nLabels_; ++l)
            largest = std::max(largest, buf.compSize.host(l));
        ctx.compute(nLabels_);
        double frac = static_cast<double>(largest) /
                      (static_cast<double>(v.width) * v.height);
        wl_.classified_[kf_] = classifyFraction(frac);

        ++kf_;
        row_ = 0;
        stage_ = 0;
    }

    std::size_t
    rowEnd() const
    {
        return std::min<std::size_t>(row_ + wl_.params_.rowsPerStep,
                                     wl_.params_.video.height);
    }

    void
    nextStageIfDone(unsigned next)
    {
        if (row_ >= wl_.params_.video.height) {
            row_ = 0;
            stage_ = next;
        }
    }

    ViewtypeWorkload& wl_;
    unsigned tid_;
    unsigned first_ = 0;
    unsigned last_ = 0;
    unsigned kf_ = 0;
    unsigned stage_ = 0;
    std::size_t row_ = 0;
    unsigned dominant_ = fieldHueLo;
    std::uint32_t nLabels_ = 1;
};

ViewtypeWorkload::ViewtypeWorkload(const ViewtypeParams& params)
    : params_(params)
{
    fatal_if(params_.nKeyframes == 0, "VIEWTYPE: no key frames");
    fatal_if(params_.video.nFrames <
                 params_.nKeyframes * params_.video.shotLength,
             "VIEWTYPE: clip too short for the key frames");
}

void
ViewtypeWorkload::setUp(const WorkloadConfig& cfg, SimAllocator& alloc)
{
    nThreads_ = cfg.nThreads;
    synth_ = std::make_unique<synth::FrameSynthesizer>(params_.video,
                                                       cfg.seed);

    hueHist_.init(alloc, "viewtype.hue-hist", 256);

    std::size_t pixels =
        static_cast<std::size_t>(params_.video.width) *
        params_.video.height;
    buffers_.resize(nThreads_);
    for (unsigned t = 0; t < nThreads_; ++t) {
        std::string prefix = "viewtype.t" + std::to_string(t);
        buffers_[t].frame.init(alloc, prefix + ".frame", pixels);
        buffers_[t].hue.init(alloc, prefix + ".hue", pixels);
        buffers_[t].mask.init(alloc, prefix + ".mask", pixels);
        buffers_[t].labels.init(alloc, prefix + ".labels", pixels);
        buffers_[t].parent.init(alloc, prefix + ".parent", maxLabels);
        buffers_[t].compSize.init(alloc, prefix + ".compSize", maxLabels);
    }

    classified_.assign(params_.nKeyframes, synth::ViewType::OutOfView);
}

std::unique_ptr<ThreadTask>
ViewtypeWorkload::createThread(unsigned tid)
{
    fatal_if(tid >= nThreads_, "VIEWTYPE: thread id out of range");
    return std::make_unique<ViewtypeTask>(*this, tid);
}

synth::ViewType
ViewtypeWorkload::plantedView(unsigned keyframe) const
{
    return synth_->plannedView(frameOf(keyframe));
}

double
ViewtypeWorkload::accuracy() const
{
    std::size_t correct = 0;
    for (unsigned k = 0; k < params_.nKeyframes; ++k) {
        if (classified_[k] == plantedView(k))
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(params_.nKeyframes);
}

bool
ViewtypeWorkload::verify()
{
    return accuracy() >= 0.9;
}

} // namespace cosim
