/**
 * @file
 * Procedural MPEG-2 stand-in: deterministic synthetic video frames with
 * planted shot cuts and view types.
 *
 * The SHOT and VIEWTYPE workloads consumed 10-minute 720x576 MPEG-2
 * clips. The synthesizer plays the decoder's role: pixel(f, x, y) is a
 * pure function, so any thread can "decode" any frame of its segment
 * into its private frame buffer (row() decodes a whole row of it), and
 * the planted ground truth (cut positions, per-frame view type) lets
 * verify() check the mining result.
 *
 * Frames within a shot share a palette and drift slowly (global motion +
 * a moving blob); a new shot re-seeds the palette, which makes both the
 * color histogram and the pixel-difference signal jump, exactly the two
 * features the shot-detection workload uses. For view-type frames the
 * bottom region of the image is a "playfield" (a narrow green hue band)
 * whose area fraction encodes the view type.
 */

#ifndef COSIM_WORKLOADS_DATA_VIDEO_HH
#define COSIM_WORKLOADS_DATA_VIDEO_HH

#include <cstdint>

namespace cosim {
namespace synth {

/** The four view types of the VIEWTYPE workload (Section 2.6). */
enum class ViewType : std::uint8_t {
    Global = 0,
    Medium = 1,
    CloseUp = 2,
    OutOfView = 3,
};

const char* toString(ViewType v);

/** Static description of a synthetic clip. */
struct VideoParams
{
    unsigned width = 720;
    unsigned height = 576;
    unsigned nFrames = 48;
    /** A planted cut starts a new shot every this many frames. */
    unsigned shotLength = 9;
};

/** Pixels are packed RGBX (R in the low byte). */
using Pixel = std::uint32_t;

inline std::uint8_t pixelR(Pixel p) { return static_cast<std::uint8_t>(p); }
inline std::uint8_t pixelG(Pixel p)
{
    return static_cast<std::uint8_t>(p >> 8);
}
inline std::uint8_t pixelB(Pixel p)
{
    return static_cast<std::uint8_t>(p >> 16);
}

/** Approximate hue in [0, 255] of a pixel (for HSV dominant color). */
std::uint8_t hueOf(Pixel p);

/** True iff the pixel falls in the playfield's green hue band. */
bool isPlayfieldHue(Pixel p);

/** See file comment. */
class FrameSynthesizer
{
  public:
    FrameSynthesizer(const VideoParams& params, std::uint64_t seed);

    const VideoParams& params() const { return params_; }

    /** Deterministic pixel value of frame @p f at (@p x, @p y). */
    Pixel pixel(unsigned f, unsigned x, unsigned y) const;

    /**
     * Row @p y of frame @p f into @p out[0, width): pixel(f, x, y) for
     * every x, with the shot, palette, playfield and blob terms worked
     * out once for the row rather than once per pixel.
     */
    void row(unsigned f, unsigned y, Pixel* out) const;

    /** Index of the shot containing frame @p f. */
    unsigned shotIndex(unsigned f) const { return f / params_.shotLength; }

    /** True iff frame @p f is the first frame of a (non-initial) shot. */
    bool
    isCut(unsigned f) const
    {
        return f != 0 && f % params_.shotLength == 0;
    }

    /** Planted view type of frame @p f (cycles through all four). */
    ViewType plannedView(unsigned f) const;

    /** Playfield area fraction implied by a view type. */
    static double playfieldFraction(ViewType v);

  private:
    std::uint64_t shotSeed(unsigned shot) const;

    VideoParams params_;
    std::uint64_t seed_;
};

} // namespace synth
} // namespace cosim

#endif // COSIM_WORKLOADS_DATA_VIDEO_HH
