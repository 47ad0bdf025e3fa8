#include "workloads/data/video.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cosim {
namespace synth {

namespace {

/** Cheap stateless 64 -> 32 bit mix (for per-pixel noise). */
inline std::uint32_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
}

constexpr std::uint8_t playfieldHueLo = 75;
constexpr std::uint8_t playfieldHueHi = 95;

} // namespace

const char*
toString(ViewType v)
{
    switch (v) {
      case ViewType::Global:
        return "global";
      case ViewType::Medium:
        return "medium";
      case ViewType::CloseUp:
        return "close-up";
      case ViewType::OutOfView:
        return "out-of-view";
    }
    return "?";
}

std::uint8_t
hueOf(Pixel p)
{
    int r = pixelR(p);
    int g = pixelG(p);
    int b = pixelB(p);
    int mx = std::max({r, g, b});
    int mn = std::min({r, g, b});
    int d = mx - mn;
    if (d == 0)
        return 0;
    int h;
    if (mx == r)
        h = (256 * (g - b) / d) / 6;
    else if (mx == g)
        h = (256 * 2 + 256 * (b - r) / d) / 6;
    else
        h = (256 * 4 + 256 * (r - g) / d) / 6;
    if (h < 0)
        h += 256;
    return static_cast<std::uint8_t>(h);
}

bool
isPlayfieldHue(Pixel p)
{
    std::uint8_t h = hueOf(p);
    // Require green dominance too so dark noise does not qualify.
    return h >= playfieldHueLo && h <= playfieldHueHi &&
           pixelG(p) > pixelR(p) && pixelG(p) > pixelB(p);
}

FrameSynthesizer::FrameSynthesizer(const VideoParams& params,
                                   std::uint64_t seed)
    : params_(params), seed_(seed)
{
    fatal_if(params_.width == 0 || params_.height == 0,
             "empty video frame");
    fatal_if(params_.shotLength == 0, "shot length must be nonzero");
}

std::uint64_t
FrameSynthesizer::shotSeed(unsigned shot) const
{
    return seed_ * 0x9e3779b97f4a7c15ull + shot * 0xbf58476d1ce4e5b9ull;
}

ViewType
FrameSynthesizer::plannedView(unsigned f) const
{
    return static_cast<ViewType>(shotIndex(f) % 4);
}

double
FrameSynthesizer::playfieldFraction(ViewType v)
{
    switch (v) {
      case ViewType::Global:
        return 0.70;
      case ViewType::Medium:
        return 0.40;
      case ViewType::CloseUp:
        return 0.12;
      case ViewType::OutOfView:
        return 0.0;
    }
    return 0.0;
}

Pixel
FrameSynthesizer::pixel(unsigned f, unsigned x, unsigned y) const
{
    unsigned shot = shotIndex(f);
    std::uint64_t ss = shotSeed(shot);

    // Per-shot palette.
    std::uint32_t pal = mix(ss);
    std::uint8_t base_r = static_cast<std::uint8_t>(pal);
    std::uint8_t base_b = static_cast<std::uint8_t>(pal >> 16);

    // Playfield region: the bottom fraction of the frame, green band.
    double field_frac = playfieldFraction(plannedView(f));
    unsigned field_top = static_cast<unsigned>(
        static_cast<double>(params_.height) * (1.0 - field_frac));
    if (y >= field_top) {
        std::uint32_t n = mix(ss ^ (static_cast<std::uint64_t>(y) << 32 |
                                    x));
        std::uint8_t g = static_cast<std::uint8_t>(150 + (n & 63));
        std::uint8_t r = static_cast<std::uint8_t>(30 + (n >> 8 & 31));
        std::uint8_t b = static_cast<std::uint8_t>(30 + (n >> 16 & 31));
        return static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
               (static_cast<Pixel>(b) << 16);
    }

    // Background: palette gradient with slow per-frame drift. Green is
    // kept strictly below the other channels so only the playfield is
    // ever green-dominant (real crowds/stands are not grass-coloured).
    unsigned drift = (f % params_.shotLength) * 3;
    std::uint8_t r = static_cast<std::uint8_t>(
        64 + (base_r % 160) + ((x + drift) * 31 / params_.width));
    std::uint8_t b = static_cast<std::uint8_t>(
        64 + (base_b % 160) + (y * 31 / params_.height));
    std::uint8_t g = static_cast<std::uint8_t>(std::min(r, b) / 2);

    // A moving blob (a "player"): brightens a disc that tracks the frame
    // index, giving the pixel-difference feature something to see inside
    // a shot.
    int blob_x = static_cast<int>(
        (mix(ss ^ 0x1234) % params_.width + f * 7) % params_.width);
    int blob_y = static_cast<int>(
        (mix(ss ^ 0x5678) % (field_top > 0 ? field_top : 1)));
    int dx = static_cast<int>(x) - blob_x;
    int dy = static_cast<int>(y) - blob_y;
    if (dx * dx + dy * dy < 400) {
        r = static_cast<std::uint8_t>(std::min(255, r + 90));
        g = static_cast<std::uint8_t>(std::min(255, g + 90));
        b = static_cast<std::uint8_t>(std::min(255, b + 90));
    }

    return static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
           (static_cast<Pixel>(b) << 16);
}

void
FrameSynthesizer::row(unsigned f, unsigned y, Pixel* out) const
{
    const unsigned width = params_.width;
    const std::uint64_t ss = shotSeed(shotIndex(f));

    const double field_frac = playfieldFraction(plannedView(f));
    const unsigned field_top = static_cast<unsigned>(
        static_cast<double>(params_.height) * (1.0 - field_frac));
    if (y >= field_top) {
        // pixel() mixes ss ^ (y << 32 | x); x fits in the low word.
        const std::uint64_t row_seed =
            ss ^ (static_cast<std::uint64_t>(y) << 32);
        for (unsigned x = 0; x < width; ++x) {
            std::uint32_t n = mix(row_seed ^ x);
            std::uint8_t g = static_cast<std::uint8_t>(150 + (n & 63));
            std::uint8_t r = static_cast<std::uint8_t>(30 + (n >> 8 & 31));
            std::uint8_t b = static_cast<std::uint8_t>(30 + (n >> 16 & 31));
            out[x] = static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
                     (static_cast<Pixel>(b) << 16);
        }
        return;
    }

    const std::uint32_t pal = mix(ss);
    const std::uint8_t base_r = static_cast<std::uint8_t>(pal);
    const std::uint8_t base_b = static_cast<std::uint8_t>(pal >> 16);
    const unsigned drift = (f % params_.shotLength) * 3;
    const std::uint8_t row_b = static_cast<std::uint8_t>(
        64 + (base_b % 160) + (y * 31 / params_.height));

    const int blob_x =
        static_cast<int>((mix(ss ^ 0x1234) % width + f * 7) % width);
    const int blob_y = static_cast<int>(
        (mix(ss ^ 0x5678) % (field_top > 0 ? field_top : 1)));
    const int dy = static_cast<int>(y) - blob_y;

    for (unsigned x = 0; x < width; ++x) {
        std::uint8_t r = static_cast<std::uint8_t>(
            64 + (base_r % 160) + ((x + drift) * 31 / width));
        std::uint8_t b = row_b;
        std::uint8_t g = static_cast<std::uint8_t>(std::min(r, b) / 2);
        int dx = static_cast<int>(x) - blob_x;
        if (dx * dx + dy * dy < 400) {
            r = static_cast<std::uint8_t>(std::min(255, r + 90));
            g = static_cast<std::uint8_t>(std::min(255, g + 90));
            b = static_cast<std::uint8_t>(std::min(255, b + 90));
        }
        out[x] = static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
                 (static_cast<Pixel>(b) << 16);
    }
}

} // namespace synth
} // namespace cosim
