#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace cosim {

namespace {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : seed_(seed)
{
    std::uint64_t x = seed;
    for (auto& word : s_)
        word = splitmix64(x);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    panic_if(lo > hi, "nextRange with lo > hi");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian(double mean, double stddev)
{
    if (haveSpareGauss_) {
        haveSpareGauss_ = false;
        return mean + stddev * spareGauss_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double mul = std::sqrt(-2.0 * std::log(s) / s);
    spareGauss_ = v * mul;
    haveSpareGauss_ = true;
    return mean + stddev * u * mul;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    panic_if(n == 0, "nextZipf over empty domain");
    // Inverse-CDF approximation: continuous power-law sample mapped onto
    // ranks. Accurate enough for skewing synthetic item popularity.
    double u = nextDouble();
    if (s <= 0.0)
        return nextBounded(n);
    double one_minus_s = 1.0 - s;
    double x;
    if (std::fabs(one_minus_s) < 1e-9) {
        x = std::pow(static_cast<double>(n), u);
    } else {
        double max_cdf = std::pow(static_cast<double>(n), one_minus_s);
        x = std::pow(u * (max_cdf - 1.0) + 1.0, 1.0 / one_minus_s);
    }
    // x lies in [1, n]; rank 0 must be the most popular item.
    if (x < 1.0)
        x = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(x - 1.0);
    if (rank >= n)
        rank = n - 1;
    return rank;
}

} // namespace cosim
