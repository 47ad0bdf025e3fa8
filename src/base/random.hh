/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * All synthetic data generation in the workloads is seeded explicitly so
 * that every experiment is bit-for-bit reproducible across runs and hosts.
 *
 * cosim::Rng is the only sanctioned randomness source in simulation
 * code: cosim_analyze's no-rand / no-random-device rules reject libc and
 * <random> entropy there precisely so every random draw can be traced
 * back to a recorded seed. seed() exposes the construction seed so run
 * manifests can record the provenance of each experiment.
 */

#ifndef COSIM_BASE_RANDOM_HH
#define COSIM_BASE_RANDOM_HH

#include <cstdint>

#include "base/logging.hh"

namespace cosim {

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain reference
 * algorithm), wrapped in a small value-type class. Satisfies the needs of
 * synthetic data generation; not a cryptographic generator.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) using rejection-free scaling. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        panic_if(bound == 0, "nextBounded(0) is undefined");
        // Lemire's multiply-shift bounded generation (slightly biased for
        // huge bounds, irrelevant for synthetic workload data).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Gaussian sample via Box-Muller. */
    double nextGaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * Sample from a bounded Zipf-like (power-law) distribution over
     * [0, n): rank r has weight 1 / (r + 1)^s. Used for Kosarak-like
     * transaction synthesis.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /** The seed this generator was constructed from. */
    std::uint64_t seed() const { return seed_; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t seed_;
    std::uint64_t s_[4];
    bool haveSpareGauss_ = false;
    double spareGauss_ = 0.0;
};

} // namespace cosim

#endif // COSIM_BASE_RANDOM_HH
