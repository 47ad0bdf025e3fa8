/**
 * @file
 * Phase clustering over the CB 500 us sample series, producing a
 * sampling plan of representative intervals.
 *
 * The full-run co-simulations are the throughput ceiling on every sweep:
 * each (workload, configuration) cell pays for emulating the whole bus
 * stream. Bueno et al. ("Improving the Representativeness of Simulation
 * Intervals for the Cache Memory System") show that carefully chosen
 * intervals preserve cache behaviour at a fraction of the cost -- and the
 * CB already records the raw material: one sample per 500 us of emulated
 * time, with per-window instruction, cycle, access and miss counts.
 *
 * clusterPhases() normalizes each window into a feature vector (MPKI,
 * APKI, miss rate, IPC), clusters the windows into phases with a
 * deterministic seeded k-means, and picks representative windows per
 * phase: one for a homogeneous phase, several -- one per contiguous
 * stratum of its members -- when the phase's spread would otherwise
 * exceed a predicted relative error of 2 %.
 * Each interval is weighted by the fraction of windows its stratum
 * covers. The result serializes as a
 * "cosim-plan/1" JSON file that `--cells=sampled` sweeps consume
 * (trace/sampled_replay.hh) and `cosim_inspect plan` validates.
 *
 * Everything here is a pure function of the sample series and the seed:
 * no wall-clock, no host entropy (cosim_analyze's interval-wallclock rule
 * keeps it that way), so the same profiling run always yields the same
 * plan, byte for byte.
 */

#ifndef COSIM_TRACE_PHASE_CLUSTER_HH
#define COSIM_TRACE_PHASE_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dragonhead/control_block.hh"

namespace cosim {

/** Plan schema identifier (bump on incompatible change). */
inline constexpr const char* kPlanSchema = "cosim-plan/1";

/** One representative interval: a single CB sample window. */
struct PlanInterval
{
    /** Index of the representative window in the CB sample series. */
    std::uint64_t window = 0;

    /** Stratum this interval represents (dense, 0-based, in window
     * order). A homogeneous k-means phase is one stratum; a phase
     * whose windows spread gets carved into several, each with its
     * own representative (see clusterPhases()). */
    std::uint64_t phase = 0;

    /** Windows assigned to the stratum (the weight's numerator). */
    std::uint64_t windows = 0;

    /** Fraction of all windows this stratum covers; sums to 1 over a
     * plan's intervals. The estimator extrapolates each representative
     * window's raw counts by this share and takes metric ratios at the
     * end (harness/sweep_runner.cc). */
    double weight = 0.0;

    /**
     * Fraction of all retired instructions in the stratum's windows;
     * sums to 1 over a plan's intervals. Kept for consumers that
     * average per-window *ratios* (CB windows are equal time, not
     * equal work, so a window-count weight would overstate low-IPC
     * strata there); the count-ratio estimator above needs only
     * weight.
     */
    double instWeight = 0.0;
};

/** A workload's sampling plan; see the file comment. */
struct SamplingPlan
{
    std::string workload;
    std::uint64_t seed = 0;

    /** CB window geometry the plan's window indices are defined over.
     * Replays recompute the same emulated-time windows from these. @{ */
    double samplePeriodUs = 500.0;
    double coreFreqGhz = 3.0;
    /** @} */

    /** Windows in the profiled series (the coverage denominator). */
    std::uint64_t totalWindows = 0;

    /** Detail-delivery windows replayed before each interval, with
     * their stats discarded, to warm the emulated cache. */
    std::uint64_t warmupWindows = 1;

    /** Representative intervals, ascending by window index. */
    std::vector<PlanInterval> intervals;

    /** Fraction of windows simulated in detail (intervals + warm-up
     * over totalWindows; the headline cost figure). */
    double coverage() const;

    /**
     * Structural validation: schema-level invariants a consumer relies
     * on (ordered unique windows in range, weights normalized, window
     * geometry positive). @return an empty string when valid, else a
     * human-readable defect description.
     */
    std::string validate() const;

    /** Serialize as pretty-printed "cosim-plan/1" JSON. */
    std::string toJson() const;

    /**
     * Write toJson() to @p path atomically (write-temp + rename).
     * @throws IoError on failure, so a sweep cell writing to a bad
     * path is isolatable under --keep-going.
     */
    void writeFile(const std::string& path) const;

    /** Parse plan JSON; false with @p error on malformed or
     * schema-invalid input (validate() is applied). */
    static bool parse(const std::string& text, SamplingPlan& out,
                      std::string* error = nullptr);

    /** Load and parse @p path; false with @p error on failure. */
    static bool load(const std::string& path, SamplingPlan& out,
                     std::string* error = nullptr);
};

/** Clustering knobs. */
struct PhaseClusterParams
{
    /** Upper bound on phases; the effective k is also capped by the
     * number of distinct feature vectors in the series. */
    unsigned maxPhases = 6;

    /** Seed for the k-means++ style initialization (cosim::Rng). */
    std::uint64_t seed = 42;

    /** Warm-up prefix recorded into the plan (windows per interval). */
    std::uint64_t warmupWindows = 1;
};

/**
 * Cluster @p samples into phases and select representatives; see the
 * file comment. Degenerate inputs stay well-formed: an empty series
 * yields a plan with no intervals, and an all-identical series yields a
 * single phase with weight 1.
 */
SamplingPlan clusterPhases(const std::vector<Sample>& samples,
                           const std::string& workload,
                           const PhaseClusterParams& params);

/**
 * Resolve the per-workload plan file for a --plan/--plan-out base path:
 * "results/fig4.plan.json" + "PLSA" -> "results/fig4.PLSA.plan.json"
 * (the ".plan.json" suffix is appended when the base does not end in
 * it), mirroring fsbStreamPath().
 */
std::string planPath(const std::string& base, const std::string& workload);

} // namespace cosim

#endif // COSIM_TRACE_PHASE_CLUSTER_HH
