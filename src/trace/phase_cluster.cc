#include "trace/phase_cluster.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/random.hh"
#include "obs/json.hh"

namespace cosim {

namespace {

/** Feature-space dimensionality: MPKI, APKI, miss rate, IPC. */
constexpr std::size_t kDims = 4;

/** Lloyd iterations (a fixed count keeps runtime deterministic even
 * when assignments oscillate between equal-cost optima). */
constexpr unsigned kIterations = 24;

/** Target predicted relative error of the estimator's count totals
 * (insts/accesses/misses): heterogeneous phases are granted extra
 * representatives -- one per contiguous stratum of their member
 * windows -- until the stratified-sampling prediction meets this, or
 * every window is a representative. */
constexpr double kErrorTarget = 0.02;

struct Features
{
    double v[kDims];
};

double
apki(const Sample& s)
{
    return s.insts == 0 ? 0.0
                        : 1000.0 * static_cast<double>(s.accesses) /
                              static_cast<double>(s.insts);
}

double
missRate(const Sample& s)
{
    return s.accesses == 0 ? 0.0
                           : static_cast<double>(s.misses) /
                                 static_cast<double>(s.accesses);
}

double
ipc(const Sample& s)
{
    return s.cycles == 0 ? 0.0
                         : static_cast<double>(s.insts) /
                               static_cast<double>(s.cycles);
}

/** Min-max normalize each dimension to [0, 1] (flat dims collapse to
 * 0 so they cannot dominate the distance). */
std::vector<Features>
extractFeatures(const std::vector<Sample>& samples)
{
    std::vector<Features> f(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        f[i].v[0] = samples[i].mpki();
        f[i].v[1] = apki(samples[i]);
        f[i].v[2] = missRate(samples[i]);
        f[i].v[3] = ipc(samples[i]);
    }
    for (std::size_t d = 0; d < kDims; ++d) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const Features& x : f) {
            lo = std::min(lo, x.v[d]);
            hi = std::max(hi, x.v[d]);
        }
        const double range = hi - lo;
        for (Features& x : f)
            x.v[d] = range > 0.0 ? (x.v[d] - lo) / range : 0.0;
    }
    return f;
}

double
dist2(const Features& a, const Features& b)
{
    double d2 = 0.0;
    for (std::size_t d = 0; d < kDims; ++d) {
        const double diff = a.v[d] - b.v[d];
        d2 += diff * diff;
    }
    return d2;
}

bool
sameFeatures(const Features& a, const Features& b)
{
    for (std::size_t d = 0; d < kDims; ++d) {
        if (a.v[d] != b.v[d])
            return false;
    }
    return true;
}

/** Distinct feature vectors, capped at @p cap (the effective k bound). */
std::size_t
countDistinct(const std::vector<Features>& f, std::size_t cap)
{
    std::vector<std::size_t> reps;
    for (std::size_t i = 0; i < f.size() && reps.size() < cap; ++i) {
        bool seen = false;
        for (std::size_t r : reps) {
            if (sameFeatures(f[i], f[r])) {
                seen = true;
                break;
            }
        }
        if (!seen)
            reps.push_back(i);
    }
    return reps.size();
}

/**
 * k-means++ style seeding: the first centroid is a seeded draw, each
 * further one the window farthest from its nearest chosen centroid
 * (deterministic tie-break on the lowest index). The Rng is the only
 * randomness and is constructed from the plan seed, so the same series
 * and seed always initialize identically.
 */
std::vector<Features>
initCentroids(const std::vector<Features>& f, std::size_t k, Rng& rng)
{
    std::vector<Features> centroids;
    centroids.reserve(k);
    centroids.push_back(f[rng.nextBounded(f.size())]);
    while (centroids.size() < k) {
        std::size_t best = 0;
        double best_d2 = -1.0;
        for (std::size_t i = 0; i < f.size(); ++i) {
            double nearest = std::numeric_limits<double>::infinity();
            for (const Features& c : centroids)
                nearest = std::min(nearest, dist2(f[i], c));
            if (nearest > best_d2) {
                best_d2 = nearest;
                best = i;
            }
        }
        centroids.push_back(f[best]);
    }
    return centroids;
}

std::string
formatUnsigned(std::uint64_t v)
{
    return std::to_string(v);
}

bool
getNumber(const obs::json::Value& obj, const char* key, double& out)
{
    const obs::json::Value* v = obj.find(key);
    if (v == nullptr || !v->isNumber())
        return false;
    out = v->num;
    return true;
}

} // namespace

double
SamplingPlan::coverage() const
{
    if (totalWindows == 0)
        return 0.0;
    // Union of the merged [window - warmup, window] delivery ranges:
    // overlapping warm-up prefixes must not double-count, or a plan
    // could claim full coverage while windows go undelivered. Windows
    // are validated strictly ascending, so one sorted pass merges.
    std::uint64_t detail = 0;
    std::uint64_t first = 0, last = 0;
    bool open = false;
    for (const PlanInterval& iv : intervals) {
        const std::uint64_t warm =
            std::min<std::uint64_t>(warmupWindows, iv.window);
        const std::uint64_t lo = iv.window - warm;
        if (open && lo <= last + 1) {
            last = std::max(last, iv.window);
        } else {
            if (open)
                detail += last - first + 1;
            first = lo;
            last = iv.window;
            open = true;
        }
    }
    if (open)
        detail += last - first + 1;
    const double c = static_cast<double>(detail) /
                     static_cast<double>(totalWindows);
    return c > 1.0 ? 1.0 : c;
}

std::string
SamplingPlan::validate() const
{
    if (samplePeriodUs <= 0.0)
        return "sample_period_us must be positive";
    if (coreFreqGhz <= 0.0)
        return "core_freq_ghz must be positive";
    if (intervals.empty())
        return totalWindows == 0 ? std::string()
                                 : "no intervals for a non-empty series";
    double weight_sum = 0.0;
    double inst_sum = 0.0;
    std::uint64_t prev_window = 0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const PlanInterval& iv = intervals[i];
        if (iv.window >= totalWindows) {
            return "interval window " + formatUnsigned(iv.window) +
                   " out of range (total_windows " +
                   formatUnsigned(totalWindows) + ")";
        }
        if (i > 0 && iv.window <= prev_window)
            return "interval windows must be strictly ascending";
        prev_window = iv.window;
        if (iv.phase >= intervals.size())
            return "interval phase id out of range";
        if (iv.windows == 0)
            return "interval covers zero windows";
        if (!(iv.weight > 0.0) || iv.weight > 1.0)
            return "interval weight outside (0, 1]";
        if (iv.instWeight < 0.0 || iv.instWeight > 1.0)
            return "interval inst_weight outside [0, 1]";
        weight_sum += iv.weight;
        inst_sum += iv.instWeight;
    }
    if (std::abs(weight_sum - 1.0) > 1e-9)
        return "interval weights sum to " +
               obs::json::number(weight_sum) + ", expected 1";
    if (std::abs(inst_sum - 1.0) > 1e-9)
        return "interval inst_weights sum to " +
               obs::json::number(inst_sum) + ", expected 1";
    return std::string();
}

std::string
SamplingPlan::toJson() const
{
    using obs::json::number;
    using obs::json::quote;
    std::string out = "{\n";
    out += "  \"schema\": " + quote(kPlanSchema) + ",\n";
    out += "  \"workload\": " + quote(workload) + ",\n";
    out += "  \"seed\": " + formatUnsigned(seed) + ",\n";
    out += "  \"sample_period_us\": " + number(samplePeriodUs) + ",\n";
    out += "  \"core_freq_ghz\": " + number(coreFreqGhz) + ",\n";
    out += "  \"total_windows\": " + formatUnsigned(totalWindows) + ",\n";
    out += "  \"warmup_windows\": " + formatUnsigned(warmupWindows) +
           ",\n";
    out += "  \"coverage\": " + number(coverage()) + ",\n";
    out += "  \"intervals\": [";
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const PlanInterval& iv = intervals[i];
        if (i)
            out += ",";
        out += "\n    {\"window\": " + formatUnsigned(iv.window) +
               ", \"phase\": " + formatUnsigned(iv.phase) +
               ", \"windows\": " + formatUnsigned(iv.windows) +
               ", \"weight\": " + number(iv.weight) +
               ", \"inst_weight\": " + number(iv.instWeight) + "}";
    }
    out += intervals.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
SamplingPlan::writeFile(const std::string& path) const
{
    writeFileAtomic(path, toJson());
}

bool
SamplingPlan::parse(const std::string& text, SamplingPlan& out,
                    std::string* error)
{
    auto fail = [&](const std::string& what) {
        if (error != nullptr)
            *error = what;
        return false;
    };

    obs::json::Value root;
    std::string perr;
    if (!obs::json::parse(text, root, &perr))
        return fail("plan JSON: " + perr);
    if (!root.isObject())
        return fail("plan JSON: top level is not an object");

    const obs::json::Value* schema = root.find("schema");
    if (schema == nullptr || !schema->isString())
        return fail("plan JSON: missing schema");
    if (schema->str != kPlanSchema) {
        return fail("plan schema '" + schema->str + "', expected '" +
                    kPlanSchema + "'");
    }

    SamplingPlan plan;
    const obs::json::Value* workload = root.find("workload");
    if (workload == nullptr || !workload->isString())
        return fail("plan JSON: missing workload");
    plan.workload = workload->str;

    double num = 0.0;
    if (!getNumber(root, "seed", num))
        return fail("plan JSON: missing seed");
    plan.seed = static_cast<std::uint64_t>(num);
    if (!getNumber(root, "sample_period_us", num))
        return fail("plan JSON: missing sample_period_us");
    plan.samplePeriodUs = num;
    if (!getNumber(root, "core_freq_ghz", num))
        return fail("plan JSON: missing core_freq_ghz");
    plan.coreFreqGhz = num;
    if (!getNumber(root, "total_windows", num))
        return fail("plan JSON: missing total_windows");
    plan.totalWindows = static_cast<std::uint64_t>(num);
    if (!getNumber(root, "warmup_windows", num))
        return fail("plan JSON: missing warmup_windows");
    plan.warmupWindows = static_cast<std::uint64_t>(num);

    const obs::json::Value* intervals = root.find("intervals");
    if (intervals == nullptr || !intervals->isArray())
        return fail("plan JSON: missing intervals array");
    for (const obs::json::Value& elem : intervals->arr) {
        if (!elem.isObject())
            return fail("plan JSON: interval is not an object");
        PlanInterval iv;
        if (!getNumber(elem, "window", num))
            return fail("plan JSON: interval missing window");
        iv.window = static_cast<std::uint64_t>(num);
        if (!getNumber(elem, "phase", num))
            return fail("plan JSON: interval missing phase");
        iv.phase = static_cast<std::uint64_t>(num);
        if (!getNumber(elem, "windows", num))
            return fail("plan JSON: interval missing windows");
        iv.windows = static_cast<std::uint64_t>(num);
        if (!getNumber(elem, "weight", num))
            return fail("plan JSON: interval missing weight");
        iv.weight = num;
        // Hand-written plans may omit inst_weight; window-count
        // weights are the honest fallback.
        iv.instWeight =
            getNumber(elem, "inst_weight", num) ? num : iv.weight;
        plan.intervals.push_back(iv);
    }

    const std::string defect = plan.validate();
    if (!defect.empty())
        return fail("plan invalid: " + defect);
    out = std::move(plan);
    return true;
}

bool
SamplingPlan::load(const std::string& path, SamplingPlan& out,
                   std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!SamplingPlan::parse(text.str(), out, error)) {
        if (error != nullptr)
            *error = path + ": " + *error;
        return false;
    }
    return true;
}

SamplingPlan
clusterPhases(const std::vector<Sample>& samples,
              const std::string& workload,
              const PhaseClusterParams& params)
{
    SamplingPlan plan;
    plan.workload = workload;
    plan.seed = params.seed;
    plan.totalWindows = samples.size();
    plan.warmupWindows = params.warmupWindows;
    if (samples.empty())
        return plan;

    const std::vector<Features> f = extractFeatures(samples);
    const std::size_t k_cap =
        std::max<unsigned>(params.maxPhases, 1);
    const std::size_t k =
        std::min(countDistinct(f, k_cap), f.size());

    Rng rng(params.seed);
    std::vector<Features> centroids = initCentroids(f, k, rng);
    std::vector<std::size_t> assign(f.size(), 0);
    for (unsigned it = 0; it < kIterations; ++it) {
        // Assignment: nearest centroid, ties to the lowest cluster id.
        bool moved = false;
        for (std::size_t i = 0; i < f.size(); ++i) {
            std::size_t best = 0;
            double best_d2 = dist2(f[i], centroids[0]);
            for (std::size_t c = 1; c < k; ++c) {
                const double d2 = dist2(f[i], centroids[c]);
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best = c;
                }
            }
            if (assign[i] != best) {
                assign[i] = best;
                moved = true;
            }
        }
        // Update: mean of assigned windows; an emptied cluster keeps
        // its centroid (it can re-acquire members later).
        std::vector<Features> sums(k, Features{{0, 0, 0, 0}});
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t i = 0; i < f.size(); ++i) {
            for (std::size_t d = 0; d < kDims; ++d)
                sums[assign[i]].v[d] += f[i].v[d];
            ++counts[assign[i]];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            for (std::size_t d = 0; d < kDims; ++d)
                centroids[c].v[d] =
                    sums[c].v[d] / static_cast<double>(counts[c]);
        }
        if (!moved)
            break;
    }

    // Phase membership, in ascending window order (i ascends).
    std::vector<std::vector<std::size_t>> members(k);
    for (std::size_t i = 0; i < f.size(); ++i)
        members[assign[i]].push_back(i);

    // Error-bound-driven representative allocation. One representative
    // per phase suffices only when the phase is homogeneous; a large
    // phase with spread (a miss burst clustered among quiet windows)
    // makes the single window's counts stand for a mean they do not
    // match. Treat each phase as a stratum: predict the stratified-
    // sampling variance of every count the estimator integrates
    // (insts, accesses, misses) from the profile series itself, then
    // grant extra representatives to whichever phase most reduces the
    // worst predicted relative error, until that error meets
    // kErrorTarget or every window is a representative. Homogeneous
    // phases never pay for extras.
    constexpr std::size_t kMetrics = 3;
    auto metric = [&samples](std::size_t i, std::size_t m) {
        const Sample& s = samples[i];
        return static_cast<double>(m == 0   ? s.insts
                                   : m == 1 ? s.accesses
                                            : s.misses);
    };
    std::vector<std::array<double, kMetrics>> var(
        k, std::array<double, kMetrics>{});
    std::array<double, kMetrics> totals{};
    for (std::size_t c = 0; c < k; ++c) {
        const double n = static_cast<double>(members[c].size());
        if (n == 0.0)
            continue;
        for (std::size_t m = 0; m < kMetrics; ++m) {
            double sum = 0.0;
            for (std::size_t i : members[c])
                sum += metric(i, m);
            const double mean = sum / n;
            double ss = 0.0;
            for (std::size_t i : members[c]) {
                const double d = metric(i, m) - mean;
                ss += d * d;
            }
            var[c][m] = ss / n;
            totals[m] += sum;
        }
    }

    std::vector<std::size_t> nreps(k);
    std::size_t total_reps = 0;
    for (std::size_t c = 0; c < k; ++c) {
        nreps[c] = members[c].empty() ? 0 : 1;
        total_reps += nreps[c];
    }
    // Variance of a stratum's estimated total shrinks as 1/n and hits
    // zero when every member is simulated (the 1/count term).
    auto predictedRelErr = [&](std::size_t m) {
        double v = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            const double cnt = static_cast<double>(members[c].size());
            if (cnt == 0.0)
                continue;
            v += cnt * cnt * var[c][m] *
                 (1.0 / static_cast<double>(nreps[c]) - 1.0 / cnt);
        }
        return totals[m] > 0.0 ? std::sqrt(v) / totals[m] : 0.0;
    };
    while (total_reps < f.size()) {
        std::size_t worst_m = 0;
        double worst = 0.0;
        for (std::size_t m = 0; m < kMetrics; ++m) {
            const double e = predictedRelErr(m);
            if (e > worst) {
                worst = e;
                worst_m = m;
            }
        }
        if (worst <= kErrorTarget)
            break;
        std::size_t best_c = k;
        double best_gain = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            const double cnt = static_cast<double>(members[c].size());
            if (nreps[c] == 0 || nreps[c] >= members[c].size())
                continue;
            const double n = static_cast<double>(nreps[c]);
            const double gain =
                cnt * cnt * var[c][worst_m] * (1.0 / n - 1.0 / (n + 1.0));
            if (gain > best_gain) {
                best_gain = gain;
                best_c = c;
            }
        }
        if (best_c == k)
            break; // every heterogeneous phase is fully simulated
        ++nreps[best_c];
        ++total_reps;
    }

    // Carve each phase's members into nreps contiguous strata and pick
    // each stratum's representative: the member closest to the
    // stratum's feature mean (ties to the lowest window index, so
    // selection is deterministic even among identical windows).
    double total_insts = 0.0;
    for (const Sample& s : samples)
        total_insts += static_cast<double>(s.insts);
    for (std::size_t c = 0; c < k; ++c) {
        const std::vector<std::size_t>& mem = members[c];
        for (std::size_t r = 0; r < nreps[c]; ++r) {
            const std::size_t lo = mem.size() * r / nreps[c];
            const std::size_t hi = mem.size() * (r + 1) / nreps[c];
            Features fm{};
            double stratum_insts = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                for (std::size_t d = 0; d < kDims; ++d)
                    fm.v[d] += f[mem[i]].v[d];
                stratum_insts +=
                    static_cast<double>(samples[mem[i]].insts);
            }
            for (std::size_t d = 0; d < kDims; ++d)
                fm.v[d] /= static_cast<double>(hi - lo);
            std::size_t best = lo;
            double best_d2 = dist2(f[mem[lo]], fm);
            for (std::size_t i = lo + 1; i < hi; ++i) {
                const double d2 = dist2(f[mem[i]], fm);
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best = i;
                }
            }
            PlanInterval iv;
            iv.window = mem[best];
            iv.windows = hi - lo;
            iv.weight = static_cast<double>(hi - lo) /
                        static_cast<double>(f.size());
            // An all-idle series (no retired instructions) falls back
            // to window-count weights so the plan stays well-formed.
            iv.instWeight = total_insts > 0.0
                ? stratum_insts / total_insts
                : iv.weight;
            plan.intervals.push_back(iv);
        }
    }

    // Emit in window order with dense phase ids (an interval's "phase"
    // is its stratum; heterogeneous k-means phases span several).
    std::sort(plan.intervals.begin(), plan.intervals.end(),
              [](const PlanInterval& a, const PlanInterval& b) {
                  return a.window < b.window;
              });
    for (std::size_t p = 0; p < plan.intervals.size(); ++p)
        plan.intervals[p].phase = p;
    return plan;
}

std::string
planPath(const std::string& base, const std::string& workload)
{
    const std::string ext = ".plan.json";
    std::string stem = base;
    if (stem.size() >= ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
        stem.resize(stem.size() - ext.size());
    }
    return stem + "." + workload + ext;
}

} // namespace cosim
