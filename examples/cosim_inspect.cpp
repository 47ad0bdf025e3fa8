/**
 * @file
 * cosim-inspect: pretty-print and validate sweep artifacts.
 *
 * Every sweep run writes a machine-readable `run.json` next to its
 * figure CSVs (configuration, source revision, per-workload results,
 * the CB 500 us MPKI series, host timing). This tool renders one for
 * humans: a summary header, a per-workload table, and a sparkline of
 * each workload's MPKI series.
 *
 * The other subcommands validate the artifacts a finished or
 * interrupted sweep leaves behind (CI runs them against resumed
 * sweeps; see DESIGN.md "Crash-safe sweeps"):
 *
 *   cosim_inspect <run.json>              pretty-print a run manifest
 *   cosim_inspect plan <file.plan.json>   sampling plan: cosim-plan/1
 *                                         schema and structural
 *                                         invariants (SamplingPlan)
 *   cosim_inspect journal <file.jsonl>    sweep write-ahead journal:
 *                                         cosim-journal/1 schema, dense
 *                                         seq, per-cell state machine,
 *                                         no cell left unfinished
 *   cosim_inspect diff-run <a> <b>        compare two run manifests
 *                                         after dropping host timing
 *                                         and the resume block (the
 *                                         crash-and-resume CI gate)
 *   cosim_inspect sampling <run.json> <tolerances.json> [baseline.json]
 *                          [--min-speedup=<x>]
 *                                         gate a sampled run's per-
 *                                         metric relative error against
 *                                         the tolerance file; with a
 *                                         full-run baseline manifest,
 *                                         print the wall-clock speedup
 *                                         (and fail below the optional
 *                                         --min-speedup bound)
 *
 * Exit status: 0 valid, 1 invalid or unreadable, 2 usage.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/sweep_journal.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "trace/phase_cluster.hh"

using namespace cosim;
using obs::json::Value;

namespace {

double
numberOr(const Value* v, double fallback)
{
    return v != nullptr && v->isNumber() ? v->num : fallback;
}

std::string
stringOr(const Value* v, const std::string& fallback)
{
    return v != nullptr && v->isString() ? v->str : fallback;
}

std::string
sparkline(const std::vector<double>& values, std::size_t width)
{
    static const char* levels[] = {"▁", "▂", "▃",
                                   "▄", "▅", "▆",
                                   "▇", "█"};
    double max_v = 0.0;
    for (double v : values)
        max_v = std::max(max_v, v);
    if (max_v <= 0.0 || values.empty())
        return std::string();

    std::string out;
    std::size_t n = std::min(width, values.size());
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t lo = col * values.size() / n;
        std::size_t hi = std::max(lo + 1, (col + 1) * values.size() / n);
        double sum = 0.0;
        for (std::size_t k = lo; k < hi && k < values.size(); ++k)
            sum += values[k];
        double v = sum / static_cast<double>(hi - lo);
        auto idx = static_cast<std::size_t>(7.0 * v / max_v);
        out += levels[std::min<std::size_t>(idx, 7)];
    }
    return out;
}

std::vector<double>
numberList(const Value* v)
{
    std::vector<double> out;
    if (v == nullptr || !v->isArray())
        return out;
    for (const Value& e : v->arr) {
        if (e.isNumber())
            out.push_back(e.num);
    }
    return out;
}

/** The whole file, or empty with *ok=false when unreadable. */
std::string
readAll(const char* path, bool* ok)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cosim_inspect: cannot open '%s'\n", path);
        *ok = false;
        return std::string();
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    *ok = true;
    return buf.str();
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

/**
 * Validate a sampling plan (trace/phase_cluster.hh): the cosim-plan/1
 * schema plus SamplingPlan::validate()'s structural invariants (ordered
 * unique windows in range, normalized weights, positive geometry).
 * Prints the summary a plan consumer would see.
 */
int
inspectPlan(const char* path)
{
    SamplingPlan plan;
    std::string error;
    if (!SamplingPlan::load(path, plan, &error)) {
        std::fprintf(stderr, "cosim_inspect: %s: %s\n", path,
                     error.c_str());
        return 1;
    }

    std::printf("%s: %s, seed %llu\n", path, plan.workload.c_str(),
                static_cast<unsigned long long>(plan.seed));
    std::printf("  %zu interval(s) over %llu windows "
                "(%.0fus @ %.1fGHz), %llu warm-up, coverage %.1f%%\n",
                plan.intervals.size(),
                static_cast<unsigned long long>(plan.totalWindows),
                plan.samplePeriodUs, plan.coreFreqGhz,
                static_cast<unsigned long long>(plan.warmupWindows),
                100.0 * plan.coverage());
    for (const PlanInterval& iv : plan.intervals) {
        std::printf("  phase %llu: window %6llu, %llu window(s), "
                    "weight %.4f, inst weight %.4f\n",
                    static_cast<unsigned long long>(iv.phase),
                    static_cast<unsigned long long>(iv.window),
                    static_cast<unsigned long long>(iv.windows),
                    iv.weight, iv.instWeight);
    }
    return 0;
}

/**
 * The tolerance for (workload, metric) under a cosim-sampling-
 * tolerances/1 document: the most specific of a per-workload override,
 * a per-metric bound, and the document default (0.05 when absent).
 */
double
toleranceFor(const Value& doc, const std::string& workload,
             const char* metric)
{
    const Value* workloads = doc.find("workloads");
    if (workloads != nullptr) {
        const Value* w = workloads->find(workload.c_str());
        if (w != nullptr) {
            const Value* m = w->find(metric);
            if (m != nullptr && m->isNumber())
                return m->num;
        }
    }
    const Value* metrics = doc.find("metrics");
    if (metrics != nullptr) {
        const Value* m = metrics->find(metric);
        if (m != nullptr && m->isNumber())
            return m->num;
    }
    return numberOr(doc.find("default"), 0.05);
}

/**
 * Gate a sampled run: every workload's sampling.error metrics in
 * @p run_path must be within the bounds of @p tol_path (the CI
 * accuracy gate). With @p baseline_path (a full-run manifest of the
 * same figure), also prints the wall-clock speedup. Exit 1 when any
 * bound is exceeded, a workload lacks an error record, or the run is
 * not a sampled run.
 */
int
inspectSampling(const char* run_path, const char* tol_path,
                const char* baseline_path, double min_speedup)
{
    bool ok = false;
    const std::string run_text = readAll(run_path, &ok);
    if (!ok)
        return 1;
    const std::string tol_text = readAll(tol_path, &ok);
    if (!ok)
        return 1;

    Value run;
    Value tol;
    std::string error;
    if (!obs::json::parse(run_text, run, &error)) {
        std::fprintf(stderr, "cosim_inspect: %s: %s\n", run_path,
                     error.c_str());
        return 1;
    }
    if (!obs::json::parse(tol_text, tol, &error)) {
        std::fprintf(stderr, "cosim_inspect: %s: %s\n", tol_path,
                     error.c_str());
        return 1;
    }
    const std::string tol_schema = stringOr(tol.find("schema"), "?");
    if (tol_schema != "cosim-sampling-tolerances/1") {
        std::fprintf(stderr,
                     "%s: schema '%s' is not "
                     "cosim-sampling-tolerances/1\n",
                     tol_path, tol_schema.c_str());
        return 1;
    }

    const Value* workloads = run.find("workloads");
    if (workloads == nullptr || !workloads->isArray() ||
        workloads->arr.empty()) {
        std::fprintf(stderr, "%s: no workload entries\n", run_path);
        return 1;
    }

    // The gated metrics: the estimator's per-instruction rates plus
    // the DRAM traffic proxy (absolute LLC miss count error).
    static const char* kMetrics[] = {"cpi", "mpki", "apki", "dram"};

    int bad = 0;
    int gated = 0;
    std::printf("%-10s %8s %8s %8s %8s  coverage\n", "workload",
                "cpi", "mpki", "apki", "dram");
    for (const Value& w : workloads->arr) {
        const std::string name = stringOr(w.find("name"), "?");
        const Value* sampling = w.find("sampling");
        if (sampling == nullptr) {
            std::fprintf(stderr,
                         "%s: workload '%s' has no sampling record "
                         "(not a --cells=sampled run?)\n",
                         run_path, name.c_str());
            ++bad;
            continue;
        }
        const Value* err = sampling->find("error");
        if (err == nullptr) {
            std::fprintf(stderr,
                         "%s: workload '%s' has no error record "
                         "(sampled run without a full-run "
                         "reference)\n",
                         run_path, name.c_str());
            ++bad;
            continue;
        }
        std::printf("%-10s", name.c_str());
        for (const char* metric : kMetrics) {
            const double e = numberOr(err->find(metric), 0.0);
            const double bound = toleranceFor(tol, name, metric);
            const bool over = e > bound;
            std::printf(" %6.2f%%%s", 100.0 * e, over ? "!" : " ");
            ++gated;
            if (over) {
                std::fprintf(stderr,
                             "%s: %s %s error %.2f%% exceeds "
                             "tolerance %.2f%%\n",
                             run_path, name.c_str(), metric,
                             100.0 * e, 100.0 * bound);
                ++bad;
            }
        }
        std::printf("  %5.1f%%\n",
                    100.0 * numberOr(sampling->find("coverage"), 0.0));
    }

    if (baseline_path != nullptr) {
        const std::string base_text = readAll(baseline_path, &ok);
        if (!ok)
            return 1;
        Value base;
        if (!obs::json::parse(base_text, base, &error)) {
            std::fprintf(stderr, "cosim_inspect: %s: %s\n",
                         baseline_path, error.c_str());
            return 1;
        }
        const Value* run_host = run.find("host");
        const Value* base_host = base.find("host");
        const double sampled_wall =
            run_host ? numberOr(run_host->find("wall_seconds"), 0.0)
                     : 0.0;
        const double full_wall =
            base_host ? numberOr(base_host->find("wall_seconds"), 0.0)
                      : 0.0;
        if (sampled_wall <= 0.0 || full_wall <= 0.0) {
            std::fprintf(stderr,
                         "%s/%s: missing host.wall_seconds, cannot "
                         "compute speedup\n",
                         run_path, baseline_path);
            ++bad;
        } else {
            const double speedup = full_wall / sampled_wall;
            if (min_speedup > 0.0) {
                std::printf("speedup: %.2fx (full %.3fs vs sampled "
                            "%.3fs, bound %.2fx)\n",
                            speedup, full_wall, sampled_wall,
                            min_speedup);
                if (speedup < min_speedup) {
                    std::fprintf(stderr,
                                 "%s: speedup %.2fx below bound "
                                 "%.2fx\n",
                                 run_path, speedup, min_speedup);
                    ++bad;
                }
            } else {
                std::printf("speedup: %.2fx (full %.3fs vs sampled "
                            "%.3fs)\n",
                            speedup, full_wall, sampled_wall);
            }
        }
    }

    if (bad == 0)
        std::printf("sampling gate: %d metric(s) within tolerance\n",
                    gated);
    return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Crash-safe sweeps: journal validation, normalized run comparison.
// ---------------------------------------------------------------------

/** u64-ish field: JSON number (counts) or decimal string (digests). */
bool
journalU64(const Value& rec, const char* key, std::string* out)
{
    const Value* v = rec.find(key);
    if (v == nullptr)
        return false;
    if (v->isNumber()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v->num);
        *out = buf;
        return true;
    }
    if (v->isString() && !v->str.empty()) {
        for (char c : v->str) {
            if (c < '0' || c > '9')
                return false;
        }
        *out = v->str;
        return true;
    }
    return false;
}

/**
 * Validate a sweep write-ahead journal (harness/sweep_journal.hh):
 * record 0 is a `sweep_plan` carrying the cosim-journal/1 schema; seq
 * is dense from 0; every event carries its required fields; each
 * cell's records follow the planned -> running -> done/failed state
 * machine (resumes may re-plan a cell). A torn final line (no trailing
 * newline) is noted and ignored -- WAL semantics say the interrupted
 * append never happened -- but a cell left in "running" is an error:
 * the sweep crashed and was never resumed.
 */
int
inspectJournal(const char* path)
{
    bool ok = false;
    const std::string text = readAll(path, &ok);
    if (!ok)
        return 1;

    int bad = 0;
    auto complain = [&](std::size_t lineno, const char* what) {
        std::fprintf(stderr, "%s:%zu: %s\n", path, lineno, what);
        ++bad;
    };

    const bool torn = !text.empty() && text.back() != '\n';
    std::vector<std::string> lines = splitLines(text);
    if (torn && !lines.empty()) {
        std::printf("note: torn final line ignored (interrupted "
                    "append)\n");
        lines.pop_back();
    }

    std::size_t expected_seq = 0;
    std::string figure = "?";
    std::string digest = "?";
    std::size_t planned_cells = 0;
    bool saw_plan = false;
    bool saw_sweep_done = false;
    // Latest state per cell, journal order.
    std::vector<std::pair<std::string, std::string>> cells;
    auto stateOf = [&](const std::string& name) -> std::string& {
        for (auto& entry : cells) {
            if (entry.first == name)
                return entry.second;
        }
        cells.emplace_back(name, std::string());
        return cells.back().second;
    };

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::size_t lineno = i + 1;
        if (lines[i].empty()) {
            complain(lineno, "empty record");
            continue;
        }
        Value rec;
        std::string jerr;
        if (!obs::json::parse(lines[i], rec, &jerr) || !rec.isObject()) {
            complain(lineno, ("bad JSON: " + jerr).c_str());
            continue;
        }
        const Value* seq = rec.find("seq");
        const Value* t_us = rec.find("t_us");
        const Value* event = rec.find("event");
        if (seq == nullptr || !seq->isNumber() || t_us == nullptr ||
            !t_us->isNumber() || event == nullptr ||
            !event->isString()) {
            complain(lineno, "missing seq/t_us/event fields");
            continue;
        }
        if (seq->num != static_cast<double>(expected_seq)) {
            complain(lineno,
                     "seq not dense (journal must number records "
                     "densely from 0, across resumes)");
        }
        ++expected_seq;
        const std::string& ev = event->str;
        if (i == 0 && ev != "sweep_plan") {
            complain(lineno, "first record must be sweep_plan");
        }

        std::string cell_name;
        const Value* cell = rec.find("cell");
        if (cell != nullptr && cell->isString())
            cell_name = cell->str;

        if (ev == "sweep_plan") {
            const std::string schema =
                stringOr(rec.find("schema"), "?");
            if (schema != kJournalSchema) {
                complain(lineno,
                         ("unsupported schema '" + schema + "'").c_str());
            }
            if (saw_plan)
                complain(lineno, "duplicate sweep_plan");
            saw_plan = true;
            figure = stringOr(rec.find("figure"), "?");
            const Value* n = rec.find("cells");
            if (!journalU64(rec, "config_digest", &digest))
                complain(lineno, "missing config_digest");
            if (n == nullptr || !n->isNumber())
                complain(lineno, "missing cells count");
            else
                planned_cells = static_cast<std::size_t>(n->num);
        } else if (ev == "planned") {
            if (cell_name.empty()) {
                complain(lineno, "planned without cell");
                continue;
            }
            stateOf(cell_name) = "planned";
        } else if (ev == "running") {
            const Value* attempt = rec.find("attempt");
            if (cell_name.empty() || attempt == nullptr ||
                !attempt->isNumber() || attempt->num < 1) {
                complain(lineno, "running needs cell and attempt >= 1");
                continue;
            }
            std::string& state = stateOf(cell_name);
            if (state != "planned" && state != "running") {
                complain(lineno,
                         "running without a preceding planned record");
            }
            state = "running";
        } else if (ev == "done" || ev == "failed") {
            const Value* attempts = rec.find("attempts");
            bool fields_ok = !cell_name.empty() && attempts != nullptr &&
                             attempts->isNumber() && attempts->num >= 1;
            if (ev == "done") {
                std::string u64;
                const Value* artifact = rec.find("artifact");
                fields_ok = fields_ok && artifact != nullptr &&
                            artifact->isString() &&
                            journalU64(rec, "bytes", &u64) &&
                            journalU64(rec, "digest", &u64);
            } else {
                const Value* error = rec.find("error");
                fields_ok =
                    fields_ok && error != nullptr && error->isString();
            }
            if (!fields_ok) {
                complain(lineno, ev == "done"
                                     ? "incomplete done record (cell, "
                                       "attempts, artifact, bytes, "
                                       "digest)"
                                     : "incomplete failed record (cell, "
                                       "attempts, error)");
                continue;
            }
            std::string& state = stateOf(cell_name);
            if (state != "running") {
                complain(lineno, ev == "done"
                                     ? "done without a running record"
                                     : "failed without a running record");
            }
            state = ev;
        } else if (ev == "resume_skip") {
            if (cell_name.empty()) {
                complain(lineno, "resume_skip without cell");
                continue;
            }
            std::string& state = stateOf(cell_name);
            if (state != "done" && state != "skipped") {
                complain(lineno, "resume_skip for a cell never recorded "
                                 "done");
            }
            state = "skipped";
        } else if (ev == "resume") {
            std::string u64;
            if (!journalU64(rec, "skipped", &u64) ||
                !journalU64(rec, "rerun", &u64))
                complain(lineno, "resume needs skipped and rerun");
        } else if (ev == "sweep_done") {
            std::string u64;
            if (!journalU64(rec, "ok", &u64) ||
                !journalU64(rec, "failed", &u64))
                complain(lineno, "sweep_done needs ok and failed");
            saw_sweep_done = true;
        } else {
            complain(lineno, ("unknown event '" + ev + "'").c_str());
        }
    }

    if (!saw_plan) {
        std::fprintf(stderr, "%s: no sweep_plan record\n", path);
        return 1;
    }

    std::size_t n_done = 0, n_failed = 0, n_skipped = 0, n_stale = 0;
    for (const auto& entry : cells) {
        if (entry.second == "done")
            ++n_done;
        else if (entry.second == "failed")
            ++n_failed;
        else if (entry.second == "skipped")
            ++n_skipped;
        else
            ++n_stale;
    }
    // A cell left planned/running means the sweep died and nothing
    // resumed it -- exactly what the journal exists to surface.
    for (const auto& entry : cells) {
        if (entry.second == "running" || entry.second == "planned") {
            std::fprintf(stderr,
                         "%s: cell '%s' left '%s' -- interrupted sweep "
                         "(resume it with --resume=%s)\n",
                         path, entry.first.c_str(),
                         entry.second.c_str(), path);
            ++bad;
        }
    }

    std::printf("%s: %zu record(s), figure %s, config digest %s\n",
                path, expected_seq, figure.c_str(), digest.c_str());
    std::printf("  cells: %zu planned, %zu done, %zu failed, "
                "%zu resume-skipped, %zu unfinished%s\n",
                planned_cells, n_done, n_failed, n_skipped, n_stale,
                saw_sweep_done ? "" : " (no sweep_done record)");
    return bad == 0 ? 0 : 1;
}

/** Keys dropped by the diff-run normalization, per enclosing object. */
void
normalizeErase(Value& obj, const char* const* keys, std::size_t n)
{
    if (!obj.isObject())
        return;
    for (std::size_t i = 0; i < obj.obj.size();) {
        bool drop = false;
        for (std::size_t k = 0; k < n; ++k)
            drop = drop || obj.obj[i].first == keys[k];
        if (drop)
            obj.obj.erase(obj.obj.begin() +
                          static_cast<std::ptrdiff_t>(i));
        else
            ++i;
    }
}

/**
 * Strip the fields of a run manifest that legitimately differ between
 * two runs of the same sweep configuration: host timing (wall seconds,
 * MIPS, speedup, profiler phases, stream encode/decode seconds) and
 * the resume block. Older manifests also carry host.dex_threads, a
 * retired guest-threading knob that never changed results. Everything
 * else -- results, series, verification, statuses, stream byte/txn
 * counts -- must match exactly.
 */
void
normalizeRun(Value& doc)
{
    static const char* kTop[] = {"resume"};
    static const char* kHost[] = {"sim_mips", "wall_seconds", "speedup",
                                  "phases", "dex_threads"};
    static const char* kStream[] = {"seconds"};
    static const char* kWorkload[] = {"host_seconds", "sim_mips"};
    normalizeErase(doc, kTop, 1);
    for (auto& member : doc.obj) {
        if (member.first == "host") {
            normalizeErase(member.second, kHost, 5);
        } else if (member.first == "stream") {
            for (auto& sub : member.second.obj) {
                if (sub.first == "capture" || sub.first == "replay")
                    normalizeErase(sub.second, kStream, 1);
            }
        } else if (member.first == "workloads" &&
                   member.second.isArray()) {
            for (Value& w : member.second.arr)
                normalizeErase(w, kWorkload, 2);
        }
    }
}

/** Render a scalar Value for a diff message. */
std::string
briefValue(const Value& v)
{
    switch (v.type) {
      case Value::Type::Null: return "null";
      case Value::Type::Bool: return v.boolean ? "true" : "false";
      case Value::Type::Number: return obs::json::number(v.num);
      case Value::Type::String: return "\"" + v.str + "\"";
      case Value::Type::Array:
        return "[" + std::to_string(v.arr.size()) + " elements]";
      case Value::Type::Object:
        return "{" + std::to_string(v.obj.size()) + " members}";
    }
    return "?";
}

/** Structural comparison; reports every mismatch with its JSON path. */
void
diffValues(const std::string& where, const Value& a, const Value& b,
           int* bad)
{
    if (a.type != b.type) {
        std::fprintf(stderr, "  %s: %s vs %s\n", where.c_str(),
                     briefValue(a).c_str(), briefValue(b).c_str());
        ++*bad;
        return;
    }
    switch (a.type) {
      case Value::Type::Array:
        if (a.arr.size() != b.arr.size()) {
            std::fprintf(stderr, "  %s: %zu vs %zu elements\n",
                         where.c_str(), a.arr.size(), b.arr.size());
            ++*bad;
            return;
        }
        for (std::size_t i = 0; i < a.arr.size(); ++i) {
            diffValues(where + "[" + std::to_string(i) + "]", a.arr[i],
                       b.arr[i], bad);
        }
        return;
      case Value::Type::Object: {
        // Key order is part of the serialization; our own exporter is
        // deterministic, so compare in order.
        if (a.obj.size() != b.obj.size()) {
            std::fprintf(stderr, "  %s: %zu vs %zu members\n",
                         where.c_str(), a.obj.size(), b.obj.size());
            ++*bad;
            return;
        }
        for (std::size_t i = 0; i < a.obj.size(); ++i) {
            if (a.obj[i].first != b.obj[i].first) {
                std::fprintf(stderr, "  %s: key '%s' vs '%s'\n",
                             where.c_str(), a.obj[i].first.c_str(),
                             b.obj[i].first.c_str());
                ++*bad;
                continue;
            }
            diffValues(where + "." + a.obj[i].first, a.obj[i].second,
                       b.obj[i].second, bad);
        }
        return;
      }
      default:
        if (a.boolean != b.boolean || a.num != b.num || a.str != b.str) {
            std::fprintf(stderr, "  %s: %s vs %s\n", where.c_str(),
                         briefValue(a).c_str(), briefValue(b).c_str());
            ++*bad;
        }
        return;
    }
}

/**
 * Compare two run manifests after normalization (see normalizeRun):
 * the crash-and-resume CI gate uses this to assert a resumed sweep
 * reproduced its uninterrupted baseline exactly, host timing aside.
 */
int
inspectDiffRun(const char* path_a, const char* path_b)
{
    Value docs[2];
    const char* paths[2] = {path_a, path_b};
    for (int i = 0; i < 2; ++i) {
        bool ok = false;
        const std::string text = readAll(paths[i], &ok);
        if (!ok)
            return 1;
        std::string error;
        if (!obs::json::parse(text, docs[i], &error)) {
            std::fprintf(stderr, "cosim_inspect: %s: %s\n", paths[i],
                         error.c_str());
            return 1;
        }
        normalizeRun(docs[i]);
    }
    int bad = 0;
    diffValues("run", docs[0], docs[1], &bad);
    if (bad != 0) {
        std::fprintf(stderr,
                     "diff-run: %d difference(s) between %s and %s "
                     "(host timing and resume fields already "
                     "ignored)\n",
                     bad, path_a, path_b);
        return 1;
    }
    std::printf("diff-run: %s and %s describe the same run (host "
                "timing aside)\n",
                path_a, path_b);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 3) {
        const std::string cmd = argv[1];
        if (cmd == "plan")
            return inspectPlan(argv[2]);
        if (cmd == "journal")
            return inspectJournal(argv[2]);
    }
    if (argc == 4 && std::string(argv[1]) == "diff-run")
        return inspectDiffRun(argv[2], argv[3]);
    if (argc >= 4 && argc <= 6) {
        const std::string cmd = argv[1];
        if (cmd == "sampling") {
            const char* baseline = nullptr;
            double min_speedup = 0.0;
            bool args_ok = true;
            for (int i = 4; i < argc; ++i) {
                const std::string arg = argv[i];
                const std::string flag = "--min-speedup=";
                if (arg.compare(0, flag.size(), flag) == 0) {
                    min_speedup =
                        std::strtod(arg.c_str() + flag.size(), nullptr);
                    if (min_speedup <= 0.0) {
                        std::fprintf(stderr,
                                     "cosim_inspect: bad %s\n",
                                     arg.c_str());
                        args_ok = false;
                    }
                } else if (baseline == nullptr) {
                    baseline = argv[i];
                } else {
                    args_ok = false;
                }
            }
            if (args_ok) {
                return inspectSampling(argv[2], argv[3], baseline,
                                       min_speedup);
            }
        }
    }
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: cosim_inspect <run.json>\n"
                     "       cosim_inspect plan <file.plan.json>\n"
                     "       cosim_inspect journal <sweep.journal."
                     "jsonl>\n"
                     "       cosim_inspect diff-run <run.json> "
                     "<run.json>\n"
                     "       cosim_inspect sampling <run.json> "
                     "<tolerances.json> [baseline run.json]\n"
                     "                     [--min-speedup=<x>]\n");
        return 2;
    }

    bool read_ok = false;
    const std::string text = readAll(argv[1], &read_ok);
    if (!read_ok)
        return 1;

    Value doc;
    std::string error;
    if (!obs::json::parse(text, doc, &error)) {
        std::fprintf(stderr, "cosim_inspect: %s: %s\n", argv[1],
                     error.c_str());
        return 1;
    }

    std::string schema = stringOr(doc.find("schema"), "?");
    if (schema != obs::kManifestSchema) {
        std::fprintf(stderr,
                     "warn: schema '%s' (this tool understands '%s'); "
                     "printing anyway\n",
                     schema.c_str(), obs::kManifestSchema);
    }

    const Value* platform = doc.find("platform");
    const Value* config = doc.find("config");
    std::printf("%s\n", stringOr(doc.find("figure"), "(unnamed run)")
                            .c_str());
    std::printf("  revision %s, platform %s (%g cores), scale %g, "
                "seed %g\n",
                stringOr(doc.find("git"), "?").c_str(),
                platform ? stringOr(platform->find("name"), "?").c_str()
                         : "?",
                platform ? numberOr(platform->find("cores"), 0) : 0,
                config ? numberOr(config->find("scale"), 0) : 0,
                config ? numberOr(config->find("seed"), 0) : 0);

    if (config != nullptr) {
        const Value* ticks = config->find("ticks");
        if (ticks != nullptr && ticks->isArray()) {
            std::printf("  sweep:");
            for (const Value& t : ticks->arr)
                std::printf(" %s", t.isString() ? t.str.c_str() : "?");
            std::printf("\n");
        }
    }

    const Value* host = doc.find("host");
    if (host != nullptr) {
        std::printf("  host: %.1f simulated MIPS overall\n",
                    numberOr(host->find("sim_mips"), 0.0));
        const Value* phases = host->find("phases");
        if (phases != nullptr && phases->isArray()) {
            for (const Value& p : phases->arr) {
                std::printf("    %-16s %8.3fs  %6.0f calls\n",
                            stringOr(p.find("name"), "?").c_str(),
                            numberOr(p.find("seconds"), 0.0),
                            numberOr(p.find("calls"), 0.0));
            }
        }
    }

    const Value* stream = doc.find("stream");
    if (stream != nullptr) {
        const Value* capture = stream->find("capture");
        const Value* replay = stream->find("replay");
        std::printf("  cells: %s, %g guest execution(s)\n",
                    stringOr(stream->find("cells"), "combined").c_str(),
                    numberOr(stream->find("guest_executions"), 0.0));
        if (capture != nullptr &&
            numberOr(capture->find("txns"), 0.0) > 0.0) {
            std::printf("  capture: %.0f txns, %.0f bytes, %.3fs "
                        "encoding\n",
                        numberOr(capture->find("txns"), 0.0),
                        numberOr(capture->find("bytes"), 0.0),
                        numberOr(capture->find("seconds"), 0.0));
        }
        if (replay != nullptr &&
            numberOr(replay->find("txns"), 0.0) > 0.0) {
            std::printf("  replay: %.0f txns, %.0f bytes, %.3fs\n",
                        numberOr(replay->find("txns"), 0.0),
                        numberOr(replay->find("bytes"), 0.0),
                        numberOr(replay->find("seconds"), 0.0));
        }
    }

    const Value* workloads = doc.find("workloads");
    if (workloads == nullptr || !workloads->isArray() ||
        workloads->arr.empty()) {
        std::printf("  (no workload entries)\n");
        return 0;
    }

    std::printf("\n  %-10s %10s %9s %7s %5s  mpki per config\n",
                "workload", "insts", "host(s)", "MIPS", "ok?");
    for (const Value& w : workloads->arr) {
        std::string line;
        for (double m : numberList(w.find("mpki_per_config"))) {
            char cell[16];
            std::snprintf(cell, sizeof(cell), " %.2f", m);
            line += cell;
        }
        const Value* verified = w.find("verified");
        std::printf("  %-10s %9.1fM %9.2f %7.1f %5s %s\n",
                    stringOr(w.find("name"), "?").c_str(),
                    numberOr(w.find("insts"), 0.0) / 1e6,
                    numberOr(w.find("host_seconds"), 0.0),
                    numberOr(w.find("sim_mips"), 0.0),
                    verified && verified->isBool()
                        ? (verified->boolean ? "yes" : "NO")
                        : "?",
                    line.c_str());
        std::string replayed = stringOr(w.find("replayed_from"), "");
        if (!replayed.empty())
            std::printf("  %-10s replayed from %s\n", "",
                        replayed.c_str());
    }

    std::printf("\n  500us MPKI series (first config):\n");
    for (const Value& w : workloads->arr) {
        const Value* series = w.find("mpki_series");
        std::vector<double> mpki =
            series ? numberList(series->find("mpki"))
                   : std::vector<double>();
        if (mpki.empty()) {
            std::printf("    %-10s (none)\n",
                        stringOr(w.find("name"), "?").c_str());
            continue;
        }
        double peak = *std::max_element(mpki.begin(), mpki.end());
        std::printf("    %-10s %s peak %.2f (%zu windows)\n",
                    stringOr(w.find("name"), "?").c_str(),
                    sparkline(mpki, 48).c_str(), peak, mpki.size());
    }
    return 0;
}
