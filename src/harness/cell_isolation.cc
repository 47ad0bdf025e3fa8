#include "harness/cell_isolation.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <thread>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/stats_registry.hh"

namespace cosim {

namespace {

/** Last non-empty line of @p text (child stderr -> cell error). */
std::string
lastLine(const std::string& text)
{
    const std::size_t end = text.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return "";
    const std::size_t nl = text.rfind('\n', end);
    const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
    return text.substr(start, end - start + 1);
}

std::string
describeProcess(const SubprocessResult& r)
{
    std::string msg = "cell process " + r.describe();
    const std::string tail = lastLine(r.stderrTail);
    if (!tail.empty())
        msg += ": " + tail;
    return msg;
}

/** Slurp @p path. @return false when it cannot be opened. */
bool
readWholeFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** A JSON array of numbers, each exact through json::number. */
std::string
numbers(std::initializer_list<double> values)
{
    std::string out = "[";
    for (double v : values) {
        if (out.size() > 1)
            out += ",";
        out += obs::json::number(v);
    }
    return out + "]";
}

double
at(const obs::json::Value* arr, std::size_t i)
{
    return arr != nullptr && i < arr->arr.size() ? arr->arr[i].num : 0.0;
}

std::uint64_t
u64At(const obs::json::Value* arr, std::size_t i)
{
    return static_cast<std::uint64_t>(at(arr, i));
}

/**
 * Build the child's argv from the sweep's own: keep everything that
 * shapes what the cell computes, strip everything that must stay a
 * parent concern -- recursion guards (--isolate-cells / --journal /
 * --resume), the fault plan (nth counters are per process; the parent
 * translates cell.proc.* into an explicit --self-destruct order),
 * scheduling, and telemetry sinks -- then append the cell order.
 */
std::vector<std::string>
childArgv(const BenchOptions& opts, const std::string& label,
          const std::string& result_path)
{
    static const char* const kStripPrefixes[] = {
        "--journal=",       "--resume=",      "--faults=",
        "--jobs=",          "--retry-cells=", "--cell-timeout=",
        "--progress-file=", "--metrics=",     "--trace=",
        "--stats=",         "--manifest=",    "--plan-out=",
    };
    std::vector<std::string> argv;
    argv.reserve(opts.selfArgv.size() + 2);
    for (const std::string& arg : opts.selfArgv) {
        if (arg == "--isolate-cells" || arg == "--journal" ||
            arg == "--keep-going" || arg == "--progress") {
            continue;
        }
        bool strip = false;
        for (const char* prefix : kStripPrefixes) {
            if (arg.rfind(prefix, 0) == 0) {
                strip = true;
                break;
            }
        }
        if (!strip)
            argv.push_back(arg);
    }
    argv.push_back("--run-cell=" + label);
    argv.push_back("--cell-result=" + result_path);
    return argv;
}

} // namespace

CellProcessError::CellProcessError(const SubprocessResult& r)
    : std::runtime_error(describeProcess(r)), result(r)
{}

std::string
cellArtifactPath(const BenchOptions& opts, const std::string& label)
{
    // One flat directory: per-config labels ("PLSA/64MB") flatten.
    std::string file = label;
    std::replace(file.begin(), file.end(), '/', '_');
    return opts.outDir + "/cells/" + file + ".cell.json";
}

std::string
renderCellArtifact(const CellOutput& cell, const std::string& stats_prefix)
{
    // Every value must round-trip exactly: json::number is exact for
    // doubles (and integers below 2^53); the one value that cannot
    // survive a JSON double -- the 64-bit stream digest -- rides as a
    // decimal string.
    using obs::json::number;
    std::string out = "{\"schema\":" + obs::json::quote(kCellResultSchema) +
                      ",\n\"workload\":" + cell.mw.toJson() +
                      ",\n\"failed\":" + (cell.failed ? "true" : "false") +
                      ",\"guest_executions\":" +
                      std::to_string(cell.guestExecutions);
    out += ",\n\"points\":[";
    for (std::size_t i = 0; i < cell.points.size(); ++i) {
        const SweepPoint& p = cell.points[i];
        out += (i ? "," : "") +
               numbers({double(p.nCores), double(p.llcSize),
                        double(p.lineSize), double(p.llcAccesses),
                        double(p.llcMisses), double(p.insts)});
    }
    out += "]";
    if (cell.hasDigest) {
        out += ",\n\"digest\":[" + std::to_string(cell.streamTxns) +
               ",\"" + std::to_string(cell.streamDigest) + "\"]";
    }
    out += ",\n\"capture\":" +
           numbers({double(cell.captureTxns), double(cell.captureBytes),
                    cell.captureSeconds}) +
           ",\"replay\":" +
           numbers({double(cell.replayTxns), double(cell.replayBytes),
                    cell.replaySeconds});
    out += ",\n\"cb_samples\":[";
    for (std::size_t i = 0; i < cell.cbSamples.size(); ++i) {
        const Sample& s = cell.cbSamples[i];
        out += (i ? "," : "") +
               numbers({s.timeUs, double(s.insts), double(s.cycles),
                        double(s.accesses), double(s.misses)});
    }
    // The cell's frozen stats namespaces, so the parent's (or a
    // resumed run's) stats dump matches an in-process run's exactly.
    obs::StatsRegistry stats;
    stats.addSnapshotOf(obs::StatsRegistry::global(), stats_prefix,
                        stats_prefix);
    return out + "],\n\"stats\":" + stats.dumpJson() + "}\n";
}

bool
parseCellArtifact(const std::string& text, CellOutput* out,
                  std::string* error)
{
    obs::json::Value root;
    if (!obs::json::parse(text, root, error))
        return false;
    const obs::json::Value* schema = root.find("schema");
    if (schema == nullptr || schema->str != kCellResultSchema) {
        *error = "unexpected schema";
        return false;
    }
    CellOutput cell;
    const obs::json::Value* w = root.find("workload");
    if (w == nullptr || !obs::ManifestWorkload::fromJson(*w, &cell.mw)) {
        *error = "missing workload object";
        return false;
    }
    const obs::json::Value* failed = root.find("failed");
    cell.failed = failed != nullptr && failed->boolean;
    if (const obs::json::Value* g = root.find("guest_executions"))
        cell.guestExecutions = static_cast<std::uint64_t>(g->num);
    if (const obs::json::Value* pts = root.find("points")) {
        for (const obs::json::Value& pv : pts->arr) {
            SweepPoint p;
            p.workload = cell.mw.name;
            p.nCores = static_cast<unsigned>(u64At(&pv, 0));
            p.llcSize = u64At(&pv, 1);
            p.lineSize = static_cast<std::uint32_t>(u64At(&pv, 2));
            p.llcAccesses = u64At(&pv, 3);
            p.llcMisses = u64At(&pv, 4);
            p.insts = u64At(&pv, 5);
            cell.points.push_back(std::move(p));
        }
    }
    if (const obs::json::Value* d = root.find("digest")) {
        cell.hasDigest = true;
        cell.streamTxns = u64At(d, 0);
        if (d->arr.size() > 1)
            cell.streamDigest =
                std::strtoull(d->arr[1].str.c_str(), nullptr, 10);
    }
    const obs::json::Value* cap = root.find("capture");
    cell.captureTxns = u64At(cap, 0);
    cell.captureBytes = u64At(cap, 1);
    cell.captureSeconds = at(cap, 2);
    const obs::json::Value* rep = root.find("replay");
    cell.replayTxns = u64At(rep, 0);
    cell.replayBytes = u64At(rep, 1);
    cell.replaySeconds = at(rep, 2);
    if (const obs::json::Value* cb = root.find("cb_samples")) {
        for (const obs::json::Value& sv : cb->arr) {
            Sample s;
            s.timeUs = at(&sv, 0);
            s.insts = u64At(&sv, 1);
            s.cycles = u64At(&sv, 2);
            s.accesses = u64At(&sv, 3);
            s.misses = u64At(&sv, 4);
            cell.cbSamples.push_back(s);
        }
    }
    // Re-register the frozen stats namespaces -- the same shape an
    // in-process cell's snapshot leaves behind.
    if (const obs::json::Value* groups = root.find("stats")) {
        for (const auto& g : groups->obj) {
            stats::Group group(g.first);
            group.reserve(0, g.second.obj.size());
            for (const auto& stat : g.second.obj) {
                const double value = stat.second.num;
                group.add(stat.first, [value] { return value; });
            }
            obs::StatsRegistry::global().add(std::move(group));
        }
    }
    *out = std::move(cell);
    return true;
}

std::map<std::string, CellOutput>
loadResumedCells(const JournalState& js)
{
    std::map<std::string, CellOutput> cells;
    for (const auto& [label, jc] : js.cells) {
        if (jc.state != "done" && jc.state != "skipped")
            continue;
        std::uint64_t digest = 0;
        std::uint64_t bytes = 0;
        std::string text;
        CellOutput cell;
        std::string error;
        if (!digestFileFnv(jc.artifact, &digest, &bytes) ||
            digest != jc.artifactDigest || bytes != jc.artifactBytes ||
            !readWholeFile(jc.artifact, &text) ||
            !parseCellArtifact(text, &cell, &error)) {
            warn("resume: artifact for cell '%s' does not verify; "
                 "re-running it", label.c_str());
            continue;
        }
        cells.emplace(label, std::move(cell));
    }
    return cells;
}

CellOutput
runIsolatedCell(const std::string& label, const BenchOptions& opts,
                obs::SweepProgress* progress, std::size_t cell_idx,
                obs::HeartbeatSlot* slot, SweepJournal* journal,
                unsigned attempt_no)
{
    const std::string artifact = cellArtifactPath(opts, label);

    SubprocessOptions sp;
    sp.argv = childArgv(opts, label, artifact);
    // cell.proc.* fire in the *parent's* injector (the child never
    // sees --faults, so sweep-wide nth counting stays in one process)
    // and turn into an explicit order the child obeys at startup.
    if (faultPending("cell.proc.crash")) {
        sp.argv.push_back("--self-destruct=segv");
    } else if (faultPending("cell.proc.stall")) {
        const double secs =
            opts.cellTimeout > 0.0 ? opts.cellTimeout * 1.5 : 0.25;
        sp.argv.push_back(strFormat("--self-destruct=stall:%.3f", secs));
    }
    sp.silenceTimeout = opts.cellTimeout;
    sp.heartbeatPipe = true;
    if (slot != nullptr) {
        sp.onHeartbeat = [slot](std::uint64_t) { slot->pulse(); };
    }
    sp.onSpawn = [&](int pid) {
        if (journal != nullptr)
            journal->cellRunning(label, attempt_no, pid);
        if (progress != nullptr)
            progress->cellSpawned(cell_idx, pid);
    };

    SubprocessResult r = runSubprocess(sp);
    if (obs::metrics::enabled()) {
        static const obs::metrics::Histogram rss_kb =
            obs::metrics::histogram("sweep.cell_rss_kb",
                                    "isolated cell child peak RSS (KB)");
        rss_kb.record(r.maxRssKb);
    }
    if (!r.ok()) {
        if (progress != nullptr &&
            r.end != SubprocessResult::End::Exited) {
            progress->cellKilled(cell_idx, r.pid, r.describe());
        }
        throw CellProcessError(r);
    }

    std::string text;
    if (!readWholeFile(artifact, &text))
        throw std::runtime_error("cell result missing: " + artifact);
    CellOutput cell;
    std::string err;
    if (!parseCellArtifact(text, &cell, &err)) {
        throw std::runtime_error("cell result " + artifact + ": " + err);
    }
    return cell;
}

[[noreturn]] void
runCellChild(const SweepFigure& fig, const SweepPlan& plan)
{
    const BenchOptions& opts = fig.opts;
    const std::string& label = opts.runCell;
    try {
        // Parent-injected self-destruct (see runIsolatedCell): crash
        // before doing any work, or go silent long enough for the
        // parent's watchdog to shoot us.
        if (opts.selfDestruct == "segv") {
            std::raise(SIGSEGV);
        } else if (opts.selfDestruct.rfind("stall:", 0) == 0) {
            const double secs = std::atof(opts.selfDestruct.c_str() + 6);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(secs));
        }

        // Liveness flows to the parent through the inherited pipe fd;
        // without one the slot is a harmless local sink.
        obs::HeartbeatSlot beat;
        if (opts.heartbeatFd >= 0)
            beat.bindPipe(opts.heartbeatFd);

        const auto cell =
            std::find_if(plan.cells.begin(), plan.cells.end(),
                         [&](const SweepCell& c) { return c.label == label; });
        if (cell == plan.cells.end())
            throw std::runtime_error("unknown cell '" + label + "'");
        // Isolation requires file-backed streams and plans
        // (parseBenchArgs enforces it), so no cell depends on a phase-1
        // output and every input resolves from disk.
        WorkloadStream ws = resolveStream(fig, cell->workload);
        if (ws.base.failed)
            throw std::runtime_error(ws.base.mw.error);
        RigSlot rig;
        CellOutput out =
            runCellBody(fig, *cell, rig.acquire(fig, *cell, 1, &beat), ws);
        out.mw.status = "ok";
        out.mw.attempts = 1;
        writeFileAtomic(opts.cellResultFile,
                        renderCellArtifact(out, "cell/" + label + "/"));
        std::exit(0);
    } catch (const std::exception& e) {
        // One line the parent's stderr tail turns into the cell error.
        std::fprintf(stderr, "cosim-cell-error: %s\n", e.what());
        std::exit(1);
    }
}

} // namespace cosim
