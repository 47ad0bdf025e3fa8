#include "harness/sweep_journal.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "base/fault.hh"
#include "base/host_clock.hh"
#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"

namespace cosim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fetch a field as u64, accepting both JSON numbers (counts) and
 * decimal strings (64-bit digests). */
bool
fieldU64(const obs::json::Value& rec, const char* key,
         std::uint64_t* out)
{
    const obs::json::Value* v = rec.find(key);
    if (v == nullptr)
        return false;
    if (v->isNumber()) {
        *out = static_cast<std::uint64_t>(v->num);
        return true;
    }
    if (v->isString()) {
        char* end = nullptr;
        *out = std::strtoull(v->str.c_str(), &end, 10);
        return end != nullptr && *end == '\0' && !v->str.empty();
    }
    return false;
}

bool
fieldStr(const obs::json::Value& rec, const char* key, std::string* out)
{
    const obs::json::Value* v = rec.find(key);
    if (v == nullptr || !v->isString())
        return false;
    *out = v->str;
    return true;
}

/** Slurp @p path. @return false when it cannot be read. */
bool
readWholeFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios_base::binary);
    if (!in.is_open())
        return false;
    std::ostringstream body;
    body << in.rdbuf();
    if (in.bad())
        return false;
    *out = body.str();
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

} // namespace

std::uint64_t
fnv1a64(const void* data, std::size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

bool
digestFileFnv(const std::string& path, std::uint64_t* digest,
              std::uint64_t* bytes)
{
    std::string text;
    if (!readWholeFile(path, &text))
        return false;
    *digest = fnv1a64(text.data(), text.size());
    *bytes = text.size();
    return true;
}

SweepJournal::SweepJournal(const std::string& path,
                           std::uint64_t next_seq)
    : file_(path, /*truncate=*/next_seq == 0), seq_(next_seq)
{}

bool
SweepJournal::append(const std::string& event, const std::string& fields)
{
    LockGuard lock(mutex_);
    if (failed_)
        return false;
    std::string line = "{\"seq\":" + std::to_string(seq_) +
                       ",\"t_us\":" + std::to_string(hostClockNowUs()) +
                       ",\"event\":" + obs::json::quote(event);
    if (!fields.empty())
        line += "," + fields;
    line += "}";
    // The seeded failure and a real one take the same path: warn once,
    // then run journal-less -- the journal must never kill the sweep
    // it protects.
    if (faultPending("journal.write.fail") || !file_.appendLine(line)) {
        failed_ = true;
        warn("journal: write to '%s' failed; journal disabled",
             file_.path().c_str());
        return false;
    }
    ++seq_;
    return true;
}

void
SweepJournal::sweepPlan(const std::string& figure,
                        std::uint64_t config_digest, std::size_t cells)
{
    append("sweep_plan",
           "\"schema\":" + obs::json::quote(kJournalSchema) +
               ",\"figure\":" + obs::json::quote(figure) +
               ",\"config_digest\":\"" + std::to_string(config_digest) +
               "\",\"cells\":" + std::to_string(cells));
}

void
SweepJournal::cellPlanned(const std::string& cell)
{
    append("planned", "\"cell\":" + obs::json::quote(cell));
}

void
SweepJournal::cellRunning(const std::string& cell, unsigned attempt)
{
    append("running", "\"cell\":" + obs::json::quote(cell) +
                          ",\"attempt\":" + std::to_string(attempt));
}

void
SweepJournal::cellDone(const std::string& cell, unsigned attempts,
                       const std::string& artifact, std::uint64_t bytes,
                       std::uint64_t digest)
{
    append("done", "\"cell\":" + obs::json::quote(cell) +
                       ",\"attempts\":" + std::to_string(attempts) +
                       ",\"artifact\":" + obs::json::quote(artifact) +
                       ",\"bytes\":" + std::to_string(bytes) +
                       ",\"digest\":\"" + std::to_string(digest) + "\"");
}

void
SweepJournal::cellFailed(const std::string& cell, unsigned attempts,
                         const std::string& error)
{
    append("failed", "\"cell\":" + obs::json::quote(cell) +
                         ",\"attempts\":" + std::to_string(attempts) +
                         ",\"error\":" + obs::json::quote(error));
}

void
SweepJournal::resumed(std::size_t skipped, std::size_t rerun)
{
    append("resume", "\"skipped\":" + std::to_string(skipped) +
                         ",\"rerun\":" + std::to_string(rerun));
}

void
SweepJournal::resumeSkip(const std::string& cell)
{
    append("resume_skip", "\"cell\":" + obs::json::quote(cell));
}

void
SweepJournal::sweepDone(std::size_t ok, std::size_t failed)
{
    append("sweep_done", "\"ok\":" + std::to_string(ok) +
                             ",\"failed\":" + std::to_string(failed));
}

bool
SweepJournal::healthy() const
{
    LockGuard lock(mutex_);
    return !failed_;
}

const JournalCell*
JournalState::find(const std::string& cell) const
{
    for (const auto& entry : cells) {
        if (entry.first == cell)
            return &entry.second;
    }
    return nullptr;
}

bool
JournalState::load(const std::string& path, JournalState* out,
                   std::string* error)
{
    std::string text;
    if (!readWholeFile(path, &text)) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }

    auto fail = [&](std::size_t lineno, const std::string& why) {
        if (error != nullptr) {
            *error = path + ":" + std::to_string(lineno) + ": " + why;
        }
        return false;
    };
    auto cellOf = [out](const std::string& name) -> JournalCell& {
        for (auto& entry : out->cells) {
            if (entry.first == name)
                return entry.second;
        }
        out->cells.emplace_back(name, JournalCell{});
        return out->cells.back().second;
    };

    std::size_t pos = 0;
    std::size_t lineno = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            // Torn final record: the append that a crash interrupted.
            // WAL semantics say it was never written.
            break;
        }
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        out->validBytes = pos;
        ++lineno;
        if (line.empty())
            return fail(lineno, "empty record");

        obs::json::Value rec;
        std::string jerr;
        if (!obs::json::parse(line, rec, &jerr) || !rec.isObject())
            return fail(lineno, "bad JSON: " + jerr);
        std::uint64_t seq = 0;
        if (!fieldU64(rec, "seq", &seq) || seq != out->nextSeq)
            return fail(lineno, "seq not dense");
        std::string event;
        if (!fieldStr(rec, "event", &event))
            return fail(lineno, "missing event");

        if (event == "sweep_plan") {
            std::string schema;
            if (!fieldStr(rec, "schema", &schema) ||
                schema != kJournalSchema) {
                return fail(lineno, "unsupported schema");
            }
            if (out->sawPlan)
                return fail(lineno, "duplicate sweep_plan");
            fieldStr(rec, "figure", &out->figure);
            if (!fieldU64(rec, "config_digest", &out->configDigest))
                return fail(lineno, "missing config_digest");
            out->sawPlan = true;
        } else if (event == "planned" || event == "running" ||
                   event == "done" || event == "failed" ||
                   event == "resume_skip") {
            std::string name;
            if (!fieldStr(rec, "cell", &name))
                return fail(lineno, "missing cell");
            JournalCell& cell = cellOf(name);
            if (event == "planned") {
                cell.state = "planned";
            } else if (event == "running") {
                cell.state = "running";
                std::uint64_t v = 0;
                fieldU64(rec, "attempt", &v);
                cell.attempts = static_cast<unsigned>(v);
            } else if (event == "done") {
                cell.state = "done";
                std::uint64_t v = 0;
                fieldU64(rec, "attempts", &v);
                cell.attempts = static_cast<unsigned>(v);
                if (!fieldStr(rec, "artifact", &cell.artifact) ||
                    !fieldU64(rec, "bytes", &cell.artifactBytes) ||
                    !fieldU64(rec, "digest", &cell.artifactDigest)) {
                    return fail(lineno, "incomplete done record");
                }
            } else if (event == "failed") {
                cell.state = "failed";
                std::uint64_t v = 0;
                fieldU64(rec, "attempts", &v);
                cell.attempts = static_cast<unsigned>(v);
                fieldStr(rec, "error", &cell.error);
            } else {
                cell.state = "skipped";
            }
        } else if (event == "resume" || event == "sweep_done") {
            // Counters only; nothing to replay.
        } else {
            return fail(lineno, "unknown event '" + event + "'");
        }
        ++out->nextSeq;
    }
    if (!out->sawPlan) {
        if (error != nullptr)
            *error = path + ": no sweep_plan record";
        return false;
    }
    return true;
}

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
    // The cell's frozen stats namespaces, so a resumed run's stats
    // dump matches an uninterrupted run's exactly.
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
        std::string text;
        CellOutput cell;
        std::string error;
        if (!readWholeFile(jc.artifact, &text) ||
            text.size() != jc.artifactBytes ||
            fnv1a64(text.data(), text.size()) != jc.artifactDigest ||
            !parseCellArtifact(text, &cell, &error)) {
            warn("resume: artifact for cell '%s' does not verify; "
                 "re-running it", label.c_str());
            continue;
        }
        cells.emplace(label, std::move(cell));
    }
    return cells;
}

} // namespace cosim
