#include "obs/run_manifest.hh"

#include <algorithm>

#include "base/atomic_file.hh"
#include "base/logging.hh"
#include "obs/json.hh"

#ifndef COSIM_GIT_DESCRIBE
#define COSIM_GIT_DESCRIBE "unknown"
#endif

namespace cosim {
namespace obs {

std::string
buildRevision()
{
    return COSIM_GIT_DESCRIBE;
}

namespace {

std::string
numberArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += json::number(values[i]);
    }
    out += "]";
    return out;
}

std::string
stringArray(const std::vector<std::string>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += json::quote(values[i]);
    }
    out += "]";
    return out;
}

} // namespace

std::string
ManifestWorkload::toJson() const
{
    std::string out =
        "{\"name\": " + json::quote(name) + ",\n     \"insts\": " +
        json::number(static_cast<double>(totalInsts)) +
        ", \"host_seconds\": " + json::number(hostSeconds) +
        ", \"sim_mips\": " + json::number(simMips) +
        ", \"verified\": " + (verified ? "true" : "false") +
        ",\n     \"status\": " + json::quote(status) +
        ", \"attempts\": " +
        json::number(static_cast<double>(attempts)) +
        ", \"error\": " + json::quote(error) +
        ",\n     \"replayed_from\": " + json::quote(replayedFrom) +
        ",\n     \"mpki_per_config\": " + numberArray(mpkiPerConfig) +
        ",\n     \"mpki_series\": {\"time_us\": " +
        numberArray(seriesTimeUs) + ", \"mpki\": " +
        numberArray(seriesMpki) + "}";
    if (sampling.active) {
        const ManifestSampling& s = sampling;
        out += ",\n     \"sampling\": {\"intervals\": " +
               json::number(static_cast<double>(s.intervals)) +
               ", \"total_windows\": " +
               json::number(static_cast<double>(s.totalWindows)) +
               ", \"warmup_quanta\": " +
               json::number(static_cast<double>(s.warmupQuanta)) +
               ", \"coverage\": " + json::number(s.coverage);
        if (s.hasError) {
            out += ",\n      \"error\": {\"cpi\": " +
                   json::number(s.errCpi) +
                   ", \"mpki\": " + json::number(s.errMpki) +
                   ", \"apki\": " + json::number(s.errApki) +
                   ", \"dram\": " + json::number(s.errDram) + "}";
        }
        out += ",\n      \"est\": {\"cpi\": " + json::number(s.estCpi) +
               ", \"mpki\": " + json::number(s.estMpki) +
               ", \"apki\": " + json::number(s.estApki) +
               "},\n      \"full\": {\"cpi\": " +
               json::number(s.fullCpi) +
               ", \"mpki\": " + json::number(s.fullMpki) +
               ", \"apki\": " + json::number(s.fullApki) + "}}";
    }
    return out + "}";
}

bool
ManifestWorkload::fromJson(const json::Value& v, ManifestWorkload* out)
{
    if (!v.isObject())
        return false;
    auto num = [](const json::Value& obj, const char* key) {
        const json::Value* f = obj.find(key);
        return f != nullptr ? f->num : 0.0;
    };
    auto str = [](const json::Value& obj, const char* key) {
        const json::Value* f = obj.find(key);
        return f != nullptr ? f->str : std::string();
    };
    auto nums = [](const json::Value* arr) {
        std::vector<double> values;
        if (arr != nullptr) {
            for (const json::Value& e : arr->arr)
                values.push_back(e.num);
        }
        return values;
    };
    ManifestWorkload w;
    w.name = str(v, "name");
    w.totalInsts = static_cast<std::uint64_t>(num(v, "insts"));
    w.hostSeconds = num(v, "host_seconds");
    w.simMips = num(v, "sim_mips");
    const json::Value* verified = v.find("verified");
    w.verified = verified != nullptr && verified->boolean;
    w.status = str(v, "status");
    w.attempts = static_cast<std::uint64_t>(num(v, "attempts"));
    w.error = str(v, "error");
    w.replayedFrom = str(v, "replayed_from");
    w.mpkiPerConfig = nums(v.find("mpki_per_config"));
    if (const json::Value* series = v.find("mpki_series")) {
        w.seriesTimeUs = nums(series->find("time_us"));
        w.seriesMpki = nums(series->find("mpki"));
    }
    if (const json::Value* s = v.find("sampling")) {
        ManifestSampling& ms = w.sampling;
        ms.active = true;
        ms.intervals = static_cast<std::uint64_t>(num(*s, "intervals"));
        ms.totalWindows =
            static_cast<std::uint64_t>(num(*s, "total_windows"));
        ms.warmupQuanta =
            static_cast<std::uint64_t>(num(*s, "warmup_quanta"));
        ms.coverage = num(*s, "coverage");
        if (const json::Value* err = s->find("error")) {
            ms.hasError = true;
            ms.errCpi = num(*err, "cpi");
            ms.errMpki = num(*err, "mpki");
            ms.errApki = num(*err, "apki");
            ms.errDram = num(*err, "dram");
        }
        if (const json::Value* est = s->find("est")) {
            ms.estCpi = num(*est, "cpi");
            ms.estMpki = num(*est, "mpki");
            ms.estApki = num(*est, "apki");
        }
        if (const json::Value* full = s->find("full")) {
            ms.fullCpi = num(*full, "cpi");
            ms.fullMpki = num(*full, "mpki");
            ms.fullApki = num(*full, "apki");
        }
    }
    *out = std::move(w);
    return true;
}

void
addHostPhase(std::vector<ManifestHostPhase>& phases, const std::string& name,
             double seconds, std::uint64_t calls)
{
    auto it = std::find_if(
        phases.begin(), phases.end(),
        [&name](const ManifestHostPhase& p) { return p.name == name; });
    if (it == phases.end())
        it = phases.insert(phases.end(), ManifestHostPhase{name, 0.0, 0});
    it->seconds += seconds;
    it->calls += calls;
}

std::string
RunManifest::toJson() const
{
    std::string out = "{\n";
    out += "  \"schema\": " + json::quote(kManifestSchema) + ",\n";
    out += "  \"git\": " + json::quote(buildRevision()) + ",\n";
    out += "  \"figure\": " + json::quote(figureId) + ",\n";
    out += "  \"platform\": {\"name\": " + json::quote(platform) +
           ", \"cores\": " + json::number(nCores) + "},\n";
    out += "  \"config\": {\"scale\": " + json::number(scale) +
           ", \"seed\": " + json::number(static_cast<double>(seed)) +
           ", \"seed_source\": " + json::quote(seedSource) +
           ", \"ticks\": " + stringArray(configTicks) + "},\n";

    out += "  \"host\": {\"sim_mips\": " + json::number(hostSimMips) +
           ", \"jobs\": " + json::number(hostJobs) +
           ", \"emulation_threads\": " + json::number(emulationThreads) +
           ", \"wall_seconds\": " + json::number(wallSeconds) +
           ", \"speedup\": " + json::number(hostSpeedup) +
           ", \"phases\": [";
    for (std::size_t i = 0; i < hostPhases.size(); ++i) {
        const ManifestHostPhase& p = hostPhases[i];
        if (i)
            out += ",";
        out += "\n    {\"name\": " + json::quote(p.name) +
               ", \"seconds\": " + json::number(p.seconds) +
               ", \"calls\": " +
               json::number(static_cast<double>(p.calls)) + "}";
    }
    out += hostPhases.empty() ? "]},\n" : "\n  ]},\n";

    out += "  \"stream\": {\"cells\": " + json::quote(cellMode) +
           ", \"guest_executions\": " +
           json::number(static_cast<double>(guestExecutions)) +
           ",\n    \"capture\": {\"txns\": " +
           json::number(static_cast<double>(captureTxns)) +
           ", \"bytes\": " +
           json::number(static_cast<double>(captureBytes)) +
           ", \"seconds\": " + json::number(captureSeconds) +
           "},\n    \"replay\": {\"txns\": " +
           json::number(static_cast<double>(replayTxns)) +
           ", \"bytes\": " +
           json::number(static_cast<double>(replayBytes)) +
           ", \"seconds\": " + json::number(replaySeconds) + "}},\n";

    // Present only when journaling was on: which journal, whether this
    // run resumed one, and how many cells the resume skipped. Dropped
    // by normalized comparisons (cosim_inspect diff-run) because a
    // resumed run legitimately differs here from its baseline.
    if (!journalPath.empty()) {
        out += "  \"resume\": {\"journal\": " + json::quote(journalPath) +
               ", \"resumed\": " + (resumed ? "true" : "false") +
               ", \"skipped\": " +
               json::number(static_cast<double>(resumeSkipped)) + "},\n";
    }

    out += "  \"workloads\": [";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (i)
            out += ",";
        out += "\n    " + workloads[i].toJson();
    }
    out += workloads.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
RunManifest::writeJson(const std::string& path) const
{
    // Atomic write-temp + rename: a crash or full disk leaves either
    // the previous manifest or the complete new one, never a torn
    // file. A failed write is fatal (nonzero exit) with the path.
    try {
        writeFileAtomic(path, toJson());
    } catch (const IoError& e) {
        fatal("manifest: %s", e.what());
    }
}

} // namespace obs
} // namespace cosim
