#include "harness/sweep_cell.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "base/logging.hh"
#include "obs/trace_session.hh"
#include "trace/fsb_capture.hh"
#include "workloads/workload_factory.hh"

namespace cosim {

namespace {

void
checkVerified(const RunResult& result, const std::string& name,
              const PlatformParams& platform)
{
    fatal_if(!result.verified, "%s failed self-verification on %s",
             name.c_str(), platform.name.c_str());
}

/** Append one emulated configuration's final counters to @p cell. */
void
collectPoint(const Dragonhead& dh, const std::string& wname,
             unsigned n_cores, CellOutput& cell)
{
    const LlcResults llc = dh.results();
    SweepPoint point;
    point.workload = wname;
    point.nCores = n_cores;
    point.llcSize = dh.params().llc.size;
    point.lineSize = dh.params().llc.lineSize;
    point.llcAccesses = llc.accesses;
    point.llcMisses = llc.misses;
    point.insts = llc.insts;
    cell.points.push_back(point);
    cell.mw.mpkiPerConfig.push_back(point.mpki());
}

/** Relative error of @p est against reference @p full. */
double
relErr(double est, double full)
{
    if (full == 0.0)
        return est == 0.0 ? 0.0 : 1.0;
    return std::abs(est - full) / std::abs(full);
}

/** Whole-run per-instruction metrics reconstructed from a plan and
 * one emulator's per-window sample series. */
struct SampledEstimate
{
    double mpki = 0.0;
    double apki = 0.0;
    double cpi = 0.0;
};

SampledEstimate
estimateFromSamples(const SamplingPlan& plan,
                    const std::vector<Sample>& samples)
{
    // Ratio-of-extrapolated-counts estimator: scale each phase's
    // representative window *counts* by the phase's window share, then
    // take metric ratios once at the end. Averaging per-window ratios
    // instead would need every numerator's denominator to land in the
    // same window -- but instruction deltas arrive in whole DEX quanta,
    // so at fine sample periods a window's insts are lumpy while its
    // cycle span is fixed, and a weighted mean of cycles/insts inflates
    // CPI. Summing first cancels the lumping: neighbouring windows of a
    // phase mis-attribute insts to each other, not out of the phase.
    SampledEstimate est;
    double insts = 0, cycles = 0, misses = 0, accesses = 0;
    for (const PlanInterval& iv : plan.intervals) {
        if (iv.window >= samples.size())
            continue; // stream shorter than the profile; ratios still ok
        const Sample& s = samples[iv.window];
        insts += iv.weight * static_cast<double>(s.insts);
        cycles += iv.weight * static_cast<double>(s.cycles);
        misses += iv.weight * static_cast<double>(s.misses);
        accesses += iv.weight * static_cast<double>(s.accesses);
    }
    if (insts <= 0.0)
        return est;
    est.mpki = 1000.0 * misses / insts;
    est.apki = 1000.0 * accesses / insts;
    est.cpi = cycles / insts;
    return est;
}

/**
 * A sampled replay's configurations: each representative window's CB
 * sample holds a warm-started detail delta per configuration, and
 * whole-run MPKI/APKI are reconstructed per configuration by weight
 * extrapolation, scaled back to absolute counts by the exact
 * instruction total. The first configuration also carries the
 * workload's sampling record, with errors against the profiled
 * full-run reference when one exists.
 */
void
collectSampled(const CoSimulation& rig, const WorkloadStream& ws,
               const std::string& name, unsigned n_cores, CellOutput& cell)
{
    for (unsigned e = 0; e < rig.nEmulators(); ++e) {
        const Dragonhead& dh = rig.emulator(e);
        const LlcResults totals = dh.results();
        const SampledEstimate est =
            estimateFromSamples(ws.plan, dh.samples());
        collectPoint(dh, name, n_cores, cell);
        SweepPoint& point = cell.points.back();
        const double kinsts = static_cast<double>(totals.insts) / 1000.0;
        point.llcMisses =
            static_cast<std::uint64_t>(est.mpki * kinsts + 0.5);
        point.llcAccesses =
            static_cast<std::uint64_t>(est.apki * kinsts + 0.5);
        cell.mw.mpkiPerConfig.back() = point.mpki();
        if (e > 0)
            continue;

        obs::ManifestSampling& smp = cell.mw.sampling;
        smp.active = true;
        smp.intervals = ws.plan.intervals.size();
        smp.totalWindows = ws.plan.totalWindows;
        smp.warmupQuanta = ws.plan.warmupWindows;
        smp.coverage = ws.plan.coverage();
        smp.estCpi = est.cpi;
        smp.estMpki = est.mpki;
        smp.estApki = est.apki;
        if (ws.hasRef && ws.ref.insts > 0) {
            const double finsts = static_cast<double>(ws.ref.insts);
            smp.hasError = true;
            smp.fullMpki = ws.ref.mpki();
            smp.fullApki =
                1000.0 * static_cast<double>(ws.ref.accesses) / finsts;
            smp.fullCpi = static_cast<double>(ws.ref.cycles) / finsts;
            smp.errMpki = relErr(est.mpki, smp.fullMpki);
            smp.errApki = relErr(est.apki, smp.fullApki);
            smp.errCpi = relErr(est.cpi, smp.fullCpi);
            // DRAM traffic is misses x line size on both sides, so its
            // relative error reduces to the absolute-miss-count error.
            smp.errDram =
                relErr(est.mpki * static_cast<double>(totals.insts),
                       smp.fullMpki * finsts);
        }
    }
}

/** Load "<base>.<name>.plan.json"; throws on any failure. */
SamplingPlan
loadPlan(const std::string& base, const std::string& name)
{
    const std::string path = planPath(base, name);
    SamplingPlan plan;
    std::string error;
    if (!SamplingPlan::load(path, plan, &error))
        throw std::runtime_error("plan " + path + ": " + error);
    return plan;
}

/** The profile cell's plan: loaded from --plan, or clustered from the
 * profiled CB series (and written to --plan-out). */
SamplingPlan
profilePlan(const SweepFigure& fig, const std::string& name,
            const std::vector<Sample>& samples)
{
    const BenchOptions& opts = fig.opts;
    const ControlBlockParams& cb = fig.emulators.front().cb;
    if (opts.planBase.empty()) {
        SamplingPlan plan = makePlan(samples, name, cb, opts);
        if (!opts.planOutBase.empty()) {
            // writeFile throws IoError, so a bad path fails this cell,
            // not the whole sweep (see --keep-going).
            const std::string path = planPath(opts.planOutBase, name);
            plan.writeFile(path);
            inform("plan: %s (%zu intervals, %.1f%% coverage)",
                   path.c_str(), plan.intervals.size(),
                   100.0 * plan.coverage());
        }
        return plan;
    }
    SamplingPlan plan = loadPlan(opts.planBase, name);
    if (plan.samplePeriodUs != static_cast<double>(cb.samplePeriodUs) ||
        plan.coreFreqGhz != cb.coreFreqGhz) {
        warn("plan %s: window geometry (%g us @ %g GHz) differs from "
             "the sweep's CB (%llu us @ %g GHz); intervals will not "
             "align with the profiled windows",
             planPath(opts.planBase, name).c_str(), plan.samplePeriodUs,
             plan.coreFreqGhz,
             static_cast<unsigned long long>(cb.samplePeriodUs),
             cb.coreFreqGhz);
    }
    return plan;
}

/** Add @p from's host phases and simulated instructions and seconds
 * to @p into's. */
void
addHostProfile(CellOutput& into, const CellOutput& from)
{
    for (const obs::ManifestHostPhase& p : from.hostPhases)
        obs::addHostPhase(into.hostPhases, p.name, p.seconds, p.calls);
    into.simInsts += from.simInsts;
    into.simSeconds += from.simSeconds;
}

} // namespace

SamplingPlan
makePlan(const std::vector<Sample>& samples, const std::string& name,
         const ControlBlockParams& cb, const BenchOptions& opts)
{
    PhaseClusterParams pc;
    pc.seed = opts.seed;
    // Two detailed warm-up windows ahead of each representative
    // interval repair what the diluted functional warming leaves of
    // the replacement order.
    pc.warmupWindows = 2;
    // Scale the phase cap as ~sqrt of the series length: a fine sample
    // period decomposes the run into many more windows, and a fixed cap
    // would lump heterogeneous windows into one phase whose single
    // representative misestimates the mean.
    const double n = static_cast<double>(samples.size());
    pc.maxPhases = static_cast<unsigned>(
        std::clamp(std::sqrt(n) + 0.5, 6.0, 24.0));
    // The replay gate recomputes windows from the plan, so its window
    // geometry must match the CB configuration that sampled the series.
    SamplingPlan plan = clusterPhases(samples, name, pc);
    plan.samplePeriodUs = static_cast<double>(cb.samplePeriodUs);
    plan.coreFreqGhz = cb.coreFreqGhz;
    return plan;
}

SweepPlan
planSweep(const SweepFigure& fig)
{
    const BenchOptions& opts = fig.opts;
    const bool file_backed = !opts.replayBase.empty();
    const bool capture = !opts.captureBase.empty();
    const bool digest = !opts.digestFile.empty();
    const std::size_t n_w = opts.workloads.size();
    const std::vector<std::string>& names = opts.workloads;
    const StreamSource stream =
        file_backed ? StreamSource::Capture : StreamSource::Guest;

    SweepPlan plan;
    auto add = [&](SweepCell cell) {
        plan.cells.push_back(std::move(cell));
        return plan.cells.size() - 1;
    };

    switch (opts.cells) {
      case CellMode::Replay:
        if (!file_backed) {
            // Phase 1 captures the stream in memory; one broadcast cell
            // replays it into every configuration.
            for (std::size_t w = 0; w < n_w; ++w) {
                plan.chains.push_back(
                    {add({.label = names[w] + "/capture",
                          .workload = w,
                          .group = EmulatorGroup::None,
                          .capture = true,
                          .phase1 = true}),
                     add({.label = names[w] + "/replay",
                          .workload = w,
                          .source = StreamSource::Capture})});
            }
            break;
        }
        // From files nothing is left to capture: the plan is combined's.
        [[fallthrough]];
      case CellMode::Combined:
        for (std::size_t w = 0; w < n_w; ++w) {
            plan.chains.push_back({add({.label = names[w],
                                        .workload = w,
                                        .source = stream,
                                        .capture = capture,
                                        .digest = file_backed || digest})});
        }
        break;
      case CellMode::Exec:
        for (std::size_t w = 0; w < n_w; ++w) {
            for (std::size_t c = 0; c < fig.emulators.size(); ++c) {
                plan.chains.push_back(
                    {add({.label = names[w] + "/" + fig.ticks[c],
                          .workload = w,
                          .group = EmulatorGroup::One,
                          .config = c,
                          .capture = capture && c == 0,
                          .digest = digest && c == 0})});
            }
        }
        break;
      case CellMode::Sampled: {
        // The profile runs whenever the plan (or the error reference)
        // must come from a full pass.
        const bool profile = !file_backed || opts.planBase.empty();
        plan.chains.resize(n_w);
        for (std::size_t w = 0; profile && w < n_w; ++w) {
            plan.chains[w].push_back(add({.label = names[w] + "/profile",
                                          .workload = w,
                                          .source = stream,
                                          .group = EmulatorGroup::One,
                                          .config = 0,
                                          .capture = !file_backed,
                                          .digest = file_backed,
                                          .phase1 = true}));
        }
        for (std::size_t w = 0; w < n_w; ++w) {
            plan.chains[w].push_back(add({.label = names[w] + "/sampled",
                                          .workload = w,
                                          .source = StreamSource::Sampled,
                                          .digest = !profile}));
        }
        break;
      }
    }
    return plan;
}

WorkloadStream
resolveStream(const SweepFigure& fig, std::size_t w)
{
    const BenchOptions& opts = fig.opts;
    const std::string& name = opts.workloads[w];
    WorkloadStream ws;
    if (opts.replayBase.empty())
        return ws;
    ws.path = fsbStreamPath(opts.replayBase, name);
    ws.source = "file:" + ws.path;
    if (opts.cells != CellMode::Sampled || opts.planBase.empty())
        return ws;
    // --plan with --replay skips the profiling pass entirely, at the
    // price of the error baseline.
    try {
        ws.plan = loadPlan(opts.planBase, name);
        ws.hasPlan = true;
    } catch (const std::exception& e) {
        ws.base.failed = true;
        ws.base.mw.error = e.what();
    }
    return ws;
}

bool
RigSlot::fits(const SweepCell& cell) const
{
    return rig_ != nullptr && group_ == cell.group &&
           (cell.group != EmulatorGroup::One || config_ == cell.config);
}

CoSimulation&
RigSlot::acquire(const SweepFigure& fig, const SweepCell& cell)
{
    if (!fits(cell)) {
        rig_.reset();
        CoSimParams params;
        params.platform = fig.platform;
        switch (cell.group) {
          case EmulatorGroup::All:
            params.emulators = fig.emulators;
            break;
          case EmulatorGroup::One:
            params.emulators = {fig.emulators[cell.config]};
            break;
          case EmulatorGroup::None:
            break;
        }
        params.emulationThreads = fig.opts.emuThreads;
        rig_ = std::make_unique<CoSimulation>(params);
        group_ = cell.group;
        config_ = cell.config;
    }
    return *rig_;
}

void
RigSlot::finish(bool ok, const SweepCell* next)
{
    if (!ok || next == nullptr || !fits(*next))
        rig_.reset();
}

CellOutput
runCellBody(const SweepFigure& fig, const SweepCell& cell,
            CoSimulation& rig, WorkloadStream& ws)
{
    TRACE_SPAN("sweep", "cell");
    const BenchOptions& opts = fig.opts;
    const std::string& name = opts.workloads[cell.workload];
    const unsigned n_cores = fig.platform.nCores;

    CellOutput out;
    RunResult result;
    std::unique_ptr<FsbCaptureSnooper> capture;
    std::unique_ptr<FsbDigestSnooper> digest;
    if (cell.source == StreamSource::Guest) {
        auto workload = createWorkload(name, opts.scale);
        WorkloadConfig cfg;
        cfg.nThreads = n_cores;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;

        // Stream observers ride the bus alongside the emulators;
        // capture subsumes the digest (the writer fingerprints what it
        // encodes).
        FrontSideBus& fsb = rig.platform().fsb();
        if (cell.capture) {
            FsbStreamMeta meta;
            meta.workload = name;
            meta.platform = fig.platform.name;
            meta.nCores = n_cores;
            meta.seed = opts.seed;
            meta.scale = opts.scale;
            capture = std::make_unique<FsbCaptureSnooper>(meta);
            fsb.attach(capture.get());
        } else if (cell.digest) {
            digest = std::make_unique<FsbDigestSnooper>();
            fsb.attach(digest.get());
        }
        result = rig.run(*workload, cfg);
        if (capture)
            fsb.detach(capture.get());
        if (digest)
            fsb.detach(digest.get());
        out.guestExecutions = 1;
        out.simInsts = result.totalInsts;
        // A capture encodes inside the run's window; those seconds are
        // capture.encode's alone, so the phases stay disjoint.
        const double encode_seconds =
            capture ? capture->encodeSeconds() : 0.0;
        obs::addHostPhase(out.hostPhases, "setup", result.setupSeconds);
        obs::addHostPhase(out.hostPhases, "run",
                          result.hostSeconds - result.drainSeconds -
                              encode_seconds);
    } else {
        // A --replay file is read here, when its cell runs, so a
        // missing or corrupt one fails this cell alone.
        FsbStreamReader reader;
        if (ws.buffer != nullptr)
            reader.openBuffer(ws.buffer);
        else
            reader.openFile(ws.path);
        ReplayResult details;
        if (cell.source == StreamSource::Sampled) {
            result = rig.replaySampled(reader, ws.source, ws.plan, &details);
        } else {
            result = rig.replay(reader, ws.source, &details);
        }
        if (details.meta.workload != name) {
            warn("replay stream %s records workload '%s', expected '%s'",
                 ws.source.c_str(), details.meta.workload.c_str(),
                 name.c_str());
        }
        out.replayTxns = details.txns;
        out.replayBytes = details.streamBytes;
        out.replaySeconds = details.seconds;
        if (cell.digest) {
            out.hasDigest = true;
            out.streamTxns = details.txns;
            out.streamDigest = details.digest;
        }
        obs::addHostPhase(out.hostPhases,
                          cell.source == StreamSource::Sampled
                              ? "replay.sampled"
                              : "replay",
                          details.seconds);
    }
    if (rig.bank() != nullptr)
        obs::addHostPhase(out.hostPhases, "run.drain", result.drainSeconds);
    out.simSeconds = result.hostSeconds;
    checkVerified(result, name, fig.platform);

    out.mw.name = name;
    out.mw.totalInsts = result.totalInsts;
    out.mw.hostSeconds = result.hostSeconds;
    out.mw.simMips = result.simMips();
    out.mw.verified = result.verified;
    out.mw.replayedFrom = result.replayedFrom;

    // Phase-1 cells feed their workload's later cells instead of the
    // figure: the profile keeps its configuration's full-run counters
    // as the sampled estimates' reference.
    if (cell.phase1) {
        if (rig.nEmulators() > 0) {
            ws.ref = rig.emulator(0).results();
            ws.hasRef = true;
        }
    } else if (cell.source == StreamSource::Sampled) {
        collectSampled(rig, ws, name, n_cores, out);
    } else {
        for (unsigned e = 0; e < rig.nEmulators(); ++e)
            collectPoint(rig.emulator(e), name, n_cores, out);
    }
    // The CB series of the workload's first configuration.
    if (rig.nEmulators() > 0 &&
        (cell.group != EmulatorGroup::One || cell.config == 0)) {
        out.cbSamples = rig.emulator(0).samples();
        for (const Sample& s : out.cbSamples) {
            out.mw.seriesTimeUs.push_back(s.timeUs);
            out.mw.seriesMpki.push_back(s.mpki());
        }
    }

    if (capture) {
        FsbStreamWriter& writer = capture->writer();
        writer.setResult(result.totalInsts, result.verified);
        writer.finish();
        if (!opts.captureBase.empty())
            writer.writeFile(fsbStreamPath(opts.captureBase, name));
        out.hasDigest = true;
        out.streamTxns = writer.txnCount();
        out.streamDigest = writer.digest();
        out.captureTxns = writer.txnCount();
        out.captureBytes = writer.encodedBytes();
        out.captureSeconds = capture->encodeSeconds();
        obs::addHostPhase(out.hostPhases, "capture.encode",
                          out.captureSeconds);
        if (cell.phase1) {
            ws.buffer = writer.share();
            ws.source = "memory:" + name;
        }
    } else if (digest) {
        out.hasDigest = true;
        out.streamTxns = digest->txnCount();
        out.streamDigest = digest->digest();
    }
    if (cell.phase1 && rig.nEmulators() > 0) {
        ws.plan = profilePlan(fig, name, out.cbSamples);
        ws.hasPlan = true;
    }

    // The rig's counters as they stand, kept past the rig.
    out.stats = rig.stats();
    for (stats::Group& g : out.stats)
        g.name = "cell/" + cell.label + "/" + g.name;
    return out;
}

CellOutput
mergeWorkloadCells(const std::string& name, const CellOutput* base,
                   std::vector<CellOutput>& configs)
{
    // Outcome first: any failed constituent fails the whole workload
    // row (a partial series would silently shift the figure's x axis).
    bool any_failed = base != nullptr && base->failed;
    std::string error = base ? base->mw.error : "";
    for (const CellOutput& c : configs) {
        any_failed = any_failed || c.failed;
        if (error.empty())
            error = c.mw.error;
    }
    CellOutput merged;
    merged.mw.name = name;
    if (any_failed) {
        merged.failed = true;
        merged.mw.status = "failed";
        merged.mw.error = error;
        return merged;
    }

    const CellOutput& first = base ? *base : configs.front();
    merged.mw.totalInsts = first.mw.totalInsts;
    merged.mw.verified = first.mw.verified;
    merged.mw.replayedFrom = configs.front().mw.replayedFrom;
    merged.mw.seriesTimeUs = configs.front().mw.seriesTimeUs;
    merged.mw.seriesMpki = configs.front().mw.seriesMpki;
    // The first configuration's cell carries the workload's sampling
    // record (it is the one with a reference) and its CB series.
    merged.mw.sampling = configs.front().mw.sampling;
    merged.cbSamples = configs.front().cbSamples;
    if (merged.cbSamples.empty() && base != nullptr)
        merged.cbSamples = base->cbSamples;
    if (base != nullptr)
        merged.stats = base->stats;

    double host = 0.0;
    if (base) {
        host += base->mw.hostSeconds;
        addHostProfile(merged, *base);
        merged.guestExecutions += base->guestExecutions;
        merged.captureTxns += base->captureTxns;
        merged.captureBytes += base->captureBytes;
        merged.captureSeconds += base->captureSeconds;
        if (base->hasDigest) {
            merged.hasDigest = true;
            merged.streamTxns = base->streamTxns;
            merged.streamDigest = base->streamDigest;
        }
    }
    for (CellOutput& c : configs) {
        host += c.mw.hostSeconds;
        addHostProfile(merged, c);
        merged.guestExecutions += c.guestExecutions;
        merged.captureTxns += c.captureTxns;
        merged.captureBytes += c.captureBytes;
        merged.captureSeconds += c.captureSeconds;
        merged.replayTxns += c.replayTxns;
        merged.replayBytes += c.replayBytes;
        merged.replaySeconds += c.replaySeconds;
        merged.points.insert(merged.points.end(),
                             std::make_move_iterator(c.points.begin()),
                             std::make_move_iterator(c.points.end()));
        merged.mw.mpkiPerConfig.insert(merged.mw.mpkiPerConfig.end(),
                                       c.mw.mpkiPerConfig.begin(),
                                       c.mw.mpkiPerConfig.end());
        merged.stats.insert(merged.stats.end(),
                            std::make_move_iterator(c.stats.begin()),
                            std::make_move_iterator(c.stats.end()));
        if (!merged.hasDigest && c.hasDigest) {
            merged.hasDigest = true;
            merged.streamTxns = c.streamTxns;
            merged.streamDigest = c.streamDigest;
        }
    }
    merged.mw.hostSeconds = host;
    merged.mw.simMips = host > 0.0
        ? static_cast<double>(merged.mw.totalInsts) / 1e6 / host
        : 0.0;
    return merged;
}

} // namespace cosim
