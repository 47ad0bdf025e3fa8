#include "harness/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/units.hh"
#include "dragonhead/llc_stack.hh"
#include "harness/sweep_cell.hh"
#include "harness/sweep_journal.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/trace_session.hh"
#include "trace/fsb_capture.hh"

namespace cosim {

namespace {

/**
 * Fingerprint of everything that determines what a sweep's cells
 * compute, so --resume refuses to mix two different sweeps' journals.
 * That includes every configuration as emulated, CB window included:
 * --quick retimes it without changing the scale. Host-side knobs
 * (--jobs, --emu-threads) are deliberately excluded: they change how
 * cells are scheduled, not what they produce, and a resume routinely
 * runs with different ones.
 */
std::uint64_t
sweepConfigDigest(const std::string& figure_id, const SweepFigure& fig)
{
    const BenchOptions& opts = fig.opts;
    std::string key = figure_id;
    key += '|';
    key += fig.platform.name;
    key += '|';
    key += std::to_string(fig.platform.nCores);
    for (const DragonheadParams& emu : fig.emulators) {
        key += strFormat(
            "|%llu,%u,%u,%u,%u,%llu,",
            static_cast<unsigned long long>(emu.llc.size), emu.llc.lineSize,
            emu.llc.assoc, emu.nSlices,
            static_cast<unsigned>(emu.partitioning),
            static_cast<unsigned long long>(emu.cb.samplePeriodUs));
        key += obs::json::number(emu.cb.coreFreqGhz);
    }
    key += '|';
    key += obs::json::number(opts.scale);
    key += '|';
    key += std::to_string(opts.seed);
    key += '|';
    key += toString(opts.cells);
    key += '|';
    key += opts.replayBase;
    key += '|';
    key += opts.planBase;
    for (const std::string& w : opts.workloads) {
        key += '|';
        key += w;
    }
    for (const std::string& t : fig.ticks) {
        key += '|';
        key += t;
    }
    return fnv1a64(key.data(), key.size());
}

/** Crash-safety context threaded through the guarded cells. */
struct SweepLedger
{
    /** Write-ahead journal (null = journaling off). */
    SweepJournal* journal = nullptr;
    /** Verified results loaded from a resumed journal, by cell label
     * (null = not resuming). */
    const std::map<std::string, CellOutput>* resumed = nullptr;
    /** Count of cells short-circuited from @ref resumed. */
    std::atomic<std::uint64_t>* skipped = nullptr;
};

/**
 * Run one sweep cell in this process, behind the failure boundary:
 *
 *  - fault point: "cell.throw" (throws FaultInjected) fires here,
 *    inside the guarded window
 *  - report: a failed cell warns once on stderr with its label and
 *    error, and returns a CellOutput with failed=true carrying both
 *    (and no stats)
 *
 * A cell runs once: the rig reproduces a run bit for bit from its
 * seed, so a failed cell fails the same way when rerun.
 *
 * Crash safety (harness/sweep_journal.hh) layers on top: with a
 * ledger journal, every state transition is journaled (planned /
 * running / done / failed) and a successful cell's result is persisted
 * as a digest-fingerprinted artifact that --resume verifies and loads
 * instead of re-running the cell. A SIGKILLed sweep loses only the
 * cells it had not journaled done.
 */
CellOutput
runGuardedCell(const std::string& label, const BenchOptions& opts,
               const SweepLedger& ledger,
               const std::function<CellOutput()>& body)
{
    // --resume: a journaled result that verified at load time replaces
    // the whole cell, its stats included.
    if (ledger.resumed != nullptr) {
        auto it = ledger.resumed->find(label);
        if (it != ledger.resumed->end()) {
            if (ledger.journal != nullptr)
                ledger.journal->resumeSkip(label);
            if (ledger.skipped != nullptr)
                ledger.skipped->fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    if (ledger.journal != nullptr)
        ledger.journal->cellPlanned(label);

    try {
        if (ledger.journal != nullptr)
            ledger.journal->cellRunning(label);
        COSIM_FAULT_POINT("cell.throw");
        CellOutput cell = body();
        if (ledger.journal != nullptr) {
            // Durable result: write the artifact and journal its
            // fingerprint. --resume trusts the file only while the
            // digest still matches; an unwritable artifact just leaves
            // the cell un-done, so a resume re-runs it.
            const std::string artifact = cellArtifactPath(opts, label);
            try {
                writeFileAtomic(artifact, renderCellArtifact(cell));
            } catch (const IoError& e) {
                warn("cell artifact %s: %s", artifact.c_str(), e.what());
            }
            std::uint64_t digest = 0;
            std::uint64_t bytes = 0;
            if (digestFileFnv(artifact, &digest, &bytes)) {
                ledger.journal->cellDone(label, artifact, bytes, digest);
            } else {
                warn("cell artifact %s: unreadable; the cell will "
                     "re-run on resume", artifact.c_str());
            }
        }
        return cell;
    } catch (const std::exception& e) {
        warn("sweep cell %s failed: %s", label.c_str(), e.what());
        if (ledger.journal != nullptr)
            ledger.journal->cellFailed(label, e.what());
        CellOutput cell;
        cell.failed = true;
        cell.mw.name = label;
        cell.mw.status = "failed";
        cell.mw.error = e.what();
        return cell;
    }
}

/**
 * The one scheduler: run @p plan's chains across up to --jobs host
 * threads, every cell behind the guard on a rig from a RigSlot. A
 * serial sweep shares one slot across every chain, so a cell can take
 * over its predecessor's rig; a parallel chain gets its own, so at most
 * one rig exists per running cell. A workload's in-memory stream is
 * released when its chain ends. Without --keep-going the first failed
 * cell stops the sweep: no cell starts after it, and cells already
 * running finish. Returns one output per planned cell, empty for a
 * cell that never started.
 */
std::vector<std::optional<CellOutput>>
runPlan(const SweepFigure& fig, const SweepPlan& plan,
        std::vector<WorkloadStream>& streams, const SweepLedger& ledger)
{
    const BenchOptions& opts = fig.opts;
    std::vector<std::optional<CellOutput>> outs(plan.cells.size());
    std::atomic<bool> stop{false};
    auto run_cell = [&](std::size_t i, RigSlot& slot,
                        const SweepCell* next) {
        const SweepCell& cell = plan.cells[i];
        WorkloadStream& ws = streams[cell.workload];
        CellOutput out;
        if (!cell.phase1 && ws.base.failed) {
            // The workload's stream or plan does not exist: skip the
            // cell instead of crashing into it.
            out.failed = true;
            out.mw.name = cell.label;
            out.mw.status = "failed";
            out.mw.error = (cell.source == StreamSource::Sampled
                                ? "profile failed: "
                                : "capture failed: ") +
                           ws.base.mw.error;
        } else {
            // Phase-1 outputs live in memory (stream buffer, plan,
            // error reference) and cannot be reloaded on resume, so
            // those cells never journal -- parseBenchArgs keeps phase 1
            // off entirely under --journal by requiring file-backed
            // inputs.
            out = runGuardedCell(
                cell.label, opts, cell.phase1 ? SweepLedger{} : ledger,
                [&] {
                    return runCellBody(fig, cell, slot.acquire(fig, cell),
                                       ws);
                });
        }
        if (cell.phase1)
            ws.base = out;
        if (out.failed && !opts.keepGoing)
            stop = true;
        slot.finish(!out.failed, next);
        outs[i] = std::move(out);
    };

    auto run_chain = [&](const SweepPlan::Chain& chain, RigSlot& slot,
                         const SweepCell* after) {
        for (std::size_t j = 0; j < chain.size() && !stop; ++j) {
            run_cell(chain[j], slot,
                     j + 1 < chain.size() ? &plan.cells[chain[j + 1]]
                                          : after);
        }
        // A phase-1 capture feeds only the rest of its own chain.
        if (plan.cells[chain.front()].phase1)
            streams[plan.cells[chain.front()].workload].buffer.reset();
    };

    const unsigned jobs = static_cast<unsigned>(
        std::min<std::size_t>(opts.jobs, plan.chains.size()));
    if (jobs > 1) {
        // Each thread takes the next chain in plan order and runs it
        // whole on a slot of its own. An exception that escapes a chain
        // is rethrown here once every thread has joined.
        std::atomic<std::size_t> next{0};
        std::vector<std::exception_ptr> errors(jobs);
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t) {
            threads.emplace_back([&, t] {
                try {
                    for (std::size_t k = next++;
                         k < plan.chains.size() && !stop; k = next++) {
                        RigSlot slot;
                        run_chain(plan.chains[k], slot, nullptr);
                    }
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
        }
        for (std::thread& t : threads)
            t.join();
        for (const std::exception_ptr& e : errors) {
            if (e)
                std::rethrow_exception(e);
        }
        return outs;
    }
    RigSlot slot;
    for (std::size_t k = 0; k < plan.chains.size() && !stop; ++k) {
        run_chain(plan.chains[k], slot,
                  k + 1 < plan.chains.size()
                      ? &plan.cells[plan.chains[k + 1].front()]
                      : nullptr);
    }
    return outs;
}

} // namespace

FigureData
SweepRunner::runFigure(const std::string& figure_id,
                       const PlatformParams& platform,
                       const std::vector<DragonheadParams>& emulators_in,
                       const std::vector<std::string>& ticks)
{
    // --quick: retime every configuration's CB window. The override
    // applies to profiling and sampled replay alike, so plan windows
    // keep aligning with the CB sample series they index.
    std::vector<DragonheadParams> emulators = emulators_in;
    if (opts_.samplePeriodUs != 0) {
        for (DragonheadParams& emu : emulators)
            emu.cb.samplePeriodUs = opts_.samplePeriodUs;
    }
    const SweepFigure fig{opts_, platform, std::move(emulators), ticks};
    const SweepPlan plan = planSweep(fig);

    FigureData figure(figure_id, "cache configuration", ticks);

    obs::TraceSession& trace = obs::TraceSession::global();
    bool own_trace = !opts_.traceFile.empty() && !trace.active();
    if (own_trace)
        trace.start();

    const std::size_t n_w = opts_.workloads.size();
    const std::size_t total_cells = plan.cells.size();

    // Crash safety: the write-ahead journal, and -- when resuming --
    // the verified results of cells an interrupted sweep already
    // finished (see loadResumedCells).
    std::unique_ptr<SweepJournal> journal;
    std::map<std::string, CellOutput> resumed_cells;
    std::atomic<std::uint64_t> resume_skipped{0};
    SweepLedger ledger;
    if (!opts_.journalFile.empty()) {
        const std::uint64_t config_digest =
            sweepConfigDigest(figure_id, fig);
        ensureOutputDir(opts_.outDir + "/cells");
        std::uint64_t next_seq = 0;
        const bool resuming = !opts_.resumeFrom.empty();
        if (resuming) {
            JournalState js;
            std::string jerr;
            fatal_if(!JournalState::load(opts_.resumeFrom, &js, &jerr),
                     "resume: %s", jerr.c_str());
            fatal_if(js.configDigest != config_digest,
                     "resume: journal '%s' records a different sweep "
                     "configuration (digest %llu, this run %llu); "
                     "refusing to mix sweeps",
                     opts_.resumeFrom.c_str(),
                     static_cast<unsigned long long>(js.configDigest),
                     static_cast<unsigned long long>(config_digest));
            // Repair a torn tail before appending: the fragment of the
            // interrupted final record must not concatenate with the
            // first record this run writes.
            fatal_if(::truncate(opts_.resumeFrom.c_str(),
                                static_cast<off_t>(js.validBytes)) != 0,
                     "resume: cannot repair journal tail '%s'",
                     opts_.resumeFrom.c_str());
            resumed_cells = loadResumedCells(js);
            next_seq = js.nextSeq;
        }
        try {
            journal = std::make_unique<SweepJournal>(opts_.journalFile,
                                                     next_seq);
        } catch (const IoError& e) {
            fatal("journal: %s", e.what());
        }
        if (next_seq == 0) {
            journal->sweepPlan(figure_id, config_digest, total_cells);
        } else {
            journal->resumed(
                resumed_cells.size(),
                total_cells - std::min(total_cells,
                                       resumed_cells.size()));
        }
        ledger.journal = journal.get();
        if (resuming)
            ledger.resumed = &resumed_cells;
        ledger.skipped = &resume_skipped;
    }

    obs::RunManifest manifest;
    manifest.figureId = figure_id;
    manifest.platform = platform.name;
    manifest.nCores = platform.nCores;
    manifest.scale = opts_.scale;
    manifest.seed = opts_.seed;
    manifest.seedSource = opts_.seedSource;
    manifest.configTicks = ticks;
    manifest.cellMode = toString(opts_.cells);
    manifest.journalPath = opts_.journalFile;
    manifest.resumed = !opts_.resumeFrom.empty();
    // Host parallelism as the scheduler applies it: jobs clamp to the
    // number of chains, emulation threads to the most LLC stacks one rig
    // emulates once its bank has split them for the threads asked for.
    const std::vector<unsigned> stack_of =
        planStacks(fig.emulators, opts_.emuThreads);
    const std::size_t all_stacks =
        stack_of.empty()
            ? 0
            : std::size_t{1} +
                  *std::max_element(stack_of.begin(), stack_of.end());
    std::size_t group = 0;
    for (const SweepCell& cell : plan.cells) {
        group = std::max<std::size_t>(
            group, cell.group == EmulatorGroup::All    ? all_stacks
                   : cell.group == EmulatorGroup::None ? 0
                                                       : 1);
    }
    manifest.hostJobs =
        static_cast<unsigned>(std::min<std::size_t>(
            opts_.jobs, std::max<std::size_t>(plan.chains.size(), 1)));
    manifest.emulationThreads = static_cast<unsigned>(
        std::min<std::size_t>(opts_.emuThreads, group));

    auto wall0 = std::chrono::steady_clock::now();
    std::vector<WorkloadStream> streams;
    streams.reserve(n_w);
    for (std::size_t w = 0; w < n_w; ++w)
        streams.push_back(resolveStream(fig, w));
    std::vector<std::optional<CellOutput>> outs =
        runPlan(fig, plan, streams, ledger);

    // One figure row per workload, folded from its cells. A sweep that
    // stopped at a failure leaves a workload with a cell that never
    // started, and none that failed, without a row; the run then fails
    // below, so every row exists past that point.
    std::vector<std::optional<CellOutput>> cells(n_w);
    for (std::size_t w = 0; w < n_w; ++w) {
        const CellOutput* base = nullptr;
        std::vector<CellOutput> configs;
        bool unstarted = false;
        bool failed = false;
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            if (plan.cells[i].workload != w)
                continue;
            if (!outs[i]) {
                unstarted = true;
                continue;
            }
            failed = failed || outs[i]->failed;
            if (plan.cells[i].phase1)
                base = &*outs[i];
            else
                configs.push_back(std::move(*outs[i]));
        }
        if (failed || !unstarted)
            cells[w] = mergeWorkloadCells(opts_.workloads[w], base, configs);
    }
    manifest.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();

    // The journal's counts are workload rows, matching the summary
    // below.
    std::size_t n_ok = 0;
    std::size_t n_failed = 0;
    for (const std::optional<CellOutput>& c : cells) {
        if (c)
            ++(c->failed ? n_failed : n_ok);
    }
    if (journal != nullptr)
        journal->sweepDone(n_ok, n_failed);

    // Aggregate in workload order regardless of completion order, so the
    // figure, manifest and digest outputs are deterministic. The host
    // profile is the kept rows' sum: a resumed cell ran nothing here.
    double host_sum = 0.0;
    std::uint64_t sim_insts = 0;
    double sim_seconds = 0.0;
    const CellOutput* first_failed = nullptr;
    const CellOutput* last_ok = nullptr;
    DigestManifest digests;
    for (std::size_t i = 0; i < n_w; ++i) {
        if (!cells[i])
            continue;
        CellOutput& cell = *cells[i];
        const std::string& name = opts_.workloads[i];
        if (cell.failed) {
            manifest.workloads.push_back(cell.mw);
            figure.addFailedSeries(name);
            if (first_failed == nullptr)
                first_failed = &cell;
            std::printf("  %-9s FAILED: %s  [%zu/%zu]\n", name.c_str(),
                        cell.mw.error.c_str(), i + 1, n_w);
            continue;
        }
        last_ok = &cell;
        host_sum += cell.mw.hostSeconds;
        for (const obs::ManifestHostPhase& p : cell.hostPhases)
            obs::addHostPhase(manifest.hostPhases, p.name, p.seconds,
                              p.calls);
        sim_insts += cell.simInsts;
        sim_seconds += cell.simSeconds;
        manifest.guestExecutions += cell.guestExecutions;
        manifest.captureTxns += cell.captureTxns;
        manifest.captureBytes += cell.captureBytes;
        manifest.captureSeconds += cell.captureSeconds;
        manifest.replayTxns += cell.replayTxns;
        manifest.replayBytes += cell.replayBytes;
        manifest.replaySeconds += cell.replaySeconds;
        if (cell.hasDigest)
            digests.add(cell.mw.name, cell.streamTxns, cell.streamDigest);
        manifest.workloads.push_back(cell.mw);
        figure.addSeries(cell.mw.name, cell.mw.mpkiPerConfig,
                         std::move(cell.points));
        if (cell.mw.sampling.active && cell.mw.sampling.hasError)
            figure.setSamplingError(cell.mw.name,
                                    cell.mw.sampling.errMpki);
        std::printf("  %-9s %8.1fM inst  %6.2fs host  %5.1f MIPS  "
                    "verified=%s%s  [%zu/%zu]\n", cell.mw.name.c_str(),
                    static_cast<double>(cell.mw.totalInsts) / 1e6,
                    cell.mw.hostSeconds, cell.mw.simMips,
                    cell.mw.verified ? "yes" : "NO",
                    cell.mw.replayedFrom.empty() ? "" : "  replayed",
                    i + 1, n_w);
        if (cell.mw.sampling.active) {
            const obs::ManifestSampling& s = cell.mw.sampling;
            if (s.hasError) {
                std::printf("            sampled: %llu intervals, "
                            "%.1f%% coverage, mpki err %.2f%%\n",
                            static_cast<unsigned long long>(s.intervals),
                            100.0 * s.coverage, 100.0 * s.errMpki);
            } else {
                std::printf("            sampled: %llu intervals, "
                            "%.1f%% coverage (no reference)\n",
                            static_cast<unsigned long long>(s.intervals),
                            100.0 * s.coverage);
            }
        }
    }
    manifest.hostSpeedup = manifest.wallSeconds > 0.0
        ? host_sum / manifest.wallSeconds
        : 0.0;
    manifest.hostSimMips = sim_seconds > 0.0
        ? static_cast<double>(sim_insts) / 1e6 / sim_seconds
        : 0.0;

    // A failed cell without --keep-going fails the run *before* any
    // artifact is written: a nonzero exit must never leave behind a
    // stats dump or manifest that looks like a completed figure.
    if (first_failed != nullptr && !opts_.keepGoing) {
        fatal("sweep %s: cell %s failed: %s (use --keep-going to publish "
              "the healthy cells)", figure_id.c_str(),
              first_failed->mw.name.c_str(), first_failed->mw.error.c_str());
    }

    // --plan-out from a full-detail run: cluster every workload's CB
    // series into a sampling plan for later --cells=sampled sweeps.
    // (Sampled mode writes its plans from its profile cells instead,
    // behind the same failure boundary as any other cell.)
    if (!opts_.planOutBase.empty() &&
        opts_.cells != CellMode::Sampled && !fig.emulators.empty()) {
        for (const std::optional<CellOutput>& row : cells) {
            const CellOutput& cell = *row;
            if (cell.failed)
                continue;
            if (cell.cbSamples.empty()) {
                warn("plan-out: %s recorded no CB samples; skipped",
                     cell.mw.name.c_str());
                continue;
            }
            SamplingPlan sampling =
                makePlan(cell.cbSamples, cell.mw.name,
                         fig.emulators.front().cb, opts_);
            const std::string path =
                planPath(opts_.planOutBase, cell.mw.name);
            try {
                sampling.writeFile(path);
            } catch (const IoError& e) {
                fatal("plan-out: %s", e.what());
            }
            inform("plan: %s (%zu intervals, %.1f%% coverage)",
                   path.c_str(), sampling.intervals.size(),
                   100.0 * sampling.coverage());
        }
    }

    // The stats dump: every kept row's cells in workload and plan
    // order, whatever order they finished in. Combined plans (combined
    // mode, and replay from files) also expose the "state after the
    // final workload" view unprefixed: the last kept row's groups
    // without their cell/<w>/ prefix. Then the sweep's host profile
    // and the aggregate capture and replay counters.
    if (!opts_.statsFile.empty()) {
        std::vector<stats::Group> dump;
        for (const std::optional<CellOutput>& row : cells)
            dump.insert(dump.end(), row->stats.begin(), row->stats.end());
        const bool combined_plan =
            opts_.cells == CellMode::Combined ||
            (opts_.cells == CellMode::Replay && !opts_.replayBase.empty());
        if (combined_plan && last_ok != nullptr) {
            const std::string prefix = "cell/" + last_ok->mw.name + "/";
            for (const stats::Group& g : last_ok->stats)
                dump.emplace_back(g).name.erase(0, prefix.size());
        }
        stats::Group& host = dump.emplace_back("host");
        for (const obs::ManifestHostPhase& p : manifest.hostPhases) {
            host.add(p.name + ".seconds", p.seconds);
            host.add(p.name + ".calls", double(p.calls));
        }
        host.add("sim_insts", double(sim_insts));
        host.add("sim_mips", manifest.hostSimMips);
        host.add("emulation_threads", double(manifest.emulationThreads));
        if (manifest.captureTxns > 0) {
            stats::Group& g = dump.emplace_back("capture");
            g.add("txns", double(manifest.captureTxns));
            g.add("bytes", double(manifest.captureBytes));
            g.add("encode_seconds", manifest.captureSeconds);
        }
        if (manifest.replayTxns > 0) {
            stats::Group& g = dump.emplace_back("replay");
            g.add("txns", double(manifest.replayTxns));
            g.add("bytes", double(manifest.replayBytes));
            g.add("seconds", manifest.replaySeconds);
        }
        obs::json::writeStatsDump(opts_.statsFile, dump);
        inform("stats: %s", opts_.statsFile.c_str());
    }

    if (!opts_.digestFile.empty()) {
        fatal_if(digests.entries.empty(),
                 "--digest=%s: no stream digests were computed",
                 opts_.digestFile.c_str());
        digests.writeFile(opts_.digestFile);
        inform("digests: %s", opts_.digestFile.c_str());
    }

    manifest.resumeSkipped =
        resume_skipped.load(std::memory_order_relaxed);

    if (own_trace) {
        trace.stop();
        trace.writeJson(opts_.traceFile);
        inform("trace: %s (%zu events)", opts_.traceFile.c_str(),
               trace.eventCount());
    }

    // The manifest goes last: a failed write of any artifact above
    // exits before it, so a run.json always describes a run whose
    // artifacts all exist.
    if (!opts_.manifestFile.empty()) {
        manifest.writeJson(opts_.manifestFile);
        inform("manifest: %s", opts_.manifestFile.c_str());
    }
    return figure;
}

FigureData
SweepRunner::runCacheSizeFigure(const std::string& figure_id,
                                const PlatformParams& platform)
{
    std::vector<std::string> ticks;
    for (std::uint64_t size : presets::llcSizeSweep())
        ticks.push_back(formatSize(size));
    return runFigure(figure_id, platform,
                     presets::llcSizeSweepEmulators(), ticks);
}

FigureData
SweepRunner::runLineSizeFigure(const std::string& figure_id,
                               const PlatformParams& platform)
{
    std::vector<std::string> ticks;
    for (std::uint32_t line : presets::lineSizeSweep())
        ticks.push_back(formatSize(line));
    return runFigure(figure_id, platform,
                     presets::lineSizeSweepEmulators(), ticks);
}

} // namespace cosim
