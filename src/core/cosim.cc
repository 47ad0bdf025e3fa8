#include "core/cosim.hh"

#include <chrono>
#include <stdexcept>

#include "base/logging.hh"
#include "obs/host_profiler.hh"

namespace cosim {

namespace {

/** FSB delivery chunk when the caller did not pick one. */
constexpr std::size_t kDefaultBatchTxns = 4096;

} // namespace

CoSimulation::CoSimulation(const CoSimParams& params)
    : platform_(params.platform)
{
    fatal_if(!params.platform.cpu.emitFsbTraffic,
             "co-simulation requires cores that emit FSB traffic "
             "(set CpuParams::emitFsbTraffic)");

    // Every rig batches its bus: snoopers take whole chunks (the bank
    // ships them to its workers, an LLC stack emulates them in
    // observeBatch) instead of a virtual call per transaction.
    const std::size_t chunk = params.fsbBatchTxns > 0 ? params.fsbBatchTxns
                                                      : kDefaultBatchTxns;
    platform_.fsb().setBatchCapacity(chunk);
    if (params.emulationThreads > 0 && !params.emulators.empty()) {
        EmulatorBankParams bp;
        bp.emulators = params.emulators;
        bp.nThreads = params.emulationThreads;
        bp.chunkTxns = chunk;
        bank_ = std::make_unique<AsyncEmulatorBank>(bp);
        platform_.fsb().attach(bank_.get());
        obs::HostProfiler::global().noteEmulationThreads(
            bank_->nThreads());
        return;
    }

    stacks_ = std::make_unique<DragonheadStacks>(params.emulators);
    for (unsigned s = 0; s < stacks_->nStacks(); ++s)
        platform_.fsb().attach(&stacks_->stack(s));
}

CoSimulation::~CoSimulation()
{
    if (bank_) {
        platform_.fsb().flush();
        platform_.fsb().detach(bank_.get());
        return;
    }
    platform_.fsb().flush();
    for (unsigned s = 0; s < stacks_->nStacks(); ++s)
        platform_.fsb().detach(&stacks_->stack(s));
}

RunResult
CoSimulation::run(Workload& workload, const WorkloadConfig& cfg)
{
    resetEmulators();

    RunResult result = platform_.run(workload, cfg);

    if (bank_) {
        // The platform flushed the bus, but workers may still be
        // emulating queued chunks; the emulation window only closes when
        // the last one drains, so that time belongs to the run.
        auto t0 = std::chrono::steady_clock::now();
        bank_->sync();
        double drain = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        result.hostSeconds += drain;
        obs::HostProfiler::global().accumulate("run.drain", drain);
        obs::HostProfiler::global().addSimulated(0, drain);
    }
    return result;
}

void
CoSimulation::resetEmulators()
{
    if (bank_) {
        bank_->reset();
        return;
    }
    for (unsigned s = 0; s < stacks_->nStacks(); ++s)
        stacks_->stack(s).reset();
}

void
CoSimulation::prepareReplay()
{
    resetEmulators();
    platform_.fsb().resetStats();
}

RunResult
CoSimulation::finishReplay(const ReplayResult& rr,
                           const std::string& source,
                           ReplayResult* details)
{
    // Throw rather than fatal(): a sweep cell replaying a corrupt
    // stream is isolatable under --keep-going; standalone callers get
    // a clean fatal from their own catch (see the header contract).
    if (!rr.ok) {
        throw std::runtime_error("cannot replay FSB stream (" + source +
                                 "): " + rr.error);
    }

    RunResult result;
    result.hostSeconds = rr.seconds;
    if (bank_) {
        // Same accounting as run(): the emulation window closes when
        // the last queued chunk drains.
        auto t0 = std::chrono::steady_clock::now();
        bank_->sync();
        double drain = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        result.hostSeconds += drain;
        obs::HostProfiler::global().accumulate("run.drain", drain);
    }

    result.workload = rr.meta.workload;
    result.platform = platform_.params().name;
    result.nThreads = rr.meta.nCores;
    result.totalInsts = rr.meta.totalInsts;
    result.verified = rr.meta.verified;
    result.replayedFrom = source;
    obs::HostProfiler::global().addSimulated(0, result.hostSeconds);
    if (details != nullptr)
        *details = rr;
    return result;
}

RunResult
CoSimulation::replay(FsbStreamReader& reader, const std::string& source,
                     ReplayResult* details)
{
    prepareReplay();
    ReplayDriver driver;
    return finishReplay(driver.replay(reader, platform_.fsb()), source,
                        details);
}

RunResult
CoSimulation::replaySampled(FsbStreamReader& reader,
                            const std::string& source,
                            const SamplingPlan& plan,
                            ReplayResult* details)
{
    prepareReplay();
    SampledReplayDriver driver;
    auto t0 = std::chrono::steady_clock::now();
    ReplayResult rr = driver.replay(reader, plan, platform_.fsb());
    // The driver never reads the host clock (interval selection must
    // stay a pure function of the stream); the pass is timed here.
    rr.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    obs::HostProfiler::global().accumulate("replay.sampled", rr.seconds);
    return finishReplay(rr, "sampled:" + source, details);
}

const Dragonhead&
CoSimulation::emulator(unsigned i) const
{
    if (bank_)
        return bank_->emulator(i);
    return stacks_->board(i);
}

std::vector<stats::Group>
CoSimulation::stats() const
{
    std::vector<stats::Group> groups;
    platform_.addStats(groups);
    for (unsigned i = 0; i < nEmulators(); ++i) {
        // By index: appending the slice groups moves the aggregate.
        const std::size_t agg = groups.size();
        emulator(i).addStats(groups, "dragonhead" + std::to_string(i));
        if (bank_) {
            groups[agg].add("batches",
                            double(bank_->emulatorStats(i).batches));
        }
    }
    return groups;
}

std::vector<double>
CoSimulation::mpkis() const
{
    std::vector<double> out;
    const unsigned n = nEmulators();
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        out.push_back(emulator(i).results().mpki());
    return out;
}

} // namespace cosim
