#include "core/cosim.hh"

#include <chrono>
#include <stdexcept>

#include "base/logging.hh"

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
    drainBank(result);
    return result;
}

void
CoSimulation::drainBank(RunResult& result)
{
    if (!bank_)
        return;
    // The bus is flushed, but workers may still be emulating queued
    // chunks; the emulation window only closes when the last one
    // drains, so that time belongs to the run.
    auto t0 = std::chrono::steady_clock::now();
    bank_->sync();
    result.drainSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    result.hostSeconds += result.drainSeconds;
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
    drainBank(result);

    result.workload = rr.meta.workload;
    result.platform = platform_.params().name;
    result.nThreads = rr.meta.nCores;
    result.totalInsts = rr.meta.totalInsts;
    result.verified = rr.meta.verified;
    result.replayedFrom = source;
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
    for (unsigned i = 0; i < nEmulators(); ++i)
        emulator(i).addStats(groups, "dragonhead" + std::to_string(i));
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
