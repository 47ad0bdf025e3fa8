#include "core/emulator_bank.hh"

#include <algorithm>
#include <string>

#include "base/fault.hh"
#include "base/flight_recorder.hh"
#include "base/logging.hh"

namespace cosim {

AsyncEmulatorBank::AsyncEmulatorBank(const EmulatorBankParams& params)
    : params_(params), boards_(params.emulators, params.nThreads)
{
    fatal_if(boards_.nBoards() == 0,
             "emulator bank needs at least one Dragonhead");
    if (params_.chunkTxns == 0)
        params_.chunkTxns = 1;
    if (params_.queueChunks == 0)
        params_.queueChunks = 1;

    // planStacks split the stacks for the workers asked for, so there
    // are min(asked, levels) workers.
    const unsigned n_stacks = boards_.nStacks();
    const unsigned n_threads = params_.nThreads == 0
                                   ? n_stacks
                                   : std::min(params_.nThreads, n_stacks);

    {
        // No worker exists yet, but the analysis (rightly) has no way
        // to know that; the uncontended lock documents and proves it.
        LockGuard lock(syncMutex_);
        stats_.resize(n_stacks);
        chunksDone_.resize(n_threads, 0);
        workerFailed_.resize(n_threads, 0);
    }

    workers_.reserve(n_threads);
    for (unsigned w = 0; w < n_threads; ++w)
        workers_.push_back(std::make_unique<Worker>(params_.queueChunks));
    for (unsigned s = 0; s < n_stacks; ++s)
        workers_[s % n_threads]->stacks.push_back(s);

    pending_.reserve(params_.chunkTxns);

    for (unsigned w = 0; w < n_threads; ++w)
        workers_[w]->thread = std::thread([this, w] { workerLoop(w); });
}

AsyncEmulatorBank::~AsyncEmulatorBank()
{
    // Deliver anything still buffered so a bank that is destroyed without
    // an explicit sync() leaves its emulators in the same state serial
    // snooping would have. Never let an exception escape the dtor: a
    // failed bank must still join its threads.
    try {
        publishPending();
    } catch (const std::exception& e) {
        warn("emulator bank teardown dropped pending chunk: %s",
             e.what());
    }
    for (auto& worker : workers_)
        worker->queue.close();
    for (auto& worker : workers_)
        worker->thread.join();
}

void
AsyncEmulatorBank::observe(const BusTransaction& txn)
{
    pending_.push_back(txn);
    if (pending_.size() >= params_.chunkTxns)
        publishPending();
}

void
AsyncEmulatorBank::observeBatch(const BusTransaction* txns, std::size_t n)
{
    pending_.insert(pending_.end(), txns, txns + n);
    if (pending_.size() >= params_.chunkTxns)
        publishPending();
}

void
AsyncEmulatorBank::publishPending()
{
    if (pending_.empty())
        return;
    Chunk chunk = std::make_shared<const std::vector<BusTransaction>>(
        std::move(pending_));
    pending_ = {};
    pending_.reserve(params_.chunkTxns);
    FlightRecorder::note(FrKind::ChunkPublished, "emu.bank",
                         chunk->size());
    for (auto& worker : workers_) {
        // A false return means the worker poisoned its queue (died):
        // the chunk is dropped for it, and the recorded exception
        // surfaces at the next sync(), which fails the run. The
        // poison-aware wait is what keeps a full queue from
        // deadlocking this thread against a dead consumer.
        if (!worker->queue.push(chunk))
            continue;
        ++worker->chunksPushed;
    }
}

bool
AsyncEmulatorBank::drained() const
{
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        // A dead worker never catches up; its chunks were dropped.
        if (workerFailed_[w])
            continue;
        // chunksPushed is producer-private; sync() runs on the producer.
        if (chunksDone_[w] != workers_[w]->chunksPushed)
            return false;
    }
    return true;
}

void
AsyncEmulatorBank::sync()
{
    publishPending();
    std::exception_ptr err;
    {
        LockGuard lock(syncMutex_);
        while (!drained())
            syncCv_.wait(lock);
        err = workerError_;
    }
    if (err)
        std::rethrow_exception(err);
}

void
AsyncEmulatorBank::reset()
{
    sync();
    // Workers are parked in pop() after a sync, so emulator state is
    // exclusively ours here; the counters keep their lock discipline.
    for (unsigned s = 0; s < boards_.nStacks(); ++s)
        boards_.stack(s).reset();
    {
        LockGuard lock(syncMutex_);
        for (auto& s : stats_)
            s = EmulatorWorkerStats{};
    }
    for (auto& worker : workers_)
        worker->queue.resetPeak();
}

const Dragonhead&
AsyncEmulatorBank::emulator(unsigned i) const
{
    return boards_.board(i);
}

EmulatorWorkerStats
AsyncEmulatorBank::emulatorStats(unsigned i) const
{
    // Returned by value under the lock: handing out a reference into
    // stats_ would escape the capability (exactly the pattern
    // -Wthread-safety exists to reject).
    panic_if(i >= nEmulators(), "emulator index %u out of range", i);
    LockGuard lock(syncMutex_);
    return stats_[boards_.stackOf(i)];
}

std::size_t
AsyncEmulatorBank::queuePeak(unsigned i) const
{
    panic_if(i >= nEmulators(), "emulator index %u out of range", i);
    return workers_[boards_.stackOf(i) % workers_.size()]
        ->queue.peakDepth();
}

unsigned
AsyncEmulatorBank::failedWorkers() const
{
    LockGuard lock(syncMutex_);
    unsigned n = 0;
    for (unsigned char failed : workerFailed_)
        n += failed != 0;
    return n;
}

void
AsyncEmulatorBank::workerLoop(unsigned w)
{
    FlightRecorder::setThreadLabel("emu.worker/" + std::to_string(w));
    Worker& worker = *workers_[w];
    Chunk chunk;
    while (worker.queue.pop(chunk)) {
        try {
            COSIM_FAULT_POINT("emu.worker.crash");
            const std::vector<BusTransaction>& txns = *chunk;
            const std::size_t n_txns = txns.size();
            for (unsigned s : worker.stacks)
                boards_.stack(s).observeBatch(txns.data(), n_txns);
            {
                LockGuard lock(syncMutex_);
                for (unsigned s : worker.stacks) {
                    ++stats_[s].batches;
                    stats_[s].txns += n_txns;
                }
                ++chunksDone_[w];
            }
            FlightRecorder::note(FrKind::ChunkEmulated, "emu.worker",
                                 n_txns, w);
            chunk.reset();
            syncCv_.notifyAll();
        } catch (...) {
            {
                LockGuard lock(syncMutex_);
                if (!workerError_)
                    workerError_ = std::current_exception();
                workerFailed_[w] = 1;
            }
            FlightRecorder::note(FrKind::WorkerDied, "emu.worker", w);
            // Unblock a producer waiting on a full queue and a sync()
            // waiting on chunksDone_ -- this worker will never catch up.
            worker.queue.poison();
            syncCv_.notifyAll();
            return;
        }
    }
}

} // namespace cosim
