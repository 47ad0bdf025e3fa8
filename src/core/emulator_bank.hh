/**
 * @file
 * Host-parallel bank of passive Dragonhead emulators.
 *
 * The physical Dragonhead board emulated its cache slices on four CC
 * FPGAs *concurrently with* the workload's execution; the serial software
 * reproduction lost that, paying every emulator's cache-model cost on the
 * one host thread that runs the workload. The AsyncEmulatorBank restores
 * the overlap: it attaches to the front-side bus as a single snooper,
 * accumulates transactions into fixed-size chunks, and ships each chunk
 * through a bounded SPSC queue to worker threads that own the emulators'
 * LLC stacks (configurations that differ only in capacity share one
 * stack; see dragonhead/llc_stack.hh). Emulation is passive and the
 * stacks share no state, so every stack still sees the complete
 * transaction sequence in issue order -- results are bit-identical to
 * serial snooping (a test suite enforces this), only the host wall-clock
 * changes.
 *
 * Workers are pinned to stacks, not configurations: there are
 * min(nThreads, stacks) of them, stack s runs on worker s % nThreads,
 * and a worker runs its stacks sequentially per chunk.
 * Backpressure: bounded queues block the producing (workload) thread when
 * a worker falls behind, capping buffered history.
 *
 * Failure containment: a worker that throws (including an injected
 * "emu.worker.crash" fault, see base/fault.hh) records the exception,
 * poisons its queue so the producer can never deadlock against it, and
 * exits. The error surfaces as one clean exception from the next
 * sync()/reset() on the workload thread -- never std::terminate -- and
 * fails the run.
 */

#ifndef COSIM_CORE_EMULATOR_BANK_HH
#define COSIM_CORE_EMULATOR_BANK_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"
#include "base/spsc_queue.hh"
#include "dragonhead/dragonhead.hh"
#include "mem/fsb.hh"

namespace cosim {

/** Static configuration of the bank. */
struct EmulatorBankParams
{
    /** One passive emulator per entry. */
    std::vector<DragonheadParams> emulators;

    /** Worker threads; 0 = one per LLC stack. Clamped to the stacks. */
    unsigned nThreads = 0;

    /** Transactions per delivery chunk. */
    std::size_t chunkTxns = 4096;

    /** Chunks in flight per worker before the producer blocks. */
    std::size_t queueChunks = 64;
};

/** Per-stack delivery counters (read after sync()). */
struct EmulatorWorkerStats
{
    std::uint64_t batches = 0; ///< chunks emulated
    std::uint64_t txns = 0;    ///< transactions emulated
};

/** See file comment. */
class AsyncEmulatorBank : public BusSnooper
{
  public:
    explicit AsyncEmulatorBank(const EmulatorBankParams& params);
    ~AsyncEmulatorBank() override;

    AsyncEmulatorBank(const AsyncEmulatorBank&) = delete;
    AsyncEmulatorBank& operator=(const AsyncEmulatorBank&) = delete;

    /** BusSnooper: buffer one transaction into the pending chunk. */
    void observe(const BusTransaction& txn) override;

    /** BusSnooper: buffer a chunk (the batched-FSB delivery path). */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    /**
     * Publish the pending partial chunk and block until every worker has
     * drained its queue. Emulator results are only meaningful afterwards.
     *
     * @throws whatever a worker thread threw, rethrown here on the
     * workload thread. The bank stays poisoned: every later sync()
     * rethrows too.
     */
    void sync();

    /** sync(), then return every emulator to power-on state. */
    void reset();

    unsigned nEmulators() const { return boards_.nBoards(); }

    unsigned nThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Config @p i's view; call sync() first for settled results. */
    const Dragonhead& emulator(unsigned i) const;

    /** Delivery counters of emulator @p i's stack (after sync()). */
    EmulatorWorkerStats emulatorStats(unsigned i) const;

    /** Queue-depth high-water of the worker owning emulator @p i. */
    std::size_t queuePeak(unsigned i) const;

    /** Workers that died (exception escaped the worker loop). */
    unsigned failedWorkers() const;

  private:
    /** One immutable chunk, shared by every worker's queue. */
    using Chunk = std::shared_ptr<const std::vector<BusTransaction>>;

    struct Worker
    {
        explicit Worker(std::size_t queue_chunks) : queue(queue_chunks) {}

        SpscQueue<Chunk> queue;
        std::vector<unsigned> stacks; ///< indices into boards_' stacks
        /** Chunks pushed; written and read by the producer thread only. */
        std::uint64_t chunksPushed = 0;
        std::thread thread;
    };

    void publishPending();
    void workerLoop(unsigned w);

    /** True once every live worker drained all chunks pushed to it. */
    bool drained() const REQUIRES(syncMutex_);

    EmulatorBankParams params_;
    DragonheadStacks boards_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Per-stack delivery counters, written by the owning workers. */
    std::vector<EmulatorWorkerStats> stats_ GUARDED_BY(syncMutex_);
    /** chunksDone_[w]: chunks fully emulated by worker w. (Lives here,
     * not in Worker, so the analysis can tie it to syncMutex_.) */
    std::vector<std::uint64_t> chunksDone_ GUARDED_BY(syncMutex_);
    /** First worker exception; never cleared, so the bank stays
     * poisoned. */
    std::exception_ptr workerError_ GUARDED_BY(syncMutex_);
    /** workerFailed_[w]: worker w's thread exited on an exception. */
    std::vector<unsigned char> workerFailed_ GUARDED_BY(syncMutex_);
    /** Producer-thread-only staging buffer (observe/observeBatch and
     * sync/reset are called from the one snooping thread). */
    std::vector<BusTransaction> pending_;

    mutable Mutex syncMutex_;
    CondVar syncCv_;
};

} // namespace cosim

#endif // COSIM_CORE_EMULATOR_BANK_HH
