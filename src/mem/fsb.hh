/**
 * @file
 * Front-side bus model.
 *
 * In the paper's rig, Dragonhead passively snoops the physical FSB of the
 * host machine through a logic analyzer interface (LAI). Here the bus is a
 * synchronous broadcast point: producers (the per-core private cache
 * hierarchies and the DEX scheduler's message generator) issue
 * transactions, and any number of snoopers (Dragonhead instances, trace
 * writers, custom observers) see every one of them in issue order.
 *
 * Two delivery modes exist:
 *
 *  - *Immediate* (batch capacity 0/1, the default): every issue() walks
 *    the snooper list synchronously, exactly the original behaviour.
 *  - *Batched* (setBatchCapacity(N)): transactions accumulate into a
 *    fixed-size chunk that is handed to BusSnooper::observeBatch() when
 *    full (or on flush()). Chunks preserve issue order, so snoopers see
 *    the identical transaction sequence, just delivered later; the
 *    AsyncEmulatorBank uses this to ship whole chunks to worker threads
 *    instead of paying a virtual call per transaction.
 */

#ifndef COSIM_MEM_FSB_HH
#define COSIM_MEM_FSB_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "mem/access.hh"

namespace cosim {

/** Interface for anything that watches the front-side bus. */
class BusSnooper
{
  public:
    virtual ~BusSnooper() = default;

    /** Called for every transaction, in issue order. */
    virtual void observe(const BusTransaction& txn) = 0;

    /**
     * Called with a chunk of consecutive transactions in issue order
     * when the bus runs batched. The default keeps per-transaction
     * snoopers (trace sinks, tests) working unchanged.
     */
    virtual void
    observeBatch(const BusTransaction* txns, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            observe(txns[i]);
    }
};

/**
 * The broadcast bus. Not thread-safe by design: cores and the DEX
 * scheduler issue on the one host thread that runs the guest, exactly
 * as the physical FSB serializes transactions. (Cross-thread fan-out
 * happens *behind* a snooper -- see AsyncEmulatorBank.)
 */
class FrontSideBus
{
  public:
    /** Attach a snooper; it starts seeing subsequent transactions. */
    void attach(BusSnooper* snooper);

    /**
     * Detach a previously attached snooper. Detaching (or attaching)
     * from inside observe()/observeBatch() is a hard error: the bus is
     * iterating the snooper list and a mutation would invalidate it.
     */
    void detach(BusSnooper* snooper);

    /** Broadcast one transaction to every snooper. */
    void issue(const BusTransaction& txn);

    /**
     * Accumulate up to @p txns transactions per delivery chunk; 0 or 1
     * restores immediate per-transaction delivery. Pending transactions
     * are flushed first, so the switch never reorders traffic.
     */
    void setBatchCapacity(std::size_t txns);
    std::size_t batchCapacity() const { return batchCapacity_; }

    /** Deliver any buffered transactions now (no-op when none). */
    void flush();

    /** Buffered-but-undelivered transactions (diagnostic). */
    std::size_t pendingTxns() const { return pending_.size(); }

    /** @name Traffic statistics @{ */
    std::uint64_t txnCount() const { return nTxns_; }
    std::uint64_t readCount() const { return nReads_; }
    std::uint64_t writeCount() const { return nWrites_; }
    std::uint64_t prefetchCount() const { return nPrefetches_; }
    std::uint64_t messageCount() const { return nMessages_; }
    std::uint64_t dataBytes() const { return dataBytes_; }
    std::uint64_t batchCount() const { return nBatches_; }
    /** @} */

    std::size_t snooperCount() const { return snoopers_.size(); }

    /** Append the traffic counters to @p group. */
    void addStats(stats::Group& group) const;

    /** Zero the traffic statistics (snoopers stay attached). */
    void resetStats();

  private:
    void deliver(const BusTransaction& txn);

    std::vector<BusSnooper*> snoopers_;
    std::vector<BusTransaction> pending_;
    std::size_t batchCapacity_ = 0;
    /** True while walking the snooper list (guards attach/detach). */
    bool broadcasting_ = false;
    std::uint64_t nTxns_ = 0;
    std::uint64_t nReads_ = 0;
    std::uint64_t nWrites_ = 0;
    std::uint64_t nPrefetches_ = 0;
    std::uint64_t nMessages_ = 0;
    std::uint64_t dataBytes_ = 0;
    std::uint64_t nBatches_ = 0;
};

} // namespace cosim

#endif // COSIM_MEM_FSB_HH
