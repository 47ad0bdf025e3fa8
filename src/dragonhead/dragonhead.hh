/**
 * @file
 * The assembled Dragonhead cache emulator.
 *
 * Six FPGAs on the physical board: AF (address filter), CC0..CC3 (cache
 * controller slices) and CB (control block). A Dragonhead is the
 * host-computer view of one configured board: its results, its CB
 * samples, and the counters each CC kept, per slice and per core.
 *
 * The CC slices are one emulated cache. The board interleaves line
 * addresses across the slices and each slice indexes its sets with the
 * remaining line bits, so slice j's set i is set i * nSlices + j of a
 * monolithic cache of the full size, under the same tag: the slice id is
 * the low bits of the set index. Per-core partitions are runs of
 * consecutive sets instead.
 *
 * Like the FPGA, the emulator is *passive*: it never affects what the
 * cores do, so any number of boards with different cache configurations
 * can snoop the same bus simultaneously -- that is how the benches
 * evaluate a whole cache-size sweep in a single workload run. Boards
 * that differ only in capacity are emulated together by one LlcStack
 * (dragonhead/llc_stack.hh), and each is a read-only view of its level.
 * A standalone Dragonhead owns a stack of one and snoops the bus itself.
 */

#ifndef COSIM_DRAGONHEAD_DRAGONHEAD_HH
#define COSIM_DRAGONHEAD_DRAGONHEAD_HH

#include <memory>
#include <string>
#include <vector>

#include "dragonhead/llc_stack.hh"
#include "obs/stats_registry.hh"

namespace cosim {

/** See file comment. */
class Dragonhead : public BusSnooper
{
  public:
    /** A standalone board: owns a stack of one. */
    explicit Dragonhead(const DragonheadParams& params);

    /** Config @p config's view of @p stack, which must outlive it. */
    Dragonhead(const LlcStack& stack, unsigned config);

    /** The bus holds a standalone board's address. */
    Dragonhead(const Dragonhead&) = delete;
    Dragonhead& operator=(const Dragonhead&) = delete;

    /**
     * BusSnooper: regulate and emulate one transaction. A standalone
     * board only; a view of a shared stack panics (the stack snoops).
     */
    void observe(const BusTransaction& txn) override;

    /**
     * BusSnooper: emulate a chunk. Semantically identical to observing
     * each transaction in turn, but pays the virtual dispatch once per
     * chunk instead of once per transaction.
     */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    /** Aggregated results over the whole emulation window. */
    LlcResults results() const { return stack_->results(config_); }

    /** Per-core accesses/misses (zero for a core never announced). */
    CoreCounters
    coreResults(CoreId core) const
    {
        return stack_->coreResults(config_, core);
    }

    /** The 500 us sample series. */
    const std::vector<Sample>&
    samples() const
    {
        return stack_->samples(config_);
    }

    const DragonheadParams& params() const { return stack_->params(config_); }
    const AddressFilter& addressFilter() const
    {
        return stack_->addressFilter();
    }

    /** The counters CC slice @p i kept (its share of the accesses). */
    CacheStats
    sliceStats(unsigned i) const
    {
        return stack_->sliceStats(config_, i);
    }
    unsigned nSlices() const { return stack_->nSlices(); }

    /**
     * Return the board to power-on state. A standalone board only; a
     * shared stack's owner resets the stack.
     */
    void reset();

    /**
     * Register this emulator's stats into @p registry under
     * "<prefix>" (aggregate) and "<prefix>.cc<i>" (per slice).
     * @return the stored aggregate group, so callers can append stats
     * of their own (the AsyncEmulatorBank adds delivery counters).
     */
    stats::Group& registerStats(obs::StatsRegistry& registry,
                                const std::string& prefix) const;

  private:
    /** The stack a standalone board owns; panics on a view. */
    LlcStack& ownStack(const char* what) const;

    std::unique_ptr<LlcStack> owned_;
    const LlcStack* stack_;
    unsigned config_;
};

/**
 * A configuration list emulated as stacks (planStacks), with one
 * Dragonhead view per configuration, in list order.
 */
class DragonheadStacks
{
  public:
    /** Stacks planned for @p workers host threads; one thread keeps
     * each stack whole, the least total work. */
    explicit DragonheadStacks(const std::vector<DragonheadParams>& configs,
                              unsigned workers = 1);

    unsigned
    nStacks() const
    {
        return static_cast<unsigned>(stacks_.size());
    }
    LlcStack& stack(unsigned s) { return *stacks_[s]; }

    unsigned
    nBoards() const
    {
        return static_cast<unsigned>(boards_.size());
    }
    /** Config @p i's view. */
    const Dragonhead& board(unsigned i) const;
    /** The stack emulating config @p i. */
    unsigned stackOf(unsigned i) const { return stackOf_[i]; }

  private:
    std::vector<std::unique_ptr<LlcStack>> stacks_;
    std::vector<unsigned> stackOf_;
    std::vector<std::unique_ptr<Dragonhead>> boards_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_DRAGONHEAD_HH
