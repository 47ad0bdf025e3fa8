/**
 * @file
 * The AF (address filter) FPGA of Dragonhead.
 *
 * "AF gets FSB transactions from LAI and sends them to CC after
 * regulation" (Section 3.1). Regulation means: decode message
 * transactions and track the emulation window and active core, drop
 * everything observed outside the window (host OS and simulator noise),
 * and annotate forwarded demand transactions with the core that owns the
 * current DEX slice.
 */

#ifndef COSIM_DRAGONHEAD_ADDRESS_FILTER_HH
#define COSIM_DRAGONHEAD_ADDRESS_FILTER_HH

#include <cstdint>

#include "dragonhead/fsb_messages.hh"
#include "mem/access.hh"

namespace cosim {

/** What the AF decided about one bus transaction. */
enum class FilterAction : std::uint8_t {
    Dropped, ///< outside the emulation window, not emulated
    Forward, ///< demand/prefetch traffic to pass to the cache controllers
    Consumed ///< a message; state updated, nothing forwarded
};

/** Statistics of the filter itself. */
struct FilterStats
{
    std::uint64_t observed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t messages = 0;

    void reset() { *this = FilterStats(); }
};

/** See file comment. */
class AddressFilter
{
  public:
    AddressFilter() = default;

    /**
     * Regulate one transaction.
     * On Forward, @p core_out is the core that owns the current slice.
     * On Consumed, @p msg_out is the decoded message. Inline: every
     * emulator runs it once per bus transaction.
     */
    FilterAction
    process(const BusTransaction& txn, CoreId& core_out,
            msg::Message& msg_out)
    {
        ++stats_.observed;
        if (txn.kind == TxnKind::Message || msg::isMessageAddr(txn.addr)) {
            consume(txn, msg_out);
            return FilterAction::Consumed;
        }
        if (!emulating_) {
            ++stats_.dropped;
            return FilterAction::Dropped;
        }
        ++stats_.forwarded;
        core_out = currentCore_;
        return FilterAction::Forward;
    }

    bool emulating() const { return emulating_; }
    CoreId currentCore() const { return currentCore_; }
    const FilterStats& stats() const { return stats_; }

    void reset();

  private:
    /** Decode message @p txn and apply it to the window and core. */
    void consume(const BusTransaction& txn, msg::Message& msg_out);

    bool emulating_ = false;
    CoreId currentCore_ = 0;
    FilterStats stats_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_ADDRESS_FILTER_HH
