#include "dragonhead/address_filter.hh"

namespace cosim {

void
AddressFilter::consume(const BusTransaction& txn, msg::Message& msg_out)
{
    ++stats_.messages;
    msg_out = msg::decode(txn.addr);
    switch (msg_out.type) {
      case msg::Type::StartEmulation:
        emulating_ = true;
        break;
      case msg::Type::StopEmulation:
        emulating_ = false;
        break;
      case msg::Type::SetCoreId:
        currentCore_ = static_cast<CoreId>(msg_out.payload);
        break;
      case msg::Type::InstRetired:
      case msg::Type::CyclesCompleted:
        // Bookkeeping messages are consumed here and interpreted by
        // the control block.
        break;
    }
}

void
AddressFilter::reset()
{
    emulating_ = false;
    currentCore_ = 0;
    stats_.reset();
}

} // namespace cosim
