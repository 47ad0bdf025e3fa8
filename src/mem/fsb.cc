#include "mem/fsb.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cosim {

const char*
toString(AccessType t)
{
    switch (t) {
      case AccessType::Read:
        return "read";
      case AccessType::Write:
        return "write";
    }
    return "?";
}

const char*
toString(TxnKind k)
{
    switch (k) {
      case TxnKind::ReadLine:
        return "read-line";
      case TxnKind::WriteLine:
        return "write-line";
      case TxnKind::Prefetch:
        return "prefetch";
      case TxnKind::Message:
        return "message";
    }
    return "?";
}

void
FrontSideBus::attach(BusSnooper* snooper)
{
    panic_if(snooper == nullptr, "attaching null snooper");
    panic_if(broadcasting_, "attach() from inside a bus broadcast");
    panic_if(std::find(snoopers_.begin(), snoopers_.end(), snooper) !=
                 snoopers_.end(),
             "snooper attached twice");
    if (snoopers_.capacity() == 0)
        snoopers_.reserve(8);
    snoopers_.push_back(snooper);
}

void
FrontSideBus::detach(BusSnooper* snooper)
{
    panic_if(broadcasting_, "detach() from inside a bus broadcast");
    auto it = std::find(snoopers_.begin(), snoopers_.end(), snooper);
    panic_if(it == snoopers_.end(), "detaching snooper that is not attached");
    snoopers_.erase(it);
}

void
FrontSideBus::setBatchCapacity(std::size_t txns)
{
    flush();
    batchCapacity_ = txns;
    if (txns > 1)
        pending_.reserve(txns);
}

void
FrontSideBus::deliver(const BusTransaction& txn)
{
    // Hot loop: pin the list pointer and length in locals so each
    // transaction pays only the virtual observe() call, not repeated
    // loads of the vector's end pointer.
    broadcasting_ = true;
    BusSnooper* const* snoopers = snoopers_.data();
    const std::size_t n = snoopers_.size();
    for (std::size_t i = 0; i < n; ++i)
        snoopers[i]->observe(txn);
    broadcasting_ = false;
}

void
FrontSideBus::flush()
{
    if (pending_.empty())
        return;
    broadcasting_ = true;
    BusSnooper* const* snoopers = snoopers_.data();
    const std::size_t n = snoopers_.size();
    for (std::size_t i = 0; i < n; ++i)
        snoopers[i]->observeBatch(pending_.data(), pending_.size());
    broadcasting_ = false;
    ++nBatches_;
    pending_.clear();
}

void
FrontSideBus::issue(const BusTransaction& txn)
{
    ++nTxns_;
    switch (txn.kind) {
      case TxnKind::ReadLine:
        ++nReads_;
        dataBytes_ += txn.size;
        break;
      case TxnKind::WriteLine:
        ++nWrites_;
        dataBytes_ += txn.size;
        break;
      case TxnKind::Prefetch:
        ++nPrefetches_;
        dataBytes_ += txn.size;
        break;
      case TxnKind::Message:
        ++nMessages_;
        break;
    }
    if (batchCapacity_ > 1) {
        pending_.push_back(txn);
        if (pending_.size() >= batchCapacity_)
            flush();
        return;
    }
    deliver(txn);
}

void
FrontSideBus::addStats(stats::Group& group) const
{
    group.add("txns", double(nTxns_));
    group.add("reads", double(nReads_));
    group.add("writes", double(nWrites_));
    group.add("prefetches", double(nPrefetches_));
    group.add("messages", double(nMessages_));
    group.add("data_bytes", double(dataBytes_));
    group.add("batches", double(nBatches_));
}

void
FrontSideBus::resetStats()
{
    nTxns_ = nReads_ = nWrites_ = nPrefetches_ = nMessages_ = 0;
    dataBytes_ = 0;
    nBatches_ = 0;
}

} // namespace cosim
