#include "softsdv/cpu_model.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cosim {

CpuModel::CpuModel(CoreId id, const CpuParams& params, DramModel* dram,
                   FrontSideBus* fsb)
    : id_(id), params_(params), dram_(dram), fsb_(fsb),
      l1LineMask_(params.caches.l1.lineSize - 1),
      caches_(params.caches),
      pfAdmitRng_(0xA11CE5EEDull + id) // deterministic stream per core
{
    fatal_if(params_.baseCpi <= 0.0, "base CPI must be positive");
    fatal_if(params_.useDramLatency && dram_ == nullptr,
             "timing mode requires a DramModel");
    if (params_.prefetchEnabled)
        prefetcher_ = std::make_unique<StridePrefetcher>(params_.prefetch);
}

double
CpuModel::ipc()
const
{
    return cyclesAcc_ <= 0.0
        ? 0.0
        : static_cast<double>(insts_) / cyclesAcc_;
}

void
CpuModel::handleBeyond(Addr fetch_line, bool l1_was_write)
{
    std::uint32_t bus_line = caches_.busLineSize();

    std::uint64_t beyond_cycles;
    if (params_.useDramLatency) {
        beyond_cycles = dram_->demandLatency();
        dram_->addDemandTraffic(bus_line);
    } else {
        beyond_cycles = params_.beyondLatency;
        if (dram_ != nullptr)
            dram_->addDemandTraffic(bus_line);
    }
    cyclesAcc_ += static_cast<double>(beyond_cycles);

    if (fsb_ != nullptr && params_.emitFsbTraffic) {
        BusTransaction txn;
        txn.addr = fetch_line;
        txn.size = bus_line;
        // The FSB sees a line fill either way; under write-allocate a
        // store miss still reads the line. Tag the original intent so
        // snoopers can classify traffic.
        txn.kind = l1_was_write ? TxnKind::WriteLine : TxnKind::ReadLine;
        txn.core = id_;
        fsb_->issue(txn);
    }
}

void
CpuModel::issuePrefetches(Addr trigger)
{
    if (!prefetcher_)
        return;

    pfProposals_.clear();
    prefetcher_->observe(trigger, pfProposals_);
    if (pfProposals_.empty())
        return;

    double admit = dram_ != nullptr ? dram_->prefetchAdmitFraction() : 1.0;
    std::uint32_t bus_line = caches_.busLineSize();

    for (Addr target : pfProposals_) {
        ++pfStats_.candidates;
        bool admitted = admit >= 1.0 ||
                        (admit > 0.0 && pfAdmitRng_.nextDouble() < admit);
        if (!admitted) {
            ++pfStats_.dropped;
            continue;
        }
        ++pfStats_.admitted;
        if (!caches_.prefetchFill(target))
            continue; // already present, no traffic
        ++pfStats_.installed;
        if (dram_ != nullptr)
            dram_->addPrefetchTraffic(bus_line);
        if (fsb_ != nullptr && params_.emitFsbTraffic) {
            BusTransaction txn;
            txn.addr = target & ~static_cast<Addr>(bus_line - 1);
            txn.size = bus_line;
            txn.kind = TxnKind::Prefetch;
            txn.core = id_;
            fsb_->issue(txn);
        }
    }
}

void
CpuModel::dataAccess(Addr addr, std::uint32_t size, bool write,
                     InstCount n_insts)
{
    panic_if(size == 0, "zero-size access at %#llx",
             static_cast<unsigned long long>(addr));

    // Instruction accounting: by default a reference moves at most 8
    // bytes per instruction; instrumented containers override with
    // their element count.
    InstCount n = n_insts != 0 ? n_insts
                               : std::max<InstCount>(1, size / 8);
    insts_ += n;
    memInsts_ += n;
    if (write)
        stores_ += n;
    else
        loads_ += n;
    cyclesAcc_ += params_.baseCpi * static_cast<double>(n);

    // Fast path: an access contained in one L1 line that hits as a
    // plain LRU hit -- by far the dominant case -- completes here with
    // no virtual dispatch and none of the miss/writeback plumbing.
    // tryL1Hit leaves no trace when it declines.
    if ((addr & l1LineMask_) + size - 1 <= l1LineMask_ &&
        caches_.tryL1Hit(addr, write)) {
        return;
    }

    // Split at L1 line boundaries.
    std::uint32_t l1_line = caches_.l1().params().lineSize;
    Addr cur = addr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
        Addr line_end = (cur | (l1_line - 1)) + 1;
        std::uint64_t chunk = std::min<std::uint64_t>(remaining,
                                                      line_end - cur);

        PrivateHierarchy::Result r = caches_.access(cur, write);

        switch (r.servicedBy) {
          case ServiceLevel::L1:
            break;
          case ServiceLevel::L2:
            cyclesAcc_ += static_cast<double>(params_.l2HitLatency);
            if (r.l2PrefetchHit && params_.useDramLatency) {
                // Late prefetch: part of the memory access is exposed.
                cyclesAcc_ += params_.prefetchLateFraction *
                              static_cast<double>(dram_->demandLatency());
            }
            break;
          case ServiceLevel::Beyond:
            handleBeyond(*r.fetchLine, write);
            break;
        }

        for (unsigned i = 0; i < r.nWritebacks; ++i) {
            std::uint32_t bus_line = caches_.busLineSize();
            if (dram_ != nullptr)
                dram_->addDemandTraffic(bus_line);
            if (fsb_ != nullptr && params_.emitFsbTraffic) {
                BusTransaction txn;
                txn.addr = r.writebacks[i];
                txn.size = bus_line;
                txn.kind = TxnKind::WriteLine;
                txn.core = id_;
                fsb_->issue(txn);
            }
        }

        // The prefetcher watches the stream entering the L2 (the L1 miss
        // stream), as the Xeon's L2 stride prefetcher did.
        if (r.servicedBy != ServiceLevel::L1)
            issuePrefetches(cur);

        cur += chunk;
        remaining -= chunk;
    }
}

void
CpuModel::computeOps(std::uint64_t n)
{
    insts_ += n;
    cyclesAcc_ += params_.baseCpi * static_cast<double>(n);
}

void
CpuModel::addStats(stats::Group& group) const
{
    group.add("insts", [this] { return double(insts_); });
    group.add("mem_insts", [this] { return double(memInsts_); });
    group.add("loads", [this] { return double(loads_); });
    group.add("stores", [this] { return double(stores_); });
    group.add("cycles", [this] { return double(cycles()); });
    group.add("ipc", [this] { return ipc(); });
    group.add("pf_candidates",
              [this] { return double(pfStats_.candidates); });
    group.add("pf_admitted", [this] { return double(pfStats_.admitted); });
    group.add("pf_dropped", [this] { return double(pfStats_.dropped); });
    group.add("pf_installed",
              [this] { return double(pfStats_.installed); });
}

void
CpuModel::reset()
{
    insts_ = memInsts_ = loads_ = stores_ = 0;
    cyclesAcc_ = 0.0;
    pfStats_.reset();
    caches_.flush();
    caches_.resetStats();
    if (prefetcher_) {
        prefetcher_->reset();
        prefetcher_->resetStats();
    }
}

} // namespace cosim
