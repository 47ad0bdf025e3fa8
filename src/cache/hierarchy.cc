#include "cache/hierarchy.hh"

#include "base/logging.hh"

namespace cosim {

PrivateHierarchy::PrivateHierarchy(const HierarchyParams& params)
    : l1_(params.l1)
{
    if (params.hasL2) {
        fatal_if(params.l2.lineSize < params.l1.lineSize,
                 "L2 line (%u) smaller than L1 line (%u)",
                 params.l2.lineSize, params.l1.lineSize);
        l2_ = std::make_unique<Cache>(params.l2);
    }
}

Cache&
PrivateHierarchy::l2()
{
    panic_if(l2_ == nullptr, "hierarchy has no L2");
    return *l2_;
}

const Cache&
PrivateHierarchy::l2() const
{
    panic_if(l2_ == nullptr, "hierarchy has no L2");
    return *l2_;
}

std::uint32_t
PrivateHierarchy::busLineSize() const
{
    return l2_ ? l2_->params().lineSize : l1_.params().lineSize;
}

bool
PrivateHierarchy::prefetchFill(Addr addr)
{
    if (l2_)
        return l2_->prefetchFill(addr);
    return l1_.prefetchFill(addr);
}

void
PrivateHierarchy::flush()
{
    l1_.flush();
    if (l2_)
        l2_->flush();
}

void
PrivateHierarchy::resetStats()
{
    l1_.resetStats();
    if (l2_)
        l2_->resetStats();
}

} // namespace cosim
