#include "dragonhead/dragonhead.hh"

#include "base/logging.hh"

namespace cosim {

Dragonhead::Dragonhead(const DragonheadParams& params)
    : owned_(std::make_unique<LlcStack>(
          std::vector<DragonheadParams>{params})),
      stack_(owned_.get()), config_(0)
{}

Dragonhead::Dragonhead(const LlcStack& stack, unsigned config)
    : stack_(&stack), config_(config)
{
    panic_if(config >= stack.nConfigs(), "config %u of a %u-config stack",
             config, stack.nConfigs());
}

LlcStack&
Dragonhead::ownStack(const char* what) const
{
    panic_if(!owned_, "%s on a view of a shared LLC stack", what);
    return *owned_;
}

void
Dragonhead::observe(const BusTransaction& txn)
{
    ownStack("observe").observe(txn);
}

void
Dragonhead::observeBatch(const BusTransaction* txns, std::size_t n)
{
    ownStack("observeBatch").observeBatch(txns, n);
}

void
Dragonhead::reset()
{
    ownStack("reset").reset();
}

void
Dragonhead::addStats(std::vector<stats::Group>& groups,
                     const std::string& prefix) const
{
    const LlcResults r = results();
    stats::Group& agg = groups.emplace_back(prefix);
    agg.add("accesses", double(r.accesses));
    agg.add("misses", double(r.misses));
    agg.add("insts", double(r.insts));
    agg.add("cycles", double(r.cycles));
    agg.add("mpki", r.mpki());
    agg.add("miss_rate", r.missRate());
    agg.add("samples", double(samples().size()));
    for (unsigned i = 0; i < nSlices(); ++i)
        sliceStats(i).addStats(
            groups.emplace_back(prefix + ".cc" + std::to_string(i)));
}

DragonheadStacks::DragonheadStacks(
    const std::vector<DragonheadParams>& configs, unsigned workers)
    : stackOf_(planStacks(configs, workers))
{
    // Each stack's configs in list order, then one view per config.
    std::vector<std::vector<DragonheadParams>> members;
    std::vector<unsigned> index;
    for (unsigned i = 0; i < configs.size(); ++i) {
        if (stackOf_[i] == members.size())
            members.emplace_back();
        index.push_back(static_cast<unsigned>(members[stackOf_[i]].size()));
        members[stackOf_[i]].push_back(configs[i]);
    }
    for (const auto& m : members)
        stacks_.push_back(std::make_unique<LlcStack>(m));
    for (unsigned i = 0; i < configs.size(); ++i) {
        boards_.push_back(
            std::make_unique<Dragonhead>(*stacks_[stackOf_[i]], index[i]));
    }
}

const Dragonhead&
DragonheadStacks::board(unsigned i) const
{
    panic_if(i >= boards_.size(), "emulator index %u out of range", i);
    return *boards_[i];
}

} // namespace cosim
