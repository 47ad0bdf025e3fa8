/**
 * @file
 * A minimal deterministic loop workload for the microbenchmarks (the
 * real workloads live in src/workloads; this one just generates a
 * well-defined access stream fast).
 */

#ifndef COSIM_BENCH_TEST_WORKLOAD_LOOP_HH
#define COSIM_BENCH_TEST_WORKLOAD_LOOP_HH

#include "softsdv/guest.hh"
#include "workloads/sim_array.hh"

namespace cosim {
namespace bench {

class LoopWorkload : public Workload
{
  public:
    LoopWorkload(std::size_t array_bytes, unsigned passes)
        : arrayBytes_(array_bytes), passes_(passes)
    {}

    std::string name() const override { return "bench-loop"; }
    std::string description() const override { return "bench loop"; }

    void
    setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override
    {
        arrays_.clear();
        arrays_.resize(cfg.nThreads);
        for (unsigned i = 0; i < cfg.nThreads; ++i)
            arrays_[i].init(alloc, "bench.array", arrayBytes_ / 8);
    }

    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;

  private:
    friend class LoopTask;
    std::size_t arrayBytes_;
    unsigned passes_;
    std::vector<SimArray<std::uint64_t>> arrays_;
};

class LoopTask : public ThreadTask
{
  public:
    LoopTask(LoopWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool
    step(CoreContext& ctx) override
    {
        auto& arr = wl_.arrays_[tid_];
        std::size_t chunk = std::min<std::size_t>(512, arr.size() - pos_);
        for (std::size_t k = 0; k < chunk; ++k)
            arr.read(ctx, pos_ + k);
        ctx.compute(chunk);
        pos_ += chunk;
        if (pos_ >= arr.size()) {
            pos_ = 0;
            ++pass_;
        }
        return pass_ < wl_.passes_;
    }

  private:
    LoopWorkload& wl_;
    unsigned tid_;
    std::size_t pos_ = 0;
    unsigned pass_ = 0;
};

inline std::unique_ptr<ThreadTask>
LoopWorkload::createThread(unsigned tid)
{
    return std::make_unique<LoopTask>(*this, tid);
}

} // namespace bench
} // namespace cosim

#endif // COSIM_BENCH_TEST_WORKLOAD_LOOP_HH
