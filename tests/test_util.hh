/**
 * @file
 * Shared test helpers: a tiny configurable guest workload, a
 * transaction-counting bus snooper, and a --stats dump reader.
 */

#ifndef COSIM_TESTS_TEST_UTIL_HH
#define COSIM_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "mem/fsb.hh"
#include "obs/json.hh"
#include "softsdv/guest.hh"
#include "workloads/sim_array.hh"

namespace cosim {
namespace test {

/**
 * A loop workload for driving the platform in tests, 8 bytes per load
 * with one compute op per load; deterministic and trivially verifiable.
 * Private mode: each thread sweeps its own `arrayBytes` array `passes`
 * times (working set scales with threads). Shared mode: the threads
 * partition one `arrayBytes` array (fixed total work and working set,
 * like the paper's shared-structure workloads).
 */
class LoopWorkload : public Workload
{
  public:
    LoopWorkload(std::size_t array_bytes, unsigned passes,
                 bool shared_array = false)
        : arrayBytes_(array_bytes), passes_(passes), shared_(shared_array)
    {}

    std::string name() const override { return "loop"; }
    std::string description() const override { return "test loop"; }

    void
    setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override
    {
        nThreads_ = cfg.nThreads;
        arrays_.clear();
        unsigned n_arrays = shared_ ? 1 : cfg.nThreads;
        arrays_.resize(n_arrays);
        for (unsigned i = 0; i < n_arrays; ++i) {
            arrays_[i].init(alloc, "loop.array" + std::to_string(i),
                            arrayBytes_ / 8);
            for (std::size_t k = 0; k < arrays_[i].size(); ++k)
                arrays_[i].host(k) = k;
        }
        sums_.assign(cfg.nThreads, 0);
        std::size_t n = arrays_[0].size();
        sliceLo_.assign(cfg.nThreads, 0);
        sliceHi_.assign(cfg.nThreads, n);
        if (shared_) {
            for (unsigned t = 0; t < cfg.nThreads; ++t) {
                sliceLo_[t] = n * t / cfg.nThreads;
                sliceHi_[t] = n * (t + 1) / cfg.nThreads;
            }
        }
    }

    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;

    bool
    verify() override
    {
        // Every thread must have accumulated its exact arithmetic sum.
        for (unsigned t = 0; t < nThreads_; ++t) {
            std::uint64_t expected = 0;
            for (std::size_t k = sliceLo_[t]; k < sliceHi_[t]; ++k)
                expected += k;
            expected *= passes_;
            if (sums_[t] != expected)
                return false;
        }
        return true;
    }

    std::uint64_t sum(unsigned tid) const { return sums_[tid]; }

  private:
    friend class LoopTask;

    std::size_t arrayBytes_;
    unsigned passes_;
    bool shared_;
    unsigned nThreads_ = 1;
    std::vector<SimArray<std::uint64_t>> arrays_;
    std::vector<std::uint64_t> sums_;
    std::vector<std::size_t> sliceLo_;
    std::vector<std::size_t> sliceHi_;
};

class LoopTask : public ThreadTask
{
  public:
    LoopTask(LoopWorkload& wl, unsigned tid) : wl_(wl), tid_(tid) {}

    bool
    step(CoreContext& ctx) override
    {
        auto& arr = wl_.arrays_[wl_.shared_ ? 0 : tid_];
        std::size_t lo = wl_.sliceLo_[tid_];
        std::size_t hi = wl_.sliceHi_[tid_];
        if (pos_ < lo)
            pos_ = lo;
        std::size_t chunk = std::min<std::size_t>(256, hi - pos_);
        for (std::size_t k = 0; k < chunk; ++k)
            wl_.sums_[tid_] += arr.read(ctx, pos_ + k);
        ctx.compute(chunk);
        pos_ += chunk;
        if (pos_ >= hi) {
            pos_ = lo;
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

/** Counts the transactions it observes, by kind. */
class CountingSnooper : public BusSnooper
{
  public:
    void
    observe(const BusTransaction& txn) override
    {
        ++total;
        switch (txn.kind) {
          case TxnKind::ReadLine:
            ++reads;
            break;
          case TxnKind::WriteLine:
            ++writes;
            break;
          case TxnKind::Prefetch:
            ++prefetches;
            break;
          case TxnKind::Message:
            ++messages;
            break;
        }
        last = txn;
    }

    std::uint64_t total = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t messages = 0;
    BusTransaction last{};
};

/** The groups of the --stats dump at @p path, in file order; a dump
 * that does not parse fails the calling test. */
inline std::vector<stats::Group>
readStatsDump(const std::string& path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(text, doc, &error)) << path << ": "
                                                     << error;
    std::vector<stats::Group> groups;
    for (const auto& [name, values] : doc.obj) {
        stats::Group& g = groups.emplace_back(name);
        for (const auto& [stat, value] : values.obj)
            g.add(stat, value.num);
    }
    return groups;
}

} // namespace test
} // namespace cosim

#endif // COSIM_TESTS_TEST_UTIL_HH
