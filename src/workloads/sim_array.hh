/**
 * @file
 * Instrumented containers: real host data + simulated addresses.
 *
 * Workloads compute on ordinary memory, but every element access is also
 * reported to the virtual core's memory model (and from there to the
 * private caches, the FSB and Dragonhead). Access sizes are the element
 * sizes, so the cache models see exactly the reference stream the
 * algorithm generates.
 *
 * Host-only accessors (host()/hostAt()) bypass instrumentation; they are
 * for setUp()-time data generation and verify()-time checking, i.e. work
 * that the paper's rig would have excluded via the start/stop emulation
 * messages.
 */

#ifndef COSIM_WORKLOADS_SIM_ARRAY_HH
#define COSIM_WORKLOADS_SIM_ARRAY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "mem/address_space.hh"
#include "softsdv/core_context.hh"

namespace cosim {

/** A fixed-size instrumented array of trivially copyable elements. */
template <typename T>
class SimArray
{
  public:
    SimArray() = default;

    /** Allocate @p n elements named @p name in simulated memory. */
    void
    init(SimAllocator& alloc, const std::string& name, std::size_t n)
    {
        init(alloc, name, std::vector<T>(n));
    }

    /**
     * Adopt generated @p data as the host array, sized by it, so set-up
     * writes each input once instead of zero-filling a copy of it.
     */
    void
    init(SimAllocator& alloc, const std::string& name, std::vector<T> data)
    {
        data_ = std::move(data);
        base_ = alloc.allocate(name, data_.size() * sizeof(T), 64);
    }

    bool initialized() const { return base_ != 0; }
    std::size_t size() const { return data_.size(); }
    Addr base() const { return base_; }

    /** Simulated address of element @p i. */
    Addr
    addrOf(std::size_t i) const
    {
        return base_ + i * sizeof(T);
    }

    /** Instrumented read. */
    T
    read(CoreContext& ctx, std::size_t i) const
    {
        ctx.load(addrOf(i), sizeof(T));
        return data_[i];
    }

    /** Instrumented write. */
    void
    write(CoreContext& ctx, std::size_t i, const T& v)
    {
        ctx.store(addrOf(i), sizeof(T));
        data_[i] = v;
    }

    /**
     * Instrumented read of @p count consecutive elements: the caches see
     * the whole span, and the core retires one load instruction per
     * element (scalar-walk accounting). Returns the host data pointer
     * for the caller to consume.
     */
    const T*
    readBlock(CoreContext& ctx, std::size_t i, std::size_t count) const
    {
        ctx.load(addrOf(i), static_cast<std::uint32_t>(count * sizeof(T)),
                 count);
        return data_.data() + i;
    }

    /** Instrumented write of @p count consecutive elements. */
    T*
    writeBlock(CoreContext& ctx, std::size_t i, std::size_t count)
    {
        ctx.store(addrOf(i),
                  static_cast<std::uint32_t>(count * sizeof(T)), count);
        return data_.data() + i;
    }

    /** Uninstrumented host access (setUp / verify only). */
    T& host(std::size_t i) { return data_[i]; }
    const T& host(std::size_t i) const { return data_[i]; }
    std::vector<T>& hostData() { return data_; }
    const std::vector<T>& hostData() const { return data_; }

  private:
    std::vector<T> data_;
    Addr base_ = 0;
};

/** A row-major instrumented 2-D matrix. */
template <typename T>
class SimMatrix
{
  public:
    SimMatrix() = default;

    void
    init(SimAllocator& alloc, const std::string& name, std::size_t rows,
         std::size_t cols)
    {
        init(alloc, name, rows, cols, std::vector<T>(rows * cols));
    }

    /** Adopt row-major @p data, which must hold @p rows x @p cols. */
    void
    init(SimAllocator& alloc, const std::string& name, std::size_t rows,
         std::size_t cols, std::vector<T> data)
    {
        panic_if(data.size() != rows * cols,
                 "SimMatrix %s: %zu elements for %zu x %zu", name.c_str(),
                 data.size(), rows, cols);
        rows_ = rows;
        cols_ = cols;
        flat_.init(alloc, name, std::move(data));
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    Addr base() const { return flat_.base(); }

    Addr
    addrOf(std::size_t r, std::size_t c) const
    {
        return flat_.addrOf(r * cols_ + c);
    }

    T
    read(CoreContext& ctx, std::size_t r, std::size_t c) const
    {
        return flat_.read(ctx, r * cols_ + c);
    }

    void
    write(CoreContext& ctx, std::size_t r, std::size_t c, const T& v)
    {
        flat_.write(ctx, r * cols_ + c, v);
    }

    /** One wide instrumented read of @p count elements within row @p r. */
    const T*
    readBlock(CoreContext& ctx, std::size_t r, std::size_t c,
              std::size_t count) const
    {
        return flat_.readBlock(ctx, r * cols_ + c, count);
    }

    T*
    writeBlock(CoreContext& ctx, std::size_t r, std::size_t c,
               std::size_t count)
    {
        return flat_.writeBlock(ctx, r * cols_ + c, count);
    }

    T& host(std::size_t r, std::size_t c) { return flat_.host(r * cols_ + c); }
    const T&
    host(std::size_t r, std::size_t c) const
    {
        return flat_.host(r * cols_ + c);
    }

    SimArray<T>& flat() { return flat_; }
    const SimArray<T>& flat() const { return flat_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    SimArray<T> flat_;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_SIM_ARRAY_HH
