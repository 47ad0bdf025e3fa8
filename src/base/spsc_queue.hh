/**
 * @file
 * Bounded single-producer/single-consumer queue with backpressure.
 *
 * The AsyncEmulatorBank moves *chunks* of a few thousand bus transactions
 * per queue operation, so the per-op cost is amortized thousands of ways;
 * this implementation therefore favours a plain mutex + condition
 * variable over a lock-free ring -- it is trivially correct under
 * ThreadSanitizer, never burns a host core spinning (the test hosts may
 * have a single core), and the blocking push *is* the backpressure that
 * stops a fast producer from buffering unbounded trace history.
 *
 * All queue state is GUARDED_BY(mutex_), so Clang's -Wthread-safety
 * proves the locking discipline at compile time; waits are explicit
 * `while (!cond) cv.wait(lock)` loops for the same reason (see
 * base/mutex.hh).
 *
 * Contract: exactly one producer thread calls push()/close() and exactly
 * one consumer thread calls pop(). Capacity is fixed at construction.
 *
 * A consumer that dies (worker thread caught an exception) calls
 * poison(): this wakes and permanently fails the producer-side wait in
 * push(), so a dead worker can never deadlock the workload thread
 * against a full queue.
 */

#ifndef COSIM_BASE_SPSC_QUEUE_HH
#define COSIM_BASE_SPSC_QUEUE_HH

#include <cstddef>
#include <deque>
#include <utility>

#include "base/annotations.hh"
#include "base/mutex.hh"

namespace cosim {

/** See file comment. */
template <typename T>
class SpscQueue
{
  public:
    explicit SpscQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {}

    /**
     * Blocks while the queue is full (backpressure). @return false
     * without enqueueing when the queue is poisoned -- the wait loop
     * observes the poison flag, so a dead consumer cannot strand a
     * producer blocked on a full queue.
     */
    bool
    push(T item)
    {
        {
            LockGuard lock(mutex_);
            while (items_.size() >= capacity_ && !poisoned_)
                notFull_.wait(lock);
            if (poisoned_)
                return false;
            items_.push_back(std::move(item));
            if (items_.size() > peakDepth_)
                peakDepth_ = items_.size();
        }
        notEmpty_.notifyOne();
        return true;
    }

    /**
     * Blocks until an item is available or the queue is closed and
     * drained. @return false on closed-and-drained or poisoned.
     */
    bool
    pop(T& out)
    {
        {
            LockGuard lock(mutex_);
            while (!closed_ && !poisoned_ && items_.empty())
                notEmpty_.wait(lock);
            if (poisoned_ || items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        notFull_.notifyOne();
        return true;
    }

    /** Producer side: no more pushes; wakes a waiting consumer. */
    void
    close()
    {
        {
            LockGuard lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notifyAll();
    }

    /**
     * Consumer side, on fatal failure: permanently fail both ends.
     * push() returns false, pop() returns false, all waiters wake.
     */
    void
    poison()
    {
        {
            LockGuard lock(mutex_);
            poisoned_ = true;
        }
        notFull_.notifyAll();
        notEmpty_.notifyAll();
    }

    bool
    poisoned() const
    {
        LockGuard lock(mutex_);
        return poisoned_;
    }

    std::size_t
    size() const
    {
        LockGuard lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

    /** High-water mark of the queue depth since the last resetPeak(). */
    std::size_t
    peakDepth() const
    {
        LockGuard lock(mutex_);
        return peakDepth_;
    }

    void
    resetPeak()
    {
        LockGuard lock(mutex_);
        peakDepth_ = items_.size();
    }

  private:
    mutable Mutex mutex_;
    CondVar notFull_;
    CondVar notEmpty_;
    std::deque<T> items_ GUARDED_BY(mutex_);
    const std::size_t capacity_;
    std::size_t peakDepth_ GUARDED_BY(mutex_) = 0;
    bool closed_ GUARDED_BY(mutex_) = false;
    bool poisoned_ GUARDED_BY(mutex_) = false;
};

} // namespace cosim

#endif // COSIM_BASE_SPSC_QUEUE_HH
