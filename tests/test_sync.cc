/**
 * @file
 * Unit tests for the host synchronization primitives: the bounded
 * SpscQueue (ordering, backpressure, close semantics) and the annotated
 * Mutex / CondVar wrappers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "base/mutex.hh"
#include "base/spsc_queue.hh"

namespace cosim {
namespace {

TEST(SpscQueue, PreservesFifoOrder)
{
    SpscQueue<int> q(64);
    for (int i = 0; i < 32; ++i)
        q.push(i);
    int out = -1;
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(SpscQueue, CloseWakesConsumerAndDrains)
{
    SpscQueue<int> q(8);
    q.push(1);
    q.push(2);
    q.close();
    int out = 0;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 2);
    // Closed and drained: pop reports end-of-stream.
    EXPECT_FALSE(q.pop(out));
}

TEST(SpscQueue, BackpressureBlocksProducerUntilConsumed)
{
    SpscQueue<int> q(2);
    std::atomic<int> pushed{0};
    std::thread producer([&] {
        for (int i = 0; i < 6; ++i) {
            q.push(i);
            ++pushed;
        }
    });
    // Capacity 2: the producer cannot get far ahead of the consumer.
    while (pushed.load() < 2)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_LE(pushed.load(), 3); // 2 queued + 1 possibly mid-push
    int out = -1;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    producer.join();
    EXPECT_EQ(pushed.load(), 6);
    EXPECT_LE(q.peakDepth(), q.capacity());
}

TEST(SpscQueue, PeakDepthTracksHighWater)
{
    SpscQueue<int> q(16);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.peakDepth(), 3u);
    int out = 0;
    q.pop(out);
    q.pop(out);
    EXPECT_EQ(q.peakDepth(), 3u); // high water survives pops
    q.resetPeak();
    EXPECT_EQ(q.peakDepth(), 1u); // resets to current depth
}

TEST(Mutex, TryLockReportsContention)
{
    Mutex m;
    ASSERT_TRUE(m.tryLock());
    std::thread other([&] { EXPECT_FALSE(m.tryLock()); });
    other.join();
    m.unlock();
    ASSERT_TRUE(m.tryLock());
    m.unlock();
}

TEST(CondVar, WaitReleasesAndReacquiresTheMutex)
{
    Mutex m;
    CondVar cv;
    bool ready = false; // guarded by m (by convention in this test)
    std::thread signaller([&] {
        LockGuard lock(m);
        ready = true;
        cv.notifyOne();
    });
    {
        LockGuard lock(m);
        // The signaller can only make progress if wait() releases m.
        while (!ready)
            cv.wait(lock);
        EXPECT_TRUE(ready);
    }
    signaller.join();
}

} // namespace
} // namespace cosim
