// Pipeline plumbing tests: the bounded stage queues.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "pipeline/queue.hpp"

namespace xct::pipeline {
namespace {

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd)
{
    BoundedQueue<int> q(4);
    q.push(7);
    q.close();
    EXPECT_EQ(q.pop().value(), 7);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pop().has_value());  // stays closed
}

TEST(BoundedQueue, PushAfterCloseThrows)
{
    BoundedQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), std::invalid_argument);
}

TEST(BoundedQueue, BlocksProducerWhenFull)
{
    BoundedQueue<int> q(1);
    q.push(1);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2);
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());  // producer blocked by capacity
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, ProducerConsumerStress)
{
    BoundedQueue<int> q(3);
    constexpr int kN = 500;
    long long sum = 0;
    std::thread consumer([&] {
        while (auto v = q.pop()) sum += *v;
    });
    for (int i = 1; i <= kN; ++i) q.push(i);
    q.close();
    consumer.join();
    EXPECT_EQ(sum, static_cast<long long>(kN) * (kN + 1) / 2);
}

TEST(BoundedQueue, PushAfterCloseThrowsTypedQueueClosed)
{
    BoundedQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), QueueClosed);
}

TEST(BoundedQueue, TryPushReturnsFalseAfterClose)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    q.close();
    EXPECT_FALSE(q.try_push(2));
    EXPECT_EQ(q.pop().value(), 1);  // the rejected item was not enqueued
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseIsIdempotent)
{
    BoundedQueue<int> q(2);
    q.push(5);
    q.close();
    EXPECT_TRUE(q.closed());
    q.close();  // second close: no effect, no spurious wakeup storm
    q.close();
    EXPECT_EQ(q.pop().value(), 5);
    EXPECT_FALSE(q.pop().has_value());
}

// The daemon shutdown case (ISSUE 10 satellite): N consumers parked on an
// empty queue and N producers parked on a full one must ALL wake from one
// close() — consumers with nullopt, producers with QueueClosed (or false
// from try_push) — with no thread left blocked and no item lost.
TEST(BoundedQueue, CloseWakesAllParkedConsumers)
{
    constexpr int kThreads = 8;
    BoundedQueue<int> q(2);
    std::atomic<int> woke{0};
    std::vector<std::thread> consumers;
    for (int t = 0; t < kThreads; ++t)
        consumers.emplace_back([&] {
            EXPECT_FALSE(q.pop().has_value());
            woke.fetch_add(1);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let them park
    EXPECT_EQ(woke.load(), 0);
    q.close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(woke.load(), kThreads);
}

TEST(BoundedQueue, CloseWakesAllParkedProducers)
{
    constexpr int kThreads = 8;
    BoundedQueue<int> q(1);
    q.push(0);  // full: every producer below parks on cv_space_
    std::atomic<int> threw{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&, t] {
            try {
                q.push(t + 1);
            } catch (const QueueClosed&) {
                threw.fetch_add(1);
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(threw.load(), 0);
    q.close();
    for (auto& t : producers) t.join();
    EXPECT_EQ(threw.load(), kThreads);  // all woke, none enqueued
    EXPECT_EQ(q.pop().value(), 0);      // pre-close item still drains
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseMidStreamStressBothSides)
{
    // Producers and consumers racing a mid-stream close from a third
    // thread: every pushed item is either popped or provably rejected,
    // and every thread terminates.
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 200;
    BoundedQueue<int> q(3);
    std::atomic<long long> pushed_sum{0}, popped_sum{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p)
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int v = p * kPerProducer + i + 1;
                if (!q.try_push(v)) return;  // closed under us: stop cleanly
                pushed_sum.fetch_add(v);
            }
        });
    for (int c = 0; c < kConsumers; ++c)
        threads.emplace_back([&] {
            while (auto v = q.pop()) popped_sum.fetch_add(*v);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    for (auto& t : threads) t.join();
    // try_push serialises the "counted" decision with close(): an item is
    // in pushed_sum iff it was enqueued, and close() lets consumers drain
    // the backlog, so the sums must match exactly.
    EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(BoundedQueue, MoveOnlyItems)
{
    BoundedQueue<std::unique_ptr<int>> q(2);
    q.push(std::make_unique<int>(42));
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, 42);
}

}  // namespace
}  // namespace xct::pipeline
