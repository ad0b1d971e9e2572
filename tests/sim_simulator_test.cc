#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/obs/profiler.h"

namespace spotcheck {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime());
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::FromSeconds(30), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::FromSeconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(30));
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::FromSeconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired;
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] {
    sim.ScheduleAfter(SimDuration::Seconds(5), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::FromSeconds(15));
}

TEST(SimulatorTest, SchedulingInPastRunsNow) {
  Simulator sim;
  SimTime fired;
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] {
    sim.ScheduleAt(SimTime::FromSeconds(1), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::FromSeconds(10));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ran = true; });
  sim.Cancel(handle);
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelInvalidHandleIsNoop) {
  Simulator sim;
  sim.Cancel(EventHandle{});
  bool ran = false;
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(SimTime::FromSeconds(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.RunUntil(SimTime::FromSeconds(5)), 5);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(5));
  EXPECT_EQ(sim.pending_events(), 5u);
  // Deadline beyond all events advances the clock to the deadline.
  sim.RunUntil(SimTime::FromSeconds(100));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(100));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.ScheduleAt(SimTime::FromSeconds(3), [] {});
  sim.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(10));
  sim.ScheduleAfter(SimDuration::Seconds(5), [] {});
  sim.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(20));
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ++count; });
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator sim;
  std::vector<double> times;
  sim.SchedulePeriodic(SimDuration::Seconds(10),
                       [&] { times.push_back(sim.Now().seconds()); });
  sim.RunUntil(SimTime::FromSeconds(35));
  EXPECT_EQ(times, (std::vector<double>{10, 20, 30}));
}

TEST(SimulatorTest, PeriodicCancelStopsFutureTicks) {
  Simulator sim;
  int ticks = 0;
  EventHandle handle =
      sim.SchedulePeriodic(SimDuration::Seconds(10), [&] { ++ticks; });
  sim.RunUntil(SimTime::FromSeconds(25));
  EXPECT_EQ(ticks, 2);
  sim.Cancel(handle);
  sim.RunUntil(SimTime::FromSeconds(100));
  EXPECT_EQ(ticks, 2);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      sim.ScheduleAfter(SimDuration::Seconds(1), recurse);
    }
  };
  sim.ScheduleAfter(SimDuration::Seconds(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(5));
}

// Regression: cancelling a handle whose event already ran must be an exact
// no-op. The old unordered_set bookkeeping recorded such stale cancels,
// letting queue_.size() - cancelled_.size() drift (empty() reported false on
// an empty queue, pending_events() underflowed) once events were re-scheduled.
TEST(SimulatorTest, CancelAfterRunThenRescheduleKeepsAccountingExact) {
  Simulator sim;
  int ran = 0;
  EventHandle handle = sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ++ran; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.empty());

  // Stale cancel: the event already popped and executed.
  sim.Cancel(handle);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);

  // Re-scheduling must show exactly one pending event, and it must run.
  sim.ScheduleAfter(SimDuration::Seconds(1), [&] { ++ran; });
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ran = true; });
  sim.ScheduleAt(SimTime::FromSeconds(2), [] {});
  sim.Cancel(handle);
  sim.Cancel(handle);  // second cancel must not double-count
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.empty());
}

// A handle from a completed event must not cancel a later event that happens
// to reuse the same internal slot (the generation tag rejects it).
TEST(SimulatorTest, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  EventHandle old_handle = sim.ScheduleAt(SimTime::FromSeconds(1), [] {});
  sim.Run();
  bool ran = false;
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { ran = true; });
  sim.Cancel(old_handle);  // must not hit the recycled slot
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, CancelOwnHandleFromInsideCallbackIsNoop) {
  Simulator sim;
  EventHandle handle;
  int ran = 0;
  handle = sim.ScheduleAt(SimTime::FromSeconds(1), [&] {
    ++ran;
    sim.Cancel(handle);  // our own event: already executing, must be a no-op
  });
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { ++ran; });
  EXPECT_EQ(sim.Run(), 2);
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelledPeriodicAccountingStaysExact) {
  Simulator sim;
  int ticks = 0;
  EventHandle handle =
      sim.SchedulePeriodic(SimDuration::Seconds(10), [&] { ++ticks; });
  sim.RunUntil(SimTime::FromSeconds(15));
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(sim.pending_events(), 1u);  // the re-armed tick
  sim.Cancel(handle);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Cancel(handle);  // double cancel of the periodic task
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(SimTime::FromSeconds(100));
  EXPECT_EQ(ticks, 1);
  EXPECT_TRUE(sim.empty());
}

// The event queue accepts move-only callbacks (std::function could not).
TEST(SimulatorTest, MoveOnlyCallback) {
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1),
                 [p = std::move(payload), &result] { result = *p + 1; });
  sim.Run();
  EXPECT_EQ(result, 42);
}

// Callbacks larger than the inline buffer fall back to the heap but behave
// identically.
TEST(SimulatorTest, OversizedCallback) {
  Simulator sim;
  std::array<int64_t, 16> big{};  // 128 bytes of captured state
  big[15] = 7;
  int64_t seen = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1), [big, &seen] { seen = big[15]; });
  sim.Run();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(SimDuration::Seconds(i + 1), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7);
}

// A crowded active bucket that keeps receiving inserts deep inside its sorted
// order -- a revocation storm's evacuation timers and re-arms -- must not be
// re-sorted once per deep insert. Exact counters, not timings: sorting the
// whole bucket after every deep insert would sort ~N^2 / 2 events.
TEST(SimulatorTest, CrowdedActiveBucketChurnSortsEachEventAboutOnce) {
  EventCostProfiler profiler;
  Simulator sim;
  sim.set_profiler(&profiler);
  // The initial bucket width is 2^20 us, so [5, 6) * 2^20 us is one bucket;
  // the pre-load lands in it unsorted, and the scan sorts it on contact.
  constexpr int kCrowd = 2000;
  const int64_t bucket_us = int64_t{5} << 20;
  int64_t scheduled = 0;
  int fired = 0;
  SimTime last;
  bool ordered = true;
  for (int i = 0; i < kCrowd; ++i) {
    // Pre-load in a scrambled time order, 200 us apart.
    const int64_t slot = (i * 7919) % kCrowd;
    sim.ScheduleAt(SimTime::FromMicros(bucket_us + 1'000 + slot * 200), [&] {
      ordered = ordered && sim.Now() >= last;
      last = sim.Now();
      ++fired;
      // Each crowd pop schedules a child 150 ms out: still in the bucket,
      // behind ~750 pending crowd events.
      sim.ScheduleAfter(SimDuration::Millis(150), [&] {
        ordered = ordered && sim.Now() >= last;
        last = sim.Now();
        ++fired;
      });
      ++scheduled;
    });
    ++scheduled;
  }
  sim.Run();
  EXPECT_EQ(fired, 2 * kCrowd);
  EXPECT_TRUE(ordered);
  EXPECT_LE(profiler.stat(ProfileStat::kLazySortedEvents), 2 * scheduled);
}

}  // namespace
}  // namespace spotcheck
