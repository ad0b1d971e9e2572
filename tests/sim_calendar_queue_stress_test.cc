// Stress tests for the calendar-queue event core (src/sim/simulator.cc).
//
// The queue replaced a binary heap and must preserve its observable
// contract exactly: pop order is ascending (time, seq) with FIFO among
// equal timestamps, cancellation is precise (stale generation-tagged
// handles never touch a reused slot), and none of this may depend on how
// events are distributed across ring buckets, the overflow ladder, or
// bucket-width retunes. The main test drives the Simulator and a
// std::priority_queue reference model through one deterministic script of
// interleaved schedule / cancel / reschedule / RunUntil operations --
// including callback-driven scheduling, which inserts at the scan point
// mid-drain -- and requires identical fire sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "src/common/time.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// ---------------------------------------------------------------------------
// Reference model: the old heap's semantics in ~40 lines.
// ---------------------------------------------------------------------------

struct RefEvent {
  int64_t when_us = 0;
  uint64_t seq = 0;   // schedule order; FIFO tie-break
  int id = 0;         // test-assigned identity, echoed into the fire log
  bool cancelled = false;
};

class ReferenceScheduler {
 public:
  // Returns an index usable with Cancel (mirrors EventHandle).
  size_t Schedule(int64_t when_us, int id) {
    RefEvent ev;
    ev.when_us = std::max(when_us, now_us_);  // past schedules run at Now()
    ev.seq = next_seq_++;
    ev.id = id;
    events_.push_back(ev);
    queue_.push(events_.size() - 1);
    return events_.size() - 1;
  }

  void Cancel(size_t handle) { events_[handle].cancelled = true; }

  // Pops events with when <= deadline in (when, seq) order; `on_fire` may
  // schedule more. Clock then advances to the deadline.
  void RunUntil(int64_t deadline_us,
                const std::function<void(int id)>& on_fire) {
    while (!queue_.empty() && events_[queue_.top()].when_us <= deadline_us) {
      const RefEvent ev = events_[queue_.top()];
      queue_.pop();
      if (ev.cancelled) {
        continue;
      }
      now_us_ = ev.when_us;
      fired_.push_back(ev.id);
      on_fire(ev.id);
    }
    now_us_ = std::max(now_us_, deadline_us);
  }

  int64_t now_us() const { return now_us_; }
  const std::vector<int>& fired() const { return fired_; }

 private:
  // Min-order on (when, seq): `a` sorts after `b` when it fires later.
  struct Later {
    const std::vector<RefEvent>* events;
    bool operator()(size_t a, size_t b) const {
      const RefEvent& ea = (*events)[a];
      const RefEvent& eb = (*events)[b];
      if (ea.when_us != eb.when_us) {
        return ea.when_us > eb.when_us;
      }
      return ea.seq > eb.seq;
    }
  };

  std::vector<RefEvent> events_;
  std::priority_queue<size_t, std::vector<size_t>, Later> queue_{
      Later{&events_}};
  std::vector<int> fired_;
  int64_t now_us_ = 0;
  uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Deterministic operation script, replayed against both schedulers.
// ---------------------------------------------------------------------------

// Whether a fired event spawns a child, and at what offset. Pure functions
// of the event id, so the Simulator callback and the reference replay make
// identical decisions without sharing state.
bool SpawnsChild(int id) { return id % 5 == 0; }
int64_t ChildOffsetUs(int id) {
  // Mix of immediate (same-timestamp FIFO at the scan point), near
  // (in-bucket / next-bucket), and far (overflow ladder) children.
  switch (id % 3) {
    case 0:
      return 0;
    case 1:
      return 40'000 + (id % 977) * 1'000;  // tens of milliseconds
    default:
      return int64_t{3} * 86'400'000'000 + int64_t{id} * 1'000'000;  // days out
  }
}

TEST(CalendarQueueStressTest, MatchesPriorityQueueReferenceModel) {
  std::mt19937_64 rng(20260807);
  Simulator sim;
  ReferenceScheduler ref;

  std::vector<int> sim_fired;
  std::vector<EventHandle> sim_handles;
  std::vector<size_t> ref_handles;
  // One id counter per side. Identical fire sequences (asserted each
  // round) imply identical child-spawn order, so the counters stay in
  // lockstep without the sides sharing state.
  int sim_next_id = 0;
  int ref_next_id = 0;
  constexpr int kMaxIds = 120'000;  // bounds callback-driven growth

  std::function<void(int)> sim_fire = [&](int id) {
    sim_fired.push_back(id);
    if (SpawnsChild(id) && sim_next_id < kMaxIds) {
      const int child = sim_next_id++;
      sim_handles.push_back(
          sim.ScheduleAt(sim.Now() + SimDuration::Micros(ChildOffsetUs(id)),
                         [&sim_fire, child] { sim_fire(child); }));
    }
  };
  const std::function<void(int)> ref_fire = [&](int id) {
    if (SpawnsChild(id) && ref_next_id < kMaxIds) {
      const int child = ref_next_id++;
      ref_handles.push_back(
          ref.Schedule(ref.now_us() + ChildOffsetUs(id), child));
    }
  };

  for (int round = 0; round < 60; ++round) {
    // Schedule a batch: coarse 1-second quanta force heavy timestamp
    // collisions (FIFO pressure); the occasional huge offset lands in the
    // overflow ladder and forces wraps + bucket-width retunes later.
    const int batch = 50 + static_cast<int>(rng() % 200);
    for (int i = 0; i < batch; ++i) {
      int64_t offset_us;
      const uint64_t shape = rng() % 10;
      if (shape < 5) {
        offset_us = static_cast<int64_t>(rng() % 90) * 1'000'000;
      } else if (shape < 8) {
        offset_us = static_cast<int64_t>(rng() % 7'200'000'000);  // <= 2 h
      } else {
        // Up to ~60 days out: far beyond any ring window.
        offset_us = static_cast<int64_t>(rng() % 5'184'000'000'000);
      }
      const int id = sim_next_id++;
      ref_next_id++;
      const int64_t when_us = sim.Now().micros() + offset_us;
      sim_handles.push_back(sim.ScheduleAt(SimTime::FromMicros(when_us),
                                           [&sim_fire, id] { sim_fire(id); }));
      ref_handles.push_back(ref.Schedule(when_us, id));
    }

    // Cancel a handful of random handles -- live, already fired (stale
    // generation; the slot may have been reused by a later event), or
    // already cancelled. Both sides must agree on which are no-ops.
    const int cancels = static_cast<int>(rng() % 30);
    for (int i = 0; i < cancels; ++i) {
      const size_t victim = rng() % sim_handles.size();
      sim.Cancel(sim_handles[victim]);
      ref.Cancel(ref_handles[victim]);
    }

    // Reschedule: cancel + schedule a fresh event at a new time.
    const int reschedules = static_cast<int>(rng() % 10);
    for (int i = 0; i < reschedules; ++i) {
      const size_t victim = rng() % sim_handles.size();
      sim.Cancel(sim_handles[victim]);
      ref.Cancel(ref_handles[victim]);
      const int id = sim_next_id++;
      ref_next_id++;
      const int64_t when_us =
          sim.Now().micros() + static_cast<int64_t>(rng() % 600'000'000);
      sim_handles.push_back(sim.ScheduleAt(SimTime::FromMicros(when_us),
                                           [&sim_fire, id] { sim_fire(id); }));
      ref_handles.push_back(ref.Schedule(when_us, id));
    }

    // Advance both clocks by the same step. Occasionally jump far ahead so
    // the drain crosses many empty buckets and window wraps.
    const int64_t advance_us =
        rng() % 20 == 0
            ? static_cast<int64_t>(rng() % 864'000'000'000)  // <= 10 days
            : static_cast<int64_t>(rng() % 120'000'000);     // <= 2 min
    const int64_t deadline_us = sim.Now().micros() + advance_us;
    sim.RunUntil(SimTime::FromMicros(deadline_us));
    ref.RunUntil(deadline_us, ref_fire);

    ASSERT_EQ(sim.Now().micros(), ref.now_us()) << "round " << round;
    ASSERT_EQ(sim_fired, ref.fired()) << "diverged in round " << round;
    ASSERT_EQ(sim_next_id, ref_next_id) << "round " << round;
  }

  // Drain everything that's left; fire logs must match in full.
  sim.Run();
  ref.RunUntil(INT64_MAX / 2, ref_fire);
  EXPECT_EQ(sim_fired, ref.fired());
  EXPECT_TRUE(sim.empty());
}

// Equal timestamps must fire in schedule order even when the shared
// timestamp crosses calendar structures: some of these events are
// scheduled while the time is far outside the ring window (overflow
// ladder), the rest after the window has wrapped forward over it (ring
// bucket). The ladder-before-ring pop rule must not reorder them.
TEST(CalendarQueueStressTest, FifoPreservedAcrossOverflowAndRing) {
  Simulator sim;
  std::vector<int> order;
  const SimTime shared = SimTime::FromMicros(int64_t{30} * 86'400'000'000);
  for (int i = 0; i < 64; ++i) {
    // 30 days out: far beyond the initial ~72-minute window -> overflow.
    sim.ScheduleAt(shared, [&order, i] { order.push_back(i); });
  }
  // A nearer event whose execution drags the window toward `shared`, then
  // schedules the second half of the cohort from close range.
  sim.ScheduleAt(shared - SimDuration::Seconds(1), [&] {
    for (int i = 64; i < 128; ++i) {
      sim.ScheduleAt(shared, [&order, i] { order.push_back(i); });
    }
  });
  sim.Run();
  ASSERT_EQ(order.size(), 128u);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i) << "position " << i;
  }
}

// ---------------------------------------------------------------------------
// Crowded active bucket: the revocation-storm shape.
// ---------------------------------------------------------------------------

// Drives a Simulator and the ReferenceScheduler through one script and
// requires identical fire logs after every RunUntil. Events scheduled while
// the spawn window is open (id < spawn_below) spawn one child when they
// fire, at a pure-function-of-id offset up to 120 ms out: deep inside a
// crowded active bucket, or at Now() itself (FIFO behind same-time peers).
class Lockstep {
 public:
  static int64_t ChildOffsetUs(int id) { return (id % 7) * 20'000; }

  explicit Lockstep(Simulator& sim) : sim_(sim) {}

  // Schedules one event on both sides; returns its script index.
  size_t Schedule(int64_t when_us) {
    const int id = sim_next_id_++;
    ++ref_next_id_;
    sim_handles_.push_back(sim_.ScheduleAt(SimTime::FromMicros(when_us),
                                           [this, id] { SimFire(id); }));
    ref_handles_.push_back(ref_.Schedule(when_us, id));
    return sim_handles_.size() - 1;
  }
  void Cancel(size_t index) {
    sim_.Cancel(sim_handles_[index]);
    ref_.Cancel(ref_handles_[index]);
  }
  // Opens the spawn window for every event scheduled so far.
  void SpawnFromAllScheduled() { spawn_below_ = sim_next_id_; }
  size_t scheduled() const { return sim_handles_.size(); }
  int64_t now_us() const { return sim_.Now().micros(); }

  void RunUntil(int64_t deadline_us) {
    sim_.RunUntil(SimTime::FromMicros(deadline_us));
    ref_.RunUntil(deadline_us, [this](int id) { RefFire(id); });
    ASSERT_EQ(sim_.Now().micros(), ref_.now_us());
    ASSERT_EQ(sim_fired_, ref_.fired());
    ASSERT_EQ(sim_next_id_, ref_next_id_);
  }
  // Runs both sides 100 days ahead, which empties every queue this script
  // builds.
  void Drain() {
    RunUntil(now_us() + 100 * 86'400'000'000);
    ASSERT_TRUE(sim_.empty());
  }

 private:
  bool Spawns(int id) const { return id < spawn_below_ && id % 3 == 0; }
  void SimFire(int id) {
    sim_fired_.push_back(id);
    if (Spawns(id)) {
      const int child = sim_next_id_++;
      sim_handles_.push_back(sim_.ScheduleAt(
          sim_.Now() + SimDuration::Micros(ChildOffsetUs(id)),
          [this, child] { SimFire(child); }));
    }
  }
  void RefFire(int id) {
    if (Spawns(id)) {
      const int child = ref_next_id_++;
      ref_handles_.push_back(ref_.Schedule(ref_.now_us() + ChildOffsetUs(id),
                                           child));
    }
  }

  Simulator& sim_;
  ReferenceScheduler ref_;
  std::vector<int> sim_fired_;
  std::vector<EventHandle> sim_handles_;
  std::vector<size_t> ref_handles_;
  int sim_next_id_ = 0;
  int ref_next_id_ = 0;
  int spawn_below_ = 0;
};

// Thousands of events in one bucket, popped while children and outside
// inserts keep landing deep inside it (so the active bucket turns into a
// heap), with same-timestamp ties, cancellations of still-queued crowd
// events, and RunUntil rollbacks that rebase the ring while the crowded
// bucket is a heap -- once keeping it in the window, once flushing it back
// to the overflow ladder.
TEST(CalendarQueueStressTest, CrowdedActiveBucketMatchesReference) {
  std::mt19937_64 rng(20261017);
  EventCostProfiler profiler;
  Simulator sim;
  sim.set_profiler(&profiler);
  Lockstep both(sim);
  constexpr int kCrowd = 2400;
  // 256 distinct timestamps 3 ms apart: ~9 ties per timestamp, and the
  // whole crowd plus its children spans < 0.9 s.
  const auto crowd_time = [&](int64_t start_us) {
    return start_us + static_cast<int64_t>(rng() % 256) * 3'000;
  };

  // Pops through the crowd in small RunUntil steps; between steps,
  // schedules a few events deep inside the crowd and cancels a few
  // still-queued crowd members.
  const auto churn = [&](size_t crowd_first, int64_t until_us) {
    while (both.now_us() < until_us) {
      for (int i = 0; i < 4; ++i) {
        both.Schedule(both.now_us() +
                      static_cast<int64_t>(rng() % 100) * 2'000);
      }
      for (int i = 0; i < 3; ++i) {
        both.Cancel(crowd_first + rng() % kCrowd);
      }
      both.RunUntil(both.now_us() + 5'000);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  };

  // Phase 1: a crowd pre-loaded into one bucket of the initial window
  // (width 2^20 us; bucket 5 starts at 5'242'880 us), which the scan sorts
  // once on first contact.
  const int64_t bucket5_us = int64_t{5} << 20;
  const size_t first1 = both.scheduled();
  for (int i = 0; i < kCrowd; ++i) {
    both.Schedule(crowd_time(bucket5_us + 1'000));
  }
  both.SpawnFromAllScheduled();
  both.RunUntil(bucket5_us);
  ASSERT_NO_FATAL_FAILURE(churn(first1, bucket5_us + 2'000'000));
  ASSERT_NO_FATAL_FAILURE(both.Drain());

  // Phases 2 and 3 start from an empty queue. The crowd sits `crowd_day`
  // days out, bucket-aligned, ahead of sparse ladder points (one every 8 h
  // for 21 days) that retune the bucket width to minutes, so the whole
  // crowd shares one bucket. RunUntil then peeks past its deadline (a Wrap
  // moves the window onto the crowd and sorts it) and rolls the clock back;
  // deep inserts turn the crowd into a heap; and an insert into the gap
  // before the window forces RebaseRingTo with the heap live. The window
  // spans ~25 days, so the day-20 crowd stays in the ring and the day-90
  // crowd is flushed back to the ladder.
  constexpr int64_t kBucketAlignUs = int64_t{1} << 31;
  for (const int64_t crowd_day : {20, 90}) {
    const int64_t start_us =
        (both.now_us() + crowd_day * 86'400'000'000) / kBucketAlignUs *
        kBucketAlignUs;
    const size_t first = both.scheduled();
    for (int i = 0; i < kCrowd; ++i) {
      both.Schedule(crowd_time(start_us));
    }
    for (int k = 0; k < 64; ++k) {
      both.Schedule(start_us + 3'600'000'000 + k * 28'800'000'000);
    }
    both.SpawnFromAllScheduled();
    ASSERT_NO_FATAL_FAILURE(both.RunUntil(both.now_us() + 3'600'000'000));
    for (int i = 0; i < 200; ++i) {
      both.Schedule(crowd_time(start_us) + 1);  // deep: heap conversion
    }
    for (int i = 0; i < 100; ++i) {
      both.Cancel(first + rng() % kCrowd);  // heap-resident victims
    }
    both.Schedule(both.now_us() + 600'000'000);  // into the gap: rebase
    ASSERT_NO_FATAL_FAILURE(both.RunUntil(start_us));
    ASSERT_NO_FATAL_FAILURE(churn(first, start_us + 2'000'000));
    ASSERT_NO_FATAL_FAILURE(both.Drain());
  }

  // The script reached the paths it exists for: two rollback rebases, and
  // crowd pops served by the heap rather than by re-sorting the crowded
  // bucket after every deep insert (which would sort millions of events).
  EXPECT_GE(profiler.stat(ProfileStat::kRingRebases), 2);
  EXPECT_LE(profiler.stat(ProfileStat::kLazySortedEvents),
            2 * static_cast<int64_t>(both.scheduled()));
}

// A handle from a completed event must never cancel the event that later
// reuses its slot: the slot's generation advances on release, and Cancel
// validates the generation before flipping anything.
TEST(CalendarQueueStressTest, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  bool first_ran = false;
  const EventHandle stale =
      sim.ScheduleAt(SimTime::FromSeconds(1), [&] { first_ran = true; });
  sim.Run();
  ASSERT_TRUE(first_ran);

  // The freed slot is the only one in the pool, so this reuses it.
  bool second_ran = false;
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { second_ran = true; });
  sim.Cancel(stale);  // stale generation: must be a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(second_ran);

  // Double-cancel through the same reuse path: cancelling twice (second
  // time stale) must not corrupt the pending count.
  bool third_ran = false;
  const EventHandle live =
      sim.ScheduleAt(SimTime::FromSeconds(3), [&] { third_ran = true; });
  sim.Cancel(live);
  sim.Cancel(live);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_FALSE(third_ran);
}

}  // namespace
}  // namespace spotcheck
