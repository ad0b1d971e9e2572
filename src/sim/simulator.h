// Discrete-event simulation kernel.
//
// The Simulator owns a virtual clock and an event queue. Components schedule
// callbacks at absolute or relative simulated times; Run()/RunUntil()/RunFor()
// drain the queue in timestamp order (FIFO among equal timestamps). Events
// can be cancelled via the handle returned at scheduling time. Everything is
// single-threaded and deterministic.
//
// Hot-path design (this kernel executes tens of millions of events per
// six-month evaluation):
//   - Callbacks are UniqueCallback (move-only, 48-byte inline storage), so
//     typical simulation closures never touch the heap.
//   - Event records are pooled: the callback lives in a reusable slot, and
//     the queue holds only a 24-byte {time, seq, slot, generation} record.
//   - The queue is a calendar queue (Brown 1988) with an overflow ladder
//     instead of a heap: a power-of-two ring of time buckets covers a
//     sliding window of simulated time, so the near-future churn that
//     dominates the workload (timers, control-loop ticks, re-arms) inserts
//     and pops in O(1) instead of O(log n). Events beyond the window land
//     in an overflow array that is sorted once and drained bucket-window by
//     bucket-window as the clock advances ("wraps"), so the bulk
//     pre-scheduled price-change points are touched O(1) times each after
//     one cache-friendly sort -- not sifted through a multi-million-entry
//     heap. Bucket width is retuned at each wrap from the density of the
//     upcoming overflow chunk; retuning happens only while the ring is
//     empty, so no event ever needs remapping.
//   - Buckets are sorted lazily, once, when the scan first reaches them,
//     and then pop O(1) from back(). The one exception is a crowded active
//     bucket (the one being popped) that keeps receiving inserts deep
//     inside its sorted order, as a revocation storm's evacuation timers
//     and re-arms do: that bucket turns into a binary min-heap whose
//     minimum is front(), so each such insert and each pop costs O(log B)
//     instead of one O(B log B) re-sort per deep insert.
//   - Pop order is exactly ascending (time, seq) -- identical to the
//     previous heap -- so results are bit-identical: the calendar layout
//     affects performance only, never ordering.
//   - Cancellation is O(1) via generation-tagged slots: a handle names a
//     slot index plus the generation it was issued under, and Cancel() just
//     flips a bit after validating the generation. No hash probe per pop,
//     and stale handles (event already ran, double cancel) are rejected
//     exactly, so pending_events() accounting can never drift.
//   - All queue storage allocates from an optional std::pmr resource, so a
//     grid worker can hand each cell a private arena and keep allocator
//     traffic off the process-wide malloc locks.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/common/time.h"
#include "src/sim/callback.h"

namespace spotcheck {

class EventCostProfiler;
class MetricCounter;
class MetricGauge;
class MetricsRegistry;
class SpanTracer;
class TimeSeriesRecorder;

using EventCallback = UniqueCallback;

// Identifies a scheduled event for cancellation. Default-constructed handles
// are invalid and safe to Cancel(). Handles are cheap value types; a handle
// outliving its event is harmless (the generation tag makes it a no-op).
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return slot_ != 0; }

 private:
  friend class Simulator;
  EventHandle(uint32_t slot, uint32_t generation)
      : slot_(slot), generation_(generation) {}
  uint32_t slot_ = 0;  // 1-based slot index; 0 means invalid.
  uint32_t generation_ = 0;
};

class Simulator {
 public:
  // `metrics`, when non-null, receives the kernel's counters
  // (sim.events_scheduled / fired / cancelled, sim.calendar.wraps) and the
  // queue depth gauge (sim.heap_depth). `tracer`, when non-null, gets a
  // sampled "sim.dispatch" instant every
  // TraceConfig::sim_event_sample_interval executed events (a heartbeat
  // track for orienting in Perfetto, not a per-event log). Both are purely
  // observational and must outlive the simulator. `memory`, when non-null,
  // backs every queue/slot container (per-cell arena; must outlive the
  // simulator); null uses the default resource.
  explicit Simulator(MetricsRegistry* metrics = nullptr,
                     SpanTracer* tracer = nullptr,
                     std::pmr::memory_resource* memory = nullptr);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `callback` to run at absolute time `when`. Scheduling in the
  // past (before Now()) runs the callback at Now().
  EventHandle ScheduleAt(SimTime when, EventCallback callback);
  EventHandle ScheduleAfter(SimDuration delay, EventCallback callback);

  // Schedules `callback` every `period`, starting one period from now. The
  // returned handle cancels the whole periodic task. `callback` receives no
  // arguments; query Now() for the tick time.
  EventHandle SchedulePeriodic(SimDuration period, EventCallback callback);

  // Cancels a pending event; no-op if the event already ran, was already
  // cancelled, or the handle is invalid.
  void Cancel(EventHandle handle);

  // --- Replay streams ------------------------------------------------------
  // A replay stream is a pre-known schedule of fires (e.g. a price trace
  // replay) whose action is derived from (stream, index) at dispatch, so the
  // queue holds no per-event callback or slot. Stream events share the
  // sequence counter with regular events -- same-timestamp interleaving is
  // exactly as if each point had been ScheduleAt()ed in the same program
  // order -- but cannot be cancelled (no handle is issued). `ctx` must stay
  // valid while stream events are pending.
  using StreamFireFn = void (*)(void* ctx, uint32_t index);
  uint32_t RegisterReplayStream(StreamFireFn fire, void* ctx);
  // Schedules stream point `index` at `when` (clamped to Now(), like
  // ScheduleAt).
  void ScheduleStreamEvent(SimTime when, uint32_t stream, uint32_t index);

  // Runs until the queue is empty. Returns the number of events executed.
  int64_t Run();
  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (even if the queue empties earlier).
  int64_t RunUntil(SimTime deadline);
  int64_t RunFor(SimDuration duration) { return RunUntil(now_ + duration); }
  // Executes exactly one event if available; returns false on empty queue.
  bool Step();

  bool empty() const { return queued_count() == cancelled_pending_; }
  size_t pending_events() const { return queued_count() - cancelled_pending_; }
  int64_t events_executed() const { return events_executed_; }

  // --- flight recorder (both purely observational, both nullable) ----------
  // Attaches a sampled event-cost profiler: dispatch cost per event kind
  // plus the calendar-queue maintenance episodes (ladder merges, wraps,
  // lazy bucket sorts). Must outlive the simulator; null detaches.
  void set_profiler(EventCostProfiler* profiler) { profiler_ = profiler; }
  // Attaches a sim-time telemetry recorder, driven from the dispatch loop
  // (one integer compare per executed event -- never via scheduled events,
  // which would consume seq numbers and shift same-timestamp interleaving).
  // Must outlive the simulator; null detaches.
  void set_timeseries(TimeSeriesRecorder* timeseries) {
    timeseries_ = timeseries;
  }
  // Registers the kernel's queue-shape gauges on `ts` (depth, ring vs
  // ladder split). The recorder must then be attached via set_timeseries to
  // actually sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

 private:
  // Ring geometry: 4096 buckets, width 2^width_log2_ microseconds each.
  // The window is therefore kNumBuckets * 2^width_log2_ us of simulated
  // time starting at ring_base_abs_ * 2^width_log2_.
  static constexpr int kNumBucketsLog2 = 12;
  static constexpr int64_t kNumBuckets = int64_t{1} << kNumBucketsLog2;
  static constexpr int64_t kBucketMask = kNumBuckets - 1;
  static constexpr int kMinWidthLog2 = 10;  // 1.024 ms
  static constexpr int kMaxWidthLog2 = 36;  // ~19 h (window then ~9 years)
  static constexpr int kInitialWidthLog2 = 20;  // ~1.05 s (window ~72 min)

  // The queue element: deliberately tiny (24 bytes) so bucket sorts and
  // ladder moves touch cheap PODs. The callback itself stays in the slot
  // pool.
  struct QueuedEvent {
    SimTime when;
    uint64_t seq;  // Tie-break: FIFO among equal timestamps.
    uint32_t slot;
    uint32_t generation;
  };
  // True iff `a` must run before `b`: earlier time, FIFO among equals.
  static bool Earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }
  // The reverse order. Sorted buckets and the ladder are kept descending by
  // it (minimum at back()); as a heap comparator it makes front() the
  // minimum. A function object, so std algorithms inline it.
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return Earlier(b, a);
    }
  };
  // One pooled record per live event (plus a free list of reusable ones).
  // `generation` advances every time the slot is released, invalidating
  // handles issued under earlier generations.
  struct Slot {
    EventCallback callback;
    SimDuration period;      // re-arm interval; meaningful iff periodic
    uint32_t generation = 0;
    bool live = false;       // a queued event currently references this slot
    bool cancelled = false;  // the queued event should be skipped when popped
    bool periodic = false;   // slot survives pops (re-armed on execution)
  };

  using Bucket = std::pmr::vector<QueuedEvent>;

  size_t queued_count() const { return ring_count_ + overflow_.size(); }
  int64_t BucketAbs(SimTime when) const {
    return when.micros() >> width_log2_;
  }

  // Allocates a slot (1-based index) holding `callback`.
  uint32_t AllocSlot(EventCallback callback);
  // Releases `slot` for reuse, invalidating outstanding handles.
  void ReleaseSlot(uint32_t slot);
  void PushEvent(SimTime when, uint32_t slot, uint32_t generation);

  // Calendar-queue primitives (see the .cc for the invariants).
  void InsertEvent(const QueuedEvent& ev);
  void OverflowAppend(const QueuedEvent& ev);
  using OverflowIter = std::pmr::vector<QueuedEvent>::iterator;
  // Sorts an unsorted ladder tail descending, exploiting pre-sorted runs.
  // Run-bound scratch allocates from `memory`; `profiler` (nullable)
  // records fragmented-tail fallbacks to std::sort.
  static void SortTail(OverflowIter first, OverflowIter last,
                       std::pmr::memory_resource* memory,
                       EventCostProfiler* profiler);
  void RebaseRingTo(int64_t abs);
  void Wrap();
  // Points scan_abs_ at the bucket holding the earliest queued event
  // (wrapping the window forward if the ring is empty) and returns that
  // event, or nullptr if nothing is queued. Includes cancelled events --
  // they are discarded at pop, exactly like the old heap's top.
  const QueuedEvent* FindEarliest();
  // Removes the event FindEarliest() just returned.
  QueuedEvent PopEarliest();

  // Pops and runs the earliest event, skipping it if cancelled.
  // Precondition: queued_count() > 0.
  void RunOne();

  SimTime now_;
  uint64_t next_seq_ = 0;
  int64_t events_executed_ = 0;

  std::pmr::memory_resource* memory_;

  // --- calendar ring ---
  std::pmr::vector<Bucket> buckets_;  // bucket for abs index a: a & kBucketMask
  // Per-bucket layout (I4). Buckets fill unsorted and are sorted lazily
  // when the scan reaches them, after which shallow inserts keep them
  // sorted (pop is then back()). A deep insert demotes a bucket to
  // unsorted, except in the active bucket, which becomes a heap instead.
  enum BucketState : uint8_t {
    kUnsorted = 0,
    kSortedDesc,  // sorted descending by (when, seq); minimum at back()
    kHeap,        // binary min-heap on (when, seq); minimum at front()
  };
  std::pmr::vector<uint8_t> bucket_state_;
  int width_log2_ = kInitialWidthLog2;
  int64_t ring_base_abs_ = 0;  // absolute bucket index of the window start
  int64_t scan_abs_ = 0;       // no queued ring event lives below this bucket
  int64_t active_abs_ = -1;    // bucket FindEarliest last returned (-1: none)
  size_t ring_count_ = 0;      // events in the ring (including cancelled)

  // --- overflow ladder ---
  // Events beyond the window. The first overflow_sorted_n_ entries are
  // sorted DESCENDING by (when, seq) (so the minimum is back()); the tail
  // is unsorted appends merged in at the next Wrap().
  std::pmr::vector<QueuedEvent> overflow_;
  size_t overflow_sorted_n_ = 0;
  QueuedEvent overflow_min_{};  // valid iff !overflow_.empty()

  std::pmr::vector<Slot> slots_;
  std::pmr::vector<uint32_t> free_slots_;
  size_t cancelled_pending_ = 0;  // cancelled events still queued

  // --- replay streams ---
  // A queued stream event is tagged by kStreamBit in its slot field (real
  // slot indices are small positive integers, so no collision) and carries
  // the point index in the generation field.
  static constexpr uint32_t kStreamBit = 0x8000'0000u;
  struct ReplayStream {
    StreamFireFn fire = nullptr;
    void* ctx = nullptr;
  };
  std::pmr::vector<ReplayStream> streams_;

  // Observability instruments; all null when built without a registry.
  MetricCounter* events_scheduled_metric_ = nullptr;
  MetricCounter* events_fired_metric_ = nullptr;
  MetricCounter* events_cancelled_metric_ = nullptr;
  MetricCounter* calendar_wraps_metric_ = nullptr;
  MetricGauge* heap_depth_metric_ = nullptr;

  // Sampled dispatch tracing; tracer_ null when built without one. The track
  // id is stored raw (TraceTrackId is an alias we cannot forward-declare).
  SpanTracer* tracer_ = nullptr;
  uint32_t sim_track_ = 0;
  int64_t dispatch_sample_interval_ = 0;

  // Flight recorder; both null unless attached. Observational only: the
  // profiler reads wall clocks, the recorder reads sim state -- neither
  // mutates it, so results stay bit-identical either way.
  EventCostProfiler* profiler_ = nullptr;
  TimeSeriesRecorder* timeseries_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_SIM_SIMULATOR_H_
