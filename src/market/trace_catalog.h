// Loading real spot-price history from disk.
//
// The paper replays six months of EC2 spot price history (April-October
// 2014, from Amazon's public API and a third-party archive [21]). When such
// history is available as CSV files, this module feeds it into a MarketPlace
// in place of the synthetic traces. File naming convention:
//
//     <instance-type>@zone-<index>.csv       e.g.  m3.medium@zone-0.csv
//
// with one "seconds,price" row per change point (PriceTrace::FromCsv's
// format). Files with unknown type names are reported and skipped.

// This module also hosts the process-wide TraceCatalog: a memo of generated
// synthetic traces keyed by (market, horizon, seed), so that the 20 cells of
// an evaluation grid (and repeated figure benches) generate each market's
// six-month trace exactly once and share one immutable copy.
//
// Concurrency design (the catalog is the only structure every grid worker
// touches, so it must never serialize them):
//   * The cache is striped into kNumShards shards by key hash; workers
//     resolving different markets take different mutexes.
//   * Trace *generation* runs outside any shard lock. A first lookup
//     installs a pending marker, releases the shard, generates, then
//     publishes; concurrent first-lookups of the SAME key block on the
//     marker (single-flight), while lookups of other keys -- even in the
//     same shard -- proceed as soon as the brief map operation is done.
//   * Repeat lookups from the same thread (each worker runs many grid
//     cells back to back) are served from a per-thread pointer cache
//     without touching any mutex at all; Clear() invalidates these caches
//     by bumping a global epoch.

#ifndef SRC_MARKET_TRACE_CATALOG_H_
#define SRC_MARKET_TRACE_CATALOG_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/market/spot_market.h"

namespace spotcheck {

class TraceCatalog {
 public:
  static constexpr size_t kNumShards = 16;

  struct ShardStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t lock_wait_ns = 0;  // wall time spent acquiring this shard's mutex
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t lock_wait_ns = 0;
    std::array<ShardStats, kNumShards> shards{};
  };

  // Per-call diagnostics for one GetOrGenerate.
  struct Lookup {
    bool hit = false;          // served without generating a trace
    bool thread_cached = false;  // served lock-free from this thread's cache
    // Wall time this call spent blocked: shard-mutex acquisition plus any
    // wait for another thread's in-flight generation of the same key.
    // Observational only (never feeds simulation state).
    int64_t lock_wait_ns = 0;
  };

  // The singleton shared by every MarketPlace in the process.
  static TraceCatalog& Global();

  // Returns the trace for (key, horizon, seed), generating it on first use.
  // Thread-safe; generation runs outside the shard lock (single-flight per
  // key). `info`, when non-null, receives per-call diagnostics.
  std::shared_ptr<const PriceTrace> GetOrGenerate(MarketKey key,
                                                  SimDuration horizon,
                                                  uint64_t seed,
                                                  Lookup* info = nullptr);

  // Aggregated + per-shard counters. Lock-free (atomic reads), so Stats()
  // never contends with Lookup traffic.
  Stats stats() const;
  size_t size() const;

  // Drops all entries, resets the counters, and invalidates every thread's
  // pointer cache (tests, memory pressure). An in-flight generation may
  // still publish its trace afterwards; the content is deterministic per
  // key, so a stale publish is indistinguishable from a fresh one.
  void Clear();

  // Cache key; public so the per-thread cache in the .cc can name it.
  struct Key {
    MarketKey market;
    int64_t horizon_us = 0;
    uint64_t seed = 0;
    auto operator<=>(const Key&) const = default;
  };

 private:
  // Single-flight marker for one in-flight generation.
  struct PendingGeneration {
    std::mutex mu;
    std::condition_variable cv;
    std::shared_ptr<const PriceTrace> trace;
    bool ready = false;
  };

  struct Entry {
    std::shared_ptr<const PriceTrace> trace;        // null while generating
    std::shared_ptr<PendingGeneration> pending;     // non-null while generating
  };

  // Padded to a cache line so shard mutexes/counters never false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::map<Key, Entry> cache;
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> lock_wait_ns{0};
  };

  Shard& ShardFor(const Key& key);

  std::array<Shard, kNumShards> shards_;
  // Bumped by Clear(); per-thread caches compare against it before serving.
  std::atomic<uint64_t> epoch_{0};
};

// Parses "<type>@zone-<n>" (the stem of a trace file name).
std::optional<MarketKey> ParseMarketKey(const std::string& stem);

struct TraceLoadReport {
  std::vector<MarketKey> loaded;
  std::vector<std::string> skipped;  // unparsable names or unreadable files
};

// Loads every *.csv in `directory` into `markets`. Returns which markets were
// registered and which files were skipped. A missing/empty directory simply
// yields an empty report.
TraceLoadReport LoadTraceDirectory(MarketPlace& markets,
                                   const std::string& directory);

// Writes `trace` to `directory/<key>.csv`; returns false on I/O error.
bool SaveTrace(const MarketKey& key, const PriceTrace& trace,
               const std::string& directory);

}  // namespace spotcheck

#endif  // SRC_MARKET_TRACE_CATALOG_H_
