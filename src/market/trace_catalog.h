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
// synthetic traces keyed by (market, horizon, seed), so that the cells of an
// evaluation grid (and repeated figure benches) generate each market's
// six-month trace exactly once and share one immutable copy.
//
// One mutex guards the whole catalog and is held across a generation, so a
// key is generated exactly once and concurrent first lookups of it wait for
// that one generation. The grid pre-warms every key its cells need on the
// calling thread before any worker starts (parallel_evaluation.cc), so grid
// workers only ever hit, a handful of times per cell.

#ifndef SRC_MARKET_TRACE_CATALOG_H_
#define SRC_MARKET_TRACE_CATALOG_H_

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
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t lock_wait_ns = 0;
  };

  // Per-call diagnostics for one GetOrGenerate.
  struct Lookup {
    bool hit = false;  // served without generating a trace
    // Wall time this call spent waiting for the catalog mutex, including
    // any wait behind another thread's generation. Observational only
    // (never feeds simulation state).
    int64_t lock_wait_ns = 0;
  };

  // The singleton shared by every MarketPlace in the process.
  static TraceCatalog& Global();

  // Returns the trace for (key, horizon, seed), generating it on first use.
  // Thread-safe; each key is generated exactly once. `info`, when non-null,
  // receives per-call diagnostics.
  std::shared_ptr<const PriceTrace> GetOrGenerate(MarketKey key,
                                                  SimDuration horizon,
                                                  uint64_t seed,
                                                  Lookup* info = nullptr);

  Stats stats() const;
  size_t size() const;

  // Drops all entries and resets the counters (tests, memory pressure).
  void Clear();

 private:
  struct Key {
    MarketKey market;
    int64_t horizon_us = 0;
    uint64_t seed = 0;
    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const PriceTrace>> traces_;
  Stats stats_;
};

// Parses "<type>@zone-<n>" (the stem of a trace file name).
std::optional<MarketKey> ParseMarketKey(const std::string& stem);

struct TraceLoadReport {
  std::vector<MarketKey> loaded;
  std::vector<std::string> skipped;  // unparsable names or unreadable files
};

// Loads every *.csv in `directory` into `markets`, in file-name order.
// Returns which markets were registered and which files were skipped. A
// missing/empty directory simply yields an empty report.
TraceLoadReport LoadTraceDirectory(MarketPlace& markets,
                                   const std::string& directory);

// Writes `trace` to `directory/<key>.csv`; returns false on I/O error.
bool SaveTrace(const MarketKey& key, const PriceTrace& trace,
               const std::string& directory);

}  // namespace spotcheck

#endif  // SRC_MARKET_TRACE_CATALOG_H_
