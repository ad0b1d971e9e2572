#include "src/market/trace_catalog.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/text_file.h"
#include "src/market/spot_price_process.h"

namespace spotcheck {
namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer: enough avalanche to spread the handful of live
  // (type, zone, horizon, seed) tuples evenly over the shards.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashKey(const TraceCatalog::Key& key) {
  uint64_t h = Mix64(static_cast<uint64_t>(key.market.type) |
                     (static_cast<uint64_t>(key.market.zone.index) << 8));
  h = Mix64(h ^ static_cast<uint64_t>(key.horizon_us));
  return Mix64(h ^ key.seed);
}

// Lock-free repeat-lookup path: each thread remembers the traces it has
// already resolved. Grid workers run many cells back to back over the same
// handful of markets, so after the first cell a worker never touches a
// shard mutex again (until Clear() bumps the epoch).
struct ThreadTraceCache {
  const TraceCatalog* owner = nullptr;
  uint64_t epoch = 0;
  std::map<TraceCatalog::Key, std::shared_ptr<const PriceTrace>> entries;
};

ThreadTraceCache& Tls() {
  static thread_local ThreadTraceCache cache;
  return cache;
}

}  // namespace

TraceCatalog& TraceCatalog::Global() {
  static TraceCatalog* catalog = new TraceCatalog();  // never destroyed
  return *catalog;
}

TraceCatalog::Shard& TraceCatalog::ShardFor(const Key& key) {
  return shards_[HashKey(key) % kNumShards];
}

std::shared_ptr<const PriceTrace> TraceCatalog::GetOrGenerate(MarketKey key,
                                                              SimDuration horizon,
                                                              uint64_t seed,
                                                              Lookup* info) {
  const Key cache_key{key, horizon.micros(), seed};
  Shard& shard = ShardFor(cache_key);

  ThreadTraceCache& tls = Tls();
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tls.owner != this || tls.epoch != epoch) {
    tls.owner = this;
    tls.epoch = epoch;
    tls.entries.clear();
  } else {
    const auto cached = tls.entries.find(cache_key);
    if (cached != tls.entries.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      if (info != nullptr) {
        *info = Lookup{/*hit=*/true, /*thread_cached=*/true, /*lock_wait_ns=*/0};
      }
      return cached->second;
    }
  }

  Lookup lookup;
  const auto lock_started = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(shard.mu);
  lookup.lock_wait_ns += ElapsedNs(lock_started);

  auto [it, inserted] = shard.cache.try_emplace(cache_key);
  if (!inserted) {
    if (it->second.trace != nullptr) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      std::shared_ptr<const PriceTrace> trace = it->second.trace;
      lock.unlock();
      lookup.hit = true;
      shard.lock_wait_ns.fetch_add(lookup.lock_wait_ns,
                                   std::memory_order_relaxed);
      if (info != nullptr) {
        *info = lookup;
      }
      tls.entries.emplace(cache_key, trace);
      return trace;
    }
    // Another thread is generating this exact trace right now: wait for its
    // publication instead of generating twice (single-flight).
    std::shared_ptr<PendingGeneration> pending = it->second.pending;
    lock.unlock();
    const auto wait_started = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> pending_lock(pending->mu);
    pending->cv.wait(pending_lock, [&pending] { return pending->ready; });
    lookup.lock_wait_ns += ElapsedNs(wait_started);
    std::shared_ptr<const PriceTrace> trace = pending->trace;
    pending_lock.unlock();
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    shard.lock_wait_ns.fetch_add(lookup.lock_wait_ns,
                                 std::memory_order_relaxed);
    lookup.hit = true;
    if (info != nullptr) {
      *info = lookup;
    }
    tls.entries.emplace(cache_key, trace);
    return trace;
  }

  // First lookup of this key anywhere: install the single-flight marker,
  // drop the shard lock, and generate. Workers resolving other keys -- even
  // in this shard -- proceed immediately.
  auto pending = std::make_shared<PendingGeneration>();
  it->second.pending = pending;
  lock.unlock();

  auto trace = std::make_shared<const PriceTrace>(
      GenerateMarketTrace(key, horizon, seed));

  {
    std::lock_guard<std::mutex> pending_lock(pending->mu);
    pending->trace = trace;
    pending->ready = true;
  }
  pending->cv.notify_all();

  const auto publish_started = std::chrono::steady_clock::now();
  lock.lock();
  lookup.lock_wait_ns += ElapsedNs(publish_started);
  // Re-find instead of reusing `it`: a concurrent Clear() may have dropped
  // the pending entry (re-publishing a deterministic trace is harmless).
  Entry& entry = shard.cache[cache_key];
  entry.trace = trace;
  entry.pending.reset();
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();

  shard.lock_wait_ns.fetch_add(lookup.lock_wait_ns, std::memory_order_relaxed);
  if (info != nullptr) {
    *info = lookup;
  }
  tls.entries.emplace(cache_key, trace);
  return trace;
}

TraceCatalog::Stats TraceCatalog::stats() const {
  Stats stats;
  for (size_t i = 0; i < kNumShards; ++i) {
    const Shard& shard = shards_[i];
    ShardStats& out = stats.shards[i];
    out.hits = shard.hits.load(std::memory_order_relaxed);
    out.misses = shard.misses.load(std::memory_order_relaxed);
    out.lock_wait_ns = shard.lock_wait_ns.load(std::memory_order_relaxed);
    stats.hits += out.hits;
    stats.misses += out.misses;
    stats.lock_wait_ns += out.lock_wait_ns;
  }
  return stats;
}

size_t TraceCatalog::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.cache) {
      if (entry.trace != nullptr) {
        ++total;
      }
    }
  }
  return total;
}

void TraceCatalog::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cache.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.lock_wait_ns.store(0, std::memory_order_relaxed);
  }
  epoch_.fetch_add(1, std::memory_order_release);
}

std::optional<MarketKey> ParseMarketKey(const std::string& stem) {
  const size_t at = stem.find('@');
  if (at == std::string::npos) {
    return std::nullopt;
  }
  const auto type = ParseInstanceType(stem.substr(0, at));
  if (!type.has_value()) {
    return std::nullopt;
  }
  const std::string zone_part = stem.substr(at + 1);
  constexpr std::string_view kPrefix = "zone-";
  if (zone_part.rfind(kPrefix, 0) != 0) {
    return std::nullopt;
  }
  int zone = 0;
  try {
    zone = std::stoi(zone_part.substr(kPrefix.size()));
  } catch (...) {
    return std::nullopt;
  }
  if (zone < 0) {
    return std::nullopt;
  }
  return MarketKey{*type, AvailabilityZone{zone}};
}

TraceLoadReport LoadTraceDirectory(MarketPlace& markets,
                                   const std::string& directory) {
  TraceLoadReport report;
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec)) {
    return report;
  }
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".csv") {
      continue;
    }
    const std::string stem = entry.path().stem().string();
    const auto key = ParseMarketKey(stem);
    if (!key.has_value()) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    std::ifstream file(entry.path());
    if (!file) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    PriceTrace trace = PriceTrace::FromCsv(contents.str());
    if (trace.empty()) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    markets.AddWithTrace(*key, std::move(trace));
    report.loaded.push_back(*key);
  }
  return report;
}

bool SaveTrace(const MarketKey& key, const PriceTrace& trace,
               const std::string& directory) {
  const std::filesystem::path path =
      std::filesystem::path(directory) / (key.ToString() + ".csv");
  return WriteTextFile(path.string(), trace.ToCsv());
}

}  // namespace spotcheck
