#include "src/market/trace_catalog.h"

#include <algorithm>
#include <charconv>
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

}  // namespace

TraceCatalog& TraceCatalog::Global() {
  static TraceCatalog* catalog = new TraceCatalog();  // never destroyed
  return *catalog;
}

std::shared_ptr<const PriceTrace> TraceCatalog::GetOrGenerate(MarketKey key,
                                                              SimDuration horizon,
                                                              uint64_t seed,
                                                              Lookup* info) {
  const Key cache_key{key, horizon.micros(), seed};
  const auto wait_started = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t wait_ns = ElapsedNs(wait_started);
  stats_.lock_wait_ns += wait_ns;

  auto it = traces_.find(cache_key);
  const bool hit = it != traces_.end();
  if (hit) {
    ++stats_.hits;
  } else {
    it = traces_
             .emplace(cache_key, std::make_shared<const PriceTrace>(
                                     GenerateMarketTrace(key, horizon, seed)))
             .first;
    ++stats_.misses;
  }
  if (info != nullptr) {
    *info = Lookup{hit, wait_ns};
  }
  return it->second;
}

TraceCatalog::Stats TraceCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t TraceCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

void TraceCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  stats_ = Stats{};
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
  // The whole suffix must be the number: from_chars takes no sign or
  // whitespace prefix, and `ptr != end` rejects trailing junk.
  const char* begin = zone_part.data() + kPrefix.size();
  const char* end = zone_part.data() + zone_part.size();
  int zone = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, zone);
  if (ec != std::errc() || ptr != end || zone < 0) {
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
  // Attach order sets the seq numbers of same-timestamp price changes, so
  // load in file-name order, not the filesystem's iteration order.
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::filesystem::path& path : paths) {
    const auto key = ParseMarketKey(path.stem().string());
    if (!key.has_value()) {
      report.skipped.push_back(path.filename().string());
      continue;
    }
    std::ifstream file(path);
    if (!file) {
      report.skipped.push_back(path.filename().string());
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    PriceTrace trace = PriceTrace::FromCsv(contents.str());
    if (trace.empty()) {
      report.skipped.push_back(path.filename().string());
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
