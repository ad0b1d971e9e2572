#include "src/market/trace_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

class TraceCatalogTest : public testing::Test {
 protected:
  TraceCatalogTest() {
    dir_ = testing::TempDir() + "/spotcheck_traces_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TraceCatalogTest() override { std::filesystem::remove_all(dir_); }

  PriceTrace MakeTrace() {
    PriceTrace trace;
    trace.Append(SimTime(), 0.009);
    trace.Append(SimTime::FromSeconds(3600), 0.25);
    trace.Append(SimTime::FromSeconds(7200), 0.009);
    return trace;
  }

  std::string dir_;
};

TEST(ParseMarketKeyTest, ValidNames) {
  const auto key = ParseMarketKey("m3.medium@zone-0");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->type, InstanceType::kM3Medium);
  EXPECT_EQ(key->zone.index, 0);
  const auto key17 = ParseMarketKey("r3.8xlarge@zone-17");
  ASSERT_TRUE(key17.has_value());
  EXPECT_EQ(key17->type, InstanceType::kR38xlarge);
  EXPECT_EQ(key17->zone.index, 17);
}

TEST(ParseMarketKeyTest, InvalidNames) {
  EXPECT_FALSE(ParseMarketKey("m3.medium").has_value());
  EXPECT_FALSE(ParseMarketKey("t2.nano@zone-0").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@az-0").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone--1").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone-x").has_value());
  // The zone suffix must be exactly a number: no trailing junk, whitespace
  // or sign.
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone-1x").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone- 1").has_value());
  EXPECT_FALSE(ParseMarketKey("m3.medium@zone-+1").has_value());
  EXPECT_FALSE(ParseMarketKey("").has_value());
}

TEST_F(TraceCatalogTest, SaveThenLoadRoundTrip) {
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  ASSERT_TRUE(SaveTrace(key, MakeTrace(), dir_));

  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  ASSERT_EQ(report.loaded.size(), 1u);
  EXPECT_EQ(report.loaded[0], key);
  EXPECT_TRUE(report.skipped.empty());

  const SpotMarket* market = markets.Find(key);
  ASSERT_NE(market, nullptr);
  EXPECT_DOUBLE_EQ(market->PriceAt(SimTime::FromSeconds(5000)), 0.25);
  EXPECT_DOUBLE_EQ(market->PriceAt(SimTime::FromSeconds(8000)), 0.009);
}

TEST_F(TraceCatalogTest, SkipsGarbageFiles) {
  std::ofstream(dir_ + "/not-a-market.csv") << "0,0.01\n";
  std::ofstream(dir_ + "/m3.medium@zone-0.txt") << "ignored extension\n";
  std::ofstream(dir_ + "/m3.large@zone-1.csv") << "";  // empty -> skipped
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_TRUE(report.loaded.empty());
  // The .txt file is ignored outright; the two bad .csv files are reported.
  EXPECT_EQ(report.skipped.size(), 2u);
}

TEST_F(TraceCatalogTest, MissingDirectoryYieldsEmptyReport) {
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report =
      LoadTraceDirectory(markets, dir_ + "/does-not-exist");
  EXPECT_TRUE(report.loaded.empty());
  EXPECT_TRUE(report.skipped.empty());
}

TEST_F(TraceCatalogTest, MultipleMarkets) {
  SaveTrace(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}}, MakeTrace(),
            dir_);
  SaveTrace(MarketKey{InstanceType::kM3Large, AvailabilityZone{2}}, MakeTrace(),
            dir_);
  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_EQ(report.loaded.size(), 2u);
  EXPECT_EQ(markets.All().size(), 2u);
}

// Attach order sets the seq numbers of same-timestamp price changes, so the
// load order must not depend on the filesystem's directory order.
TEST_F(TraceCatalogTest, LoadsInFileNameOrder) {
  std::vector<MarketKey> keys;
  for (const InstanceType type :
       {InstanceType::kC3Large, InstanceType::kC3Xlarge, InstanceType::kM3Large,
        InstanceType::kM3Medium, InstanceType::kR3Large}) {
    for (int zone = 0; zone < 3; ++zone) {
      keys.push_back(MarketKey{type, AvailabilityZone{zone}});
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const MarketKey& a, const MarketKey& b) {
              return a.ToString() < b.ToString();
            });
  // Create the files in reverse name order.
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    ASSERT_TRUE(SaveTrace(*it, MakeTrace(), dir_));
  }

  Simulator sim;
  MarketPlace markets(&sim);
  const TraceLoadReport report = LoadTraceDirectory(markets, dir_);
  EXPECT_EQ(report.loaded, keys);
}

// TraceCatalog (the process-wide generated-trace memo) tests share the
// global singleton, so each clears it first.

TEST(TraceCatalogCacheTest, SecondLookupReturnsSameTraceWithoutRegeneration) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  const SimDuration horizon = SimDuration::Days(30);

  TraceCatalog::Lookup lookup;
  lookup.hit = true;
  const std::shared_ptr<const PriceTrace> first =
      catalog.GetOrGenerate(key, horizon, 7, &lookup);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(lookup.hit);
  EXPECT_FALSE(first->empty());
  EXPECT_EQ(catalog.stats().misses, 1);
  EXPECT_EQ(catalog.stats().hits, 0);

  const std::shared_ptr<const PriceTrace> second =
      catalog.GetOrGenerate(key, horizon, 7, &lookup);
  EXPECT_TRUE(lookup.hit);
  EXPECT_EQ(second.get(), first.get());  // the very same trace, not a copy
  EXPECT_EQ(catalog.stats().misses, 1);  // zero regeneration
  EXPECT_EQ(catalog.stats().hits, 1);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TraceCatalogCacheTest, DistinctKeysHorizonsAndSeedsAreDistinctEntries) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Large, AvailabilityZone{1}};
  const auto base = catalog.GetOrGenerate(key, SimDuration::Days(30), 7);
  const auto other_seed = catalog.GetOrGenerate(key, SimDuration::Days(30), 8);
  const auto other_horizon = catalog.GetOrGenerate(key, SimDuration::Days(31), 7);
  const auto other_zone = catalog.GetOrGenerate(
      MarketKey{InstanceType::kM3Large, AvailabilityZone{2}}, SimDuration::Days(30), 7);
  EXPECT_NE(base.get(), other_seed.get());
  EXPECT_NE(base.get(), other_horizon.get());
  EXPECT_NE(base.get(), other_zone.get());
  EXPECT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog.stats().misses, 4);
}

TEST(TraceCatalogCacheTest, ClearResetsEntriesAndCounters) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{3}};
  catalog.GetOrGenerate(key, SimDuration::Days(10), 1);
  catalog.GetOrGenerate(key, SimDuration::Days(10), 1);
  EXPECT_EQ(catalog.size(), 1u);
  catalog.Clear();
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.stats().hits, 0);
  EXPECT_EQ(catalog.stats().misses, 0);
}

TEST(TraceCatalogCacheTest, ClearInvalidatesThisThreadsEarlierHits) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kC3Large, AvailabilityZone{4}};
  const auto first = catalog.GetOrGenerate(key, SimDuration::Days(10), 2);
  catalog.GetOrGenerate(key, SimDuration::Days(10), 2);  // a hit
  catalog.Clear();

  TraceCatalog::Lookup lookup;
  lookup.hit = true;
  const auto again = catalog.GetOrGenerate(key, SimDuration::Days(10), 2, &lookup);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(catalog.stats().misses, 1);
  EXPECT_EQ(catalog.stats().hits, 0);
  EXPECT_NE(again.get(), first.get());  // regenerated, not the dropped copy
  EXPECT_EQ(again->ToCsv(), first->ToCsv());
}

TEST(TraceCatalogCacheTest, ConcurrentLookupsGenerateOnceAndShare) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const MarketKey key{InstanceType::kM3Xlarge, AvailabilityZone{0}};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PriceTrace>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      seen[static_cast<size_t>(i)] =
          catalog.GetOrGenerate(key, SimDuration::Days(30), 99);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)].get(), seen[0].get());
  }
  EXPECT_EQ(catalog.stats().misses, 1);  // generated exactly once
  EXPECT_EQ(catalog.stats().hits, kThreads - 1);
}

TEST(TraceCatalogCacheTest, MarketPlaceCountsHitsAndMisses) {
  TraceCatalog::Global().Clear();
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{5}};

  Simulator sim_a;
  MarketPlace place_a(&sim_a);
  place_a.GetOrCreate(key, SimDuration::Days(20), 3);
  // Repeat lookup within one MarketPlace reuses its own market -- no new
  // catalog traffic.
  place_a.GetOrCreate(key, SimDuration::Days(20), 3);
  EXPECT_EQ(place_a.trace_cache_misses(), 1);
  EXPECT_EQ(place_a.trace_cache_hits(), 0);

  Simulator sim_b;
  MarketPlace place_b(&sim_b);
  SpotMarket& market_b = place_b.GetOrCreate(key, SimDuration::Days(20), 3);
  EXPECT_EQ(place_b.trace_cache_hits(), 1);
  EXPECT_EQ(place_b.trace_cache_misses(), 0);
  // Both places replay the identical shared trace.
  EXPECT_EQ(&market_b.trace(), &place_a.GetOrCreate(key, SimDuration::Days(20), 3).trace());
}

}  // namespace
}  // namespace spotcheck
