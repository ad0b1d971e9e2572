#include "src/core/run_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/obs/trace_analyzer.h"

namespace spotcheck {

namespace {

void WriteEventRow(JsonWriter& json, SimTime time, std::string_view kind,
                   std::string_view vm, std::string_view host,
                   std::string_view market, std::string_view detail) {
  json.BeginObject();
  json.Key("time_s");
  json.Double(time.seconds());
  json.Key("kind");
  json.String(kind);
  json.Key("vm");
  json.String(vm);
  json.Key("host");
  json.String(host);
  json.Key("market");
  json.String(market);
  json.Key("detail");
  json.String(detail);
  json.EndObject();
}

template <typename Tag>
std::string IdName(TypedId<Tag> id) {
  return id.valid() ? id.ToString() : std::string();
}

// Lifecycle kinds worth a per-market breakdown; other event kinds (requests,
// placements, releases) would drown the table without informing it.
bool IsMarketKind(ControllerEventKind kind) {
  switch (kind) {
    case ControllerEventKind::kRevocationWarning:
    case ControllerEventKind::kEvacuationStarted:
    case ControllerEventKind::kEvacuationCompleted:
    case ControllerEventKind::kCrashRecovery:
    case ControllerEventKind::kRepatriationStarted:
    case ControllerEventKind::kVmLost:
      return true;
    default:
      return false;
  }
}

struct SlowEvacuation {
  std::string_view cell;
  std::string vm;
  double time_s = 0.0;
  double downtime_s = 0.0;
  double degraded_s = 0.0;
};

// Per-policy aggregate across the cells that ran the same resolved spec
// (one policy x several mechanisms in the figure grids).
struct PolicyAggregate {
  int64_t cells = 0;
  double cost_sum = 0.0;
  double unavailability_sum = 0.0;
  int64_t evacuations = 0;
  int64_t repatriations = 0;
};

double SummaryValue(const RunReport& report, const char* name) {
  for (const auto& [key, value] : report.summary) {
    if (key == name) {
      return value;
    }
  }
  return 0.0;
}

}  // namespace

std::string RunReport::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(kRunReportSchemaVersion);

  json.Key("label");
  json.String(label);

  json.Key("policy_spec");
  json.String(policy_spec);

  json.Key("summary");
  json.BeginObject();
  for (const auto& [name, value] : summary) {
    json.Key(name);
    json.Double(value);
  }
  json.EndObject();

  json.Key("chaos");
  json.BeginObject();
  json.Key("active");
  json.Bool(chaos_active);
  json.Key("level");
  json.Int(chaos_level);
  json.Key("seed");
  json.Int(static_cast<int64_t>(chaos_seed));
  json.EndObject();

  json.Key("trace_catalog");
  json.BeginObject();
  json.Key("hits");
  json.Int(trace_cache_hits);
  json.Key("misses");
  json.Int(trace_cache_misses);
  json.EndObject();

  json.Key("trace_summary");
  if (trace != nullptr) {
    AnalyzeTrace(*trace).WriteJson(json);
  } else {
    json.Null();
  }

  json.Key("profile");
  if (profile != nullptr) {
    profile->WriteJson(json);
  } else {
    json.Null();
  }

  json.Key("timeseries");
  if (timeseries != nullptr) {
    timeseries->WriteSummaryJson(json);
  } else {
    json.Null();
  }

  json.Key("metrics");
  if (metrics != nullptr) {
    metrics->WriteJson(json);
  } else {
    // Consumers iterate the metrics sections; an empty object keeps their
    // shape stable when a report was built without a registry.
    json.BeginObject();
    json.EndObject();
  }

  // Tens of thousands of rows name the same handful of markets; stringify
  // each distinct one once.
  std::map<MarketKey, std::string> market_names;
  const auto market_name = [&market_names](MarketKey key) -> std::string_view {
    auto [it, inserted] = market_names.try_emplace(key);
    if (inserted) {
      it->second = key.ToString();
    }
    return it->second;
  };
  json.Key("events");
  json.BeginArray();
  // Interleave injected faults with the controller's reactions to them; on
  // a tie the controller's row goes first.
  auto controller = events.begin();
  auto injected = chaos_events.begin();
  while (controller != events.end() || injected != chaos_events.end()) {
    if (injected == chaos_events.end() ||
        (controller != events.end() && controller->time <= injected->time)) {
      WriteEventRow(json, controller->time,
                    ControllerEventKindName(controller->kind),
                    IdName(controller->vm), IdName(controller->host),
                    market_name(controller->market), controller->detail);
      ++controller;
    } else {
      WriteEventRow(json, injected->time, injected->kind, {}, {},
                    injected->market ? market_name(*injected->market)
                                     : std::string_view(),
                    injected->detail);
      ++injected;
    }
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

std::string BuildGridSummaryJson(
    const std::vector<std::shared_ptr<const RunReport>>& reports,
    size_t max_slowest, const GridContentionReport* contention) {
  std::vector<std::string_view> cells;
  // Key-sorted maps keep the document deterministic regardless of cell order.
  std::map<std::string, double> totals;
  std::map<std::string_view, PolicyAggregate> policies;
  std::map<std::pair<MarketKey, ControllerEventKind>, int64_t> lifecycle;
  std::vector<SlowEvacuation> evacuations;
  bool chaos_active = false;
  int chaos_level = 0;
  uint64_t chaos_seed = 0;
  // Fleet-wide event-cost roll-up: the per-cell profiles merged into one
  // table. Category order (and sample_interval) come from the first
  // profiled cell; MergeFrom adds counts/totals and keeps maxima.
  EventCostProfiler hotspots;
  int64_t profiled_cells = 0;

  for (const auto& report : reports) {
    if (report == nullptr) {
      continue;
    }
    cells.push_back(report->label);
    if (report->profile != nullptr) {
      hotspots.MergeFrom(*report->profile);
      ++profiled_cells;
    }
    if (report->chaos_active) {
      chaos_active = true;
      chaos_level = report->chaos_level;
      chaos_seed = report->chaos_seed;
    }
    for (const auto& [name, value] : report->summary) {
      if (name.rfind("result.", 0) == 0) {
        totals[name] += value;
      }
    }
    PolicyAggregate& agg = policies[report->policy_spec];
    ++agg.cells;
    agg.cost_sum += SummaryValue(*report, "result.avg_cost_per_vm_hour");
    agg.unavailability_sum +=
        SummaryValue(*report, "result.unavailability_pct");
    agg.evacuations +=
        static_cast<int64_t>(SummaryValue(*report, "result.evacuations"));
    agg.repatriations +=
        static_cast<int64_t>(SummaryValue(*report, "result.repatriations"));
    for (const ControllerEvent& event : report->events) {
      if (!IsMarketKind(event.kind)) {
        continue;
      }
      ++lifecycle[{event.market, event.kind}];
      if (event.kind == ControllerEventKind::kEvacuationCompleted) {
        SlowEvacuation evac;
        evac.cell = report->label;
        evac.time_s = event.time.seconds();
        // The controller records completion details as
        // "downtime=12.3s degraded=45.6s".
        if (std::sscanf(event.detail.c_str(), "downtime=%lfs degraded=%lfs",
                        &evac.downtime_s, &evac.degraded_s) == 2) {
          evac.vm = IdName(event.vm);
          evacuations.push_back(std::move(evac));
        }
      }
    }
  }

  std::sort(evacuations.begin(), evacuations.end(),
            [](const SlowEvacuation& a, const SlowEvacuation& b) {
              if (a.downtime_s != b.downtime_s) {
                return a.downtime_s > b.downtime_s;
              }
              if (a.time_s != b.time_s) {
                return a.time_s < b.time_s;
              }
              if (a.cell != b.cell) {
                return a.cell < b.cell;
              }
              return a.vm < b.vm;
            });
  if (evacuations.size() > max_slowest) {
    evacuations.resize(max_slowest);
  }

  // The document keys markets and kinds by name, so re-sort the typed
  // counts by their names.
  std::map<std::string, std::map<std::string_view, int64_t>> per_market;
  for (const auto& [key, count] : lifecycle) {
    per_market[key.first.ToString()][ControllerEventKindName(key.second)] =
        count;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(kRunReportSchemaVersion);
  json.Key("num_cells");
  json.Int(static_cast<int64_t>(cells.size()));
  json.Key("cells");
  json.BeginArray();
  for (std::string_view cell : cells) {
    json.String(cell);
  }
  json.EndArray();

  json.Key("chaos");
  json.BeginObject();
  json.Key("active");
  json.Bool(chaos_active);
  json.Key("level");
  json.Int(chaos_level);
  json.Key("seed");
  json.Int(static_cast<int64_t>(chaos_seed));
  json.EndObject();

  json.Key("totals");
  json.BeginObject();
  for (const auto& [name, value] : totals) {
    json.Key(name);
    json.Double(value);
  }
  json.EndObject();

  // Per-policy cost/availability breakdown, keyed by the resolved policy
  // spec (cells that ran the same policy under different mechanisms fold
  // into one row -- the figure-grid reading order).
  json.Key("policies");
  json.BeginObject();
  for (const auto& [spec, agg] : policies) {
    json.Key(spec);
    json.BeginObject();
    json.Key("cells");
    json.Int(agg.cells);
    json.Key("mean_cost_per_vm_hour");
    json.Double(agg.cells > 0 ? agg.cost_sum / static_cast<double>(agg.cells)
                              : 0.0);
    json.Key("mean_unavailability_pct");
    json.Double(agg.cells > 0
                    ? agg.unavailability_sum / static_cast<double>(agg.cells)
                    : 0.0);
    json.Key("evacuations");
    json.Int(agg.evacuations);
    json.Key("repatriations");
    json.Int(agg.repatriations);
    json.EndObject();
  }
  json.EndObject();

  json.Key("per_market");
  json.BeginObject();
  for (const auto& [market, kinds] : per_market) {
    json.Key(market);
    json.BeginObject();
    for (const auto& [kind, count] : kinds) {
      json.Key(kind);
      json.Int(count);
    }
    json.EndObject();
  }
  json.EndObject();

  if (contention != nullptr) {
    // Per-worker contention breakdown: where each grid worker's wall time
    // went, and what the pool paid up front. The scaling-debug section --
    // a worker whose catalog_lock_wait or report_build dwarfs the others'
    // is the shared bottleneck.
    json.Key("contention");
    json.BeginObject();
    json.Key("prewarm_traces");
    json.Int(contention->prewarm_traces);
    json.Key("prewarm_ms");
    json.Double(static_cast<double>(contention->prewarm_ns) / 1e6);
    json.Key("tracer_merge_ms");
    json.Double(static_cast<double>(contention->tracer_merge_ns) / 1e6);
    json.Key("total_ms");
    json.Double(static_cast<double>(contention->total_ns) / 1e6);
    json.Key("workers");
    json.BeginArray();
    for (const GridWorkerProfile& w : contention->workers) {
      json.BeginObject();
      json.Key("worker");
      json.Int(w.worker);
      json.Key("cells");
      json.Int(w.cells);
      json.Key("busy_ms");
      json.Double(static_cast<double>(w.busy_ns) / 1e6);
      json.Key("report_build_ms");
      json.Double(static_cast<double>(w.report_build_ns) / 1e6);
      json.Key("catalog_hits");
      json.Int(w.catalog_hits);
      json.Key("catalog_misses");
      json.Int(w.catalog_misses);
      json.Key("catalog_lock_wait_ms");
      json.Double(static_cast<double>(w.catalog_lock_wait_ns) / 1e6);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  // Fleet-wide event-cost hotspots: every profiled cell's profile merged
  // into one table (null when no cell ran with profiling enabled). The
  // top est_total_ns categories here are the grid's wall-clock sinks.
  json.Key("hotspots");
  if (profiled_cells > 0) {
    json.BeginObject();
    json.Key("profiled_cells");
    json.Int(profiled_cells);
    json.Key("profile");
    hotspots.WriteJson(json);
    json.EndObject();
  } else {
    json.Null();
  }

  json.Key("slowest_evacuations");
  json.BeginArray();
  for (const SlowEvacuation& evac : evacuations) {
    json.BeginObject();
    json.Key("cell");
    json.String(evac.cell);
    json.Key("vm");
    json.String(evac.vm);
    json.Key("time_s");
    json.Double(evac.time_s);
    json.Key("downtime_s");
    json.Double(evac.downtime_s);
    json.Key("degraded_s");
    json.Double(evac.degraded_s);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

}  // namespace spotcheck
