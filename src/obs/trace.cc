#include "src/obs/trace.h"

#include "src/obs/json.h"

namespace spotcheck {

TraceTrackId SpanTracer::Track(std::string_view name, TraceClock clock) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) {
    return it->second;
  }
  track_names_.emplace_back(name);
  track_clocks_.push_back(clock);
  const TraceTrackId id = static_cast<TraceTrackId>(track_names_.size());
  track_ids_.emplace(std::string(name), id);
  return id;
}

SpanId SpanTracer::Begin(SimTime start, std::string_view name,
                         std::string_view category, TraceTrackId track,
                         SpanId parent) {
  TraceSpan& span = spans_.emplace_back();
  span.id = static_cast<SpanId>(spans_.size());
  span.parent = parent != 0 ? parent : CurrentParent();
  span.name = std::string(name);
  span.category = std::string(category);
  span.track = track;
  span.start = start;
  span.end = start;
  span.open = true;
  return span.id;
}

void SpanTracer::End(SpanId span, SimTime end) {
  if (span == 0 || span > spans_.size()) {
    return;
  }
  TraceSpan& s = spans_[span - 1];
  if (!s.open) {
    return;
  }
  s.end = end < s.start ? s.start : end;
  s.open = false;
}

SpanId SpanTracer::AddSpan(SimTime start, SimTime end, std::string_view name,
                           std::string_view category, TraceTrackId track,
                           SpanId parent) {
  const SpanId id = Begin(start, name, category, track, parent);
  End(id, end);
  return id;
}

SpanId SpanTracer::Instant(SimTime at, std::string_view name,
                           std::string_view category, TraceTrackId track,
                           SpanId parent) {
  const SpanId id = AddSpan(at, at, name, category, track, parent);
  spans_[id - 1].instant = true;
  return id;
}

void SpanTracer::AttrNum(SpanId span, std::string_view key, double value) {
  if (span == 0 || span > spans_.size()) {
    return;
  }
  TraceAttrValue& attr = spans_[span - 1].attrs.emplace_back();
  attr.key = std::string(key);
  attr.is_number = true;
  attr.number = value;
}

void SpanTracer::AttrStr(SpanId span, std::string_view key,
                         std::string_view value) {
  if (span == 0 || span > spans_.size()) {
    return;
  }
  TraceAttrValue& attr = spans_[span - 1].attrs.emplace_back();
  attr.key = std::string(key);
  attr.text = std::string(value);
}

void SpanTracer::CloseOpenSpans(SimTime at) {
  for (TraceSpan& span : spans_) {
    if (!span.open) {
      continue;
    }
    span.end = at < span.start ? span.start : at;
    span.open = false;
    TraceAttrValue& attr = span.attrs.emplace_back();
    attr.key = "truncated";
    attr.is_number = true;
    attr.number = 1.0;
  }
}

namespace {

// Sim-time tracks render as threads of process 1; wall-clock tracks as
// threads of process 2. Two processes keep the two timebases from being
// overlaid on one seemingly-shared timeline in Perfetto.
constexpr int64_t kSimPid = 1;
constexpr int64_t kWallPid = 2;

void WriteEventHeader(JsonWriter& json, std::string_view phase, int64_t pid,
                      TraceTrackId track) {
  json.Key("ph");
  json.String(phase);
  json.Key("pid");
  json.Int(pid);
  json.Key("tid");
  json.Int(track);
}

void WriteProcessName(JsonWriter& json, int64_t pid, std::string_view name) {
  json.BeginObject();
  WriteEventHeader(json, "M", pid, 0);
  json.Key("name");
  json.String("process_name");
  json.Key("args");
  json.BeginObject();
  json.Key("name");
  json.String(name);
  json.EndObject();
  json.EndObject();
}

}  // namespace

void SpanTracer::WriteChromeTraceJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();

  bool any_wall = false;
  for (const TraceClock clock : track_clocks_) {
    any_wall = any_wall || clock == TraceClock::kWall;
  }
  WriteProcessName(json, kSimPid, "sim-time");
  if (any_wall) {
    WriteProcessName(json, kWallPid, "wall-clock (us since grid start)");
  }

  const auto pid_of = [this](TraceTrackId track) {
    return TrackClockDomain(track) == TraceClock::kWall ? kWallPid : kSimPid;
  };

  // One metadata event per track names the Perfetto "thread" it renders as.
  for (TraceTrackId track = 1; track <= track_names_.size(); ++track) {
    json.BeginObject();
    WriteEventHeader(json, "M", pid_of(track), track);
    json.Key("name");
    json.String("thread_name");
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    json.String(track_names_[track - 1]);
    json.EndObject();
    json.EndObject();
  }

  for (const TraceSpan& span : spans_) {
    json.BeginObject();
    WriteEventHeader(json, span.instant ? "i" : "X", pid_of(span.track),
                     span.track);
    json.Key("name");
    json.String(span.name);
    if (!span.category.empty()) {
      json.Key("cat");
      json.String(span.category);
    }
    json.Key("ts");
    json.Int(span.start.micros());
    if (span.instant) {
      json.Key("s");
      json.String("t");  // thread-scoped instant
    } else {
      json.Key("dur");
      json.Int(span.duration().micros());
    }
    json.Key("args");
    json.BeginObject();
    json.Key("span");
    json.Int(span.id);
    if (span.parent != 0) {
      json.Key("parent");
      json.Int(span.parent);
    }
    for (const TraceAttrValue& attr : span.attrs) {
      json.Key(attr.key);
      if (attr.is_number) {
        json.Double(attr.number);
      } else {
        json.String(attr.text);
      }
    }
    json.EndObject();
    json.EndObject();
  }

  json.EndArray();
  json.EndObject();
}

std::string SpanTracer::ToChromeTraceJson() const {
  JsonWriter json;
  WriteChromeTraceJson(json);
  return json.str();
}

}  // namespace spotcheck
