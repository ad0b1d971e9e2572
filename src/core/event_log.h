// Structured controller event timeline.
//
// Operating a derivative cloud means explaining, after the fact, why a VM
// moved at 03:12 and what it cost. The controller appends one structured
// event per decision -- placements, warnings, drains, evacuations,
// repatriations, recoveries, losses -- queryable by VM or kind and
// exportable as CSV for offline analysis.

#ifndef SRC_CORE_EVENT_LOG_H_
#define SRC_CORE_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"

namespace spotcheck {

enum class ControllerEventKind : uint8_t {
  kVmRequested,
  kVmPlaced,
  kRevocationWarning,
  kEvacuationStarted,
  kEvacuationCompleted,
  kProactiveDrain,
  kRepatriationStarted,
  kRepatriationCompleted,
  kStatelessRespawn,
  kCrashRecovery,
  kVmLost,
  kVmReleased,
};

std::string_view ControllerEventKindName(ControllerEventKind kind);

struct ControllerEvent {
  SimTime time;
  ControllerEventKind kind;
  NestedVmId vm;          // invalid when the event is host-scoped
  InstanceId host;        // invalid when not applicable
  MarketKey market;       // the pool involved
  std::string detail;     // free-form context ("dest=od", "downtime=23.1s")
};

class ControllerEventLog {
 public:
  void Record(SimTime time, ControllerEventKind kind, NestedVmId vm,
              InstanceId host, MarketKey market, std::string detail = {});

  const std::vector<ControllerEvent>& events() const { return events_; }
  // Hands the timeline over (the log keeps an empty one); the run report
  // takes it this way when a cell finishes.
  std::vector<ControllerEvent> TakeEvents() {
    return std::exchange(events_, {});
  }
  int64_t CountOf(ControllerEventKind kind) const;
  std::vector<const ControllerEvent*> ForVm(NestedVmId vm) const;

  // The timeline is observational (reports and CSVs, never control flow);
  // fleet-scale runs disable it so a million placements do not accumulate
  // an unbounded event vector. Disabling drops future Records only.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // "time_s,kind,vm,host,market,detail" rows with a header.
  std::string ToCsv() const;

 private:
  bool enabled_ = true;
  std::vector<ControllerEvent> events_;
};

}  // namespace spotcheck

#endif  // SRC_CORE_EVENT_LOG_H_
