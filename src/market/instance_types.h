// Instance-type catalog and availability zones.
//
// Mirrors the 2014-era EC2 US-East catalog the paper evaluates on: the m3.*
// general-purpose family used for nested VMs and backup servers, plus the
// c3.*/r3.* families that round out the 15 instance types of Figure 6(d) and
// m1.small from Figure 1. Prices are the on-demand $/hr at the time.

#ifndef SRC_MARKET_INSTANCE_TYPES_H_
#define SRC_MARKET_INSTANCE_TYPES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spotcheck {

enum class InstanceType : uint8_t {
  kM1Small,
  kM3Medium,
  kM3Large,
  kM3Xlarge,
  kM32xlarge,
  kC3Large,
  kC3Xlarge,
  kC32xlarge,
  kC34xlarge,
  kC38xlarge,
  kR3Large,
  kR3Xlarge,
  kR32xlarge,
  kR34xlarge,
  kR38xlarge,
};

struct InstanceTypeInfo {
  InstanceType type;
  std::string_view name;
  int vcpus;
  double memory_gb;
  double on_demand_price;  // $/hr, US-East 2014
  bool hvm_capable;        // XenBlanket requires HVM (m1.small is PV-only)
};

// The full catalog, in a stable order (index == static_cast<size_t>(type)).
std::span<const InstanceTypeInfo> InstanceCatalog();

const InstanceTypeInfo& GetInstanceTypeInfo(InstanceType type);
std::string_view InstanceTypeName(InstanceType type);
double OnDemandPrice(InstanceType type);
std::optional<InstanceType> ParseInstanceType(std::string_view name);

// All HVM-capable types (eligible to host nested VMs).
std::vector<InstanceType> HvmCapableTypes();

// How many nested VMs of `nested` fit on one host of `host`, by memory.
// Returns 0 if the host is smaller than the nested VM.
int NestedSlotsPerHost(InstanceType host, InstanceType nested);

// Availability zones are modelled as small integers; the paper's Figure 6(c)
// spans 18 zones.
struct AvailabilityZone {
  int index = 0;

  auto operator<=>(const AvailabilityZone&) const = default;
  std::string ToString() const { return "zone-" + std::to_string(index); }
};

// A spot market is identified by (instance type, availability zone); prices
// in distinct markets move independently (Figure 6(c)/(d)).
struct MarketKey {
  InstanceType type = InstanceType::kM3Medium;
  AvailabilityZone zone;

  auto operator<=>(const MarketKey&) const = default;
  std::string ToString() const {
    // Single allocation (span attributes and event exports stringify
    // markets in bulk).
    const std::string_view name = InstanceTypeName(type);
    std::string out;
    out.reserve(name.size() + 17);
    out.append(name);
    out.append("@zone-");
    out.append(std::to_string(zone.index));
    return out;
  }
};

}  // namespace spotcheck

#endif  // SRC_MARKET_INSTANCE_TYPES_H_
