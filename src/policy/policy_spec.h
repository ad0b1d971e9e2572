// Policy specification strings.
//
// A PolicySpec names one bidding strategy and one pool-selection strategy by
// registry key, with optional numeric parameters:
//
//   bid=on-demand,map=1p-m            (the paper's defaults)
//   bid=multiple:1.5,map=4p-cost      (k=1.5 bids over cost-weighted pools)
//   bid=adaptive:2,map=index-track    (both new families)
//
// Grammar: comma-separated `key=value` pairs, keys `bid` and `map` (each at
// most once), values `name[:param[:param...]]` with params parsed as
// doubles. Parse() validates names and parameters against the
// PolicyRegistry, so a spec that parses is a spec that instantiates. Specs
// round-trip: Parse(spec.ToString()) == spec.
//
// The spec layer is how benches, examples, tests and the CLI name
// strategies; see DESIGN.md section 15.

#ifndef SRC_POLICY_POLICY_SPEC_H_
#define SRC_POLICY_POLICY_SPEC_H_

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spotcheck {

// One strategy reference: a registry name plus numeric parameters.
struct StrategySpec {
  std::string name;
  std::vector<double> params;

  bool operator==(const StrategySpec& other) const = default;

  // "name" or "name:p1:p2" with params printed via %.12g.
  std::string ToString() const;
};

struct PolicySpec {
  StrategySpec bid{"on-demand", {}};
  StrategySpec map{"1p-m", {}};

  bool operator==(const PolicySpec& other) const = default;

  // "bid=<bid>,map=<map>"; Parse(ToString()) == *this.
  std::string ToString() const;

  // Parses and validates `text` against the registry. On failure returns
  // nullopt and, when `error` is non-null, a one-line description naming the
  // offending token. Omitted keys keep their defaults, so "map=4p-ed" alone
  // is a valid spec.
  static std::optional<PolicySpec> Parse(std::string_view text,
                                         std::string* error = nullptr);
};

// Flag-parsing helper for benches and the CLI: parses `text` or prints the
// error plus the registered strategy names to stderr and exits 2 (the same
// loud-failure contract as the strict FlagParser).
PolicySpec ParsePolicySpecOrExit(const std::string& text);

// One of the paper's named policies: its display label and its spec.
struct PaperPolicy {
  const char* label;
  const char* spec;
};

// The paper's seven placement policies, each with the on-demand bid: Table
// 2's five in the paper's plot order, then Section 4.2's two allocation
// strategies. Figure, table and CLI rows take their labels from here.
inline constexpr std::array<PaperPolicy, 7> kPaperPolicies = {{
    {"1P-M", "bid=on-demand,map=1p-m"},
    {"2P-ML", "bid=on-demand,map=2p-ml"},
    {"4P-ED", "bid=on-demand,map=4p-ed"},
    {"4P-COST", "bid=on-demand,map=4p-cost"},
    {"4P-ST", "bid=on-demand,map=4p-st"},
    {"GREEDY", "bid=on-demand,map=greedy"},
    {"STABLE", "bid=on-demand,map=stable"},
}};

// Table 2's five evaluated policies (the figure benches' rows).
inline constexpr std::span<const PaperPolicy, 5> kTable2Policies =
    std::span(kPaperPolicies).first<5>();

// The paper policy labelled `label` ("4P-ED"), or null.
const PaperPolicy* FindPaperPolicy(std::string_view label);

}  // namespace spotcheck

#endif  // SRC_POLICY_POLICY_SPEC_H_
