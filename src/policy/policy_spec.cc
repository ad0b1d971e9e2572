#include "src/policy/policy_spec.h"

#include <cstdio>
#include <cstdlib>

#include "src/policy/registry.h"

namespace spotcheck {
namespace {

std::string FormatParam(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// name[:param[:param...]] with params as strtod-parsable doubles.
bool ParseStrategy(std::string_view text, StrategySpec* out,
                   std::string* error) {
  out->params.clear();
  size_t start = 0;
  bool first = true;
  while (start <= text.size()) {
    const size_t colon = text.find(':', start);
    const std::string_view token =
        text.substr(start, colon == std::string_view::npos ? std::string_view::npos
                                                           : colon - start);
    if (first) {
      if (token.empty()) {
        return SetError(error, "empty strategy name");
      }
      out->name = std::string(token);
      first = false;
    } else {
      const std::string param_text(token);
      char* end = nullptr;
      const double value = std::strtod(param_text.c_str(), &end);
      if (param_text.empty() || end == nullptr || *end != '\0') {
        return SetError(error, "bad numeric parameter '" + param_text +
                                   "' in strategy '" + out->name + "'");
      }
      out->params.push_back(value);
    }
    if (colon == std::string_view::npos) {
      break;
    }
    start = colon + 1;
  }
  return true;
}

}  // namespace

std::string StrategySpec::ToString() const {
  std::string out = name;
  for (double param : params) {
    out += ':';
    out += FormatParam(param);
  }
  return out;
}

std::string PolicySpec::ToString() const {
  return "bid=" + bid.ToString() + ",map=" + map.ToString();
}

std::optional<PolicySpec> PolicySpec::Parse(std::string_view text,
                                            std::string* error) {
  PolicySpec spec;
  bool saw_bid = false;
  bool saw_map = false;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const std::string_view part =
        text.substr(start, comma == std::string_view::npos
                               ? std::string_view::npos
                               : comma - start);
    if (part.empty()) {
      SetError(error, "empty spec segment in '" + std::string(text) + "'");
      return std::nullopt;
    }
    const size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      SetError(error, "expected key=value, got '" + std::string(part) + "'");
      return std::nullopt;
    }
    const std::string_view key = part.substr(0, eq);
    const std::string_view value = part.substr(eq + 1);
    if (key == "bid") {
      if (saw_bid) {
        SetError(error, "duplicate key 'bid'");
        return std::nullopt;
      }
      saw_bid = true;
      if (!ParseStrategy(value, &spec.bid, error)) {
        return std::nullopt;
      }
    } else if (key == "map") {
      if (saw_map) {
        SetError(error, "duplicate key 'map'");
        return std::nullopt;
      }
      saw_map = true;
      if (!ParseStrategy(value, &spec.map, error)) {
        return std::nullopt;
      }
    } else {
      SetError(error, "unknown key '" + std::string(key) +
                          "' (expected bid or map)");
      return std::nullopt;
    }
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  // A spec that parses must also instantiate: run the registry factories so
  // unknown names and out-of-range parameters fail here, loudly, not at
  // controller construction.
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  if (registry.CreateBid(spec.bid, error) == nullptr) {
    return std::nullopt;
  }
  if (registry.CreatePool(spec.map, PoolStrategyInit{}, error) == nullptr) {
    return std::nullopt;
  }
  return spec;
}

const PaperPolicy* FindPaperPolicy(std::string_view label) {
  for (const PaperPolicy& policy : kPaperPolicies) {
    if (label == policy.label) {
      return &policy;
    }
  }
  return nullptr;
}

PolicySpec ParsePolicySpecOrExit(const std::string& text) {
  std::string error;
  const std::optional<PolicySpec> spec = PolicySpec::Parse(text, &error);
  if (spec.has_value()) {
    return *spec;
  }
  std::fprintf(stderr, "invalid --policy spec '%s': %s\n", text.c_str(),
               error.c_str());
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  std::fprintf(stderr, "bid strategies:");
  for (const std::string& name : registry.BidNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\npool strategies:");
  for (const std::string& name : registry.PoolNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace spotcheck
