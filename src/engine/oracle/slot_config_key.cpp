#include "engine/oracle/slot_config_key.h"

#include <algorithm>

#include "support/check.h"
#include "support/codec.h"

namespace ttdim::engine::oracle {

namespace {

void append_int(std::string& out, int v) {
  out += std::to_string(v);
  out += ',';
}

std::string serialize_app(const verify::AppTiming& app) {
  std::string s;
  s.reserve(8 * (app.t_minus.size() + app.t_plus.size()) + 16);
  append_int(s, app.t_star_w);
  append_int(s, app.min_interarrival);
  s += '-';
  for (int v : app.t_minus) append_int(s, v);
  s += '+';
  for (int v : app.t_plus) append_int(s, v);
  return s;
}

}  // namespace

namespace {

std::string options_suffix_of(const verify::DiscreteVerifier::Options& options) {
  std::string s = "p=";
  s += std::to_string(static_cast<int>(options.policy));
  s += ";d=";
  s += std::to_string(options.max_disturbances_per_app);
  s += ";s=";
  s += std::to_string(options.max_states);
  return s;
}

SlotConfigKey assemble(const std::vector<std::string>& parts, const char* tag,
                       const std::string& options_suffix) {
  SlotConfigKey key;
  std::size_t total = 8 + options_suffix.size();
  for (const std::string& p : parts) total += p.size() + 1;
  key.canonical.reserve(total);
  key.canonical += tag;
  for (const std::string& p : parts) {
    key.canonical += p;
    key.canonical += ';';
  }
  key.canonical += options_suffix;
  key.hash = support::codec::fnv1a(key.canonical);
  return key;
}

}  // namespace

SlotPopulationTokens SlotConfigKey::tokens_of(
    const std::vector<verify::AppTiming>& apps,
    const verify::DiscreteVerifier::Options& options) {
  SlotPopulationTokens tokens;
  tokens.apps.reserve(apps.size());
  for (const verify::AppTiming& app : apps)
    tokens.apps.push_back(serialize_app(app));
  std::sort(tokens.apps.begin(), tokens.apps.end());
  tokens.options = options_suffix_of(options);
  return tokens;
}

SlotConfigKey SlotConfigKey::of(const SlotPopulationTokens& tokens) {
  return assemble(tokens.apps, "", tokens.options);
}

SlotConfigKey SlotConfigKey::of(
    const std::vector<verify::AppTiming>& apps,
    const verify::DiscreteVerifier::Options& options) {
  return of(tokens_of(apps, options));
}

SlotConfigKey SlotConfigKey::prefix_of(
    const std::vector<verify::AppTiming>& apps, std::size_t prefix_len,
    const verify::DiscreteVerifier::Options& options) {
  TTDIM_EXPECTS(prefix_len >= 1 && prefix_len <= apps.size());
  std::vector<std::string> parts;
  parts.reserve(prefix_len);
  for (std::size_t i = 0; i < prefix_len; ++i)
    parts.push_back(serialize_app(apps[i]));
  // No sort: byte positions in the snapshot follow member order.
  return assemble(parts, "ord:", options_suffix_of(options));
}

std::string_view SlotConfigKey::options_suffix() const {
  // App tokens are digits and [,;+-], the ordered tag is "ord:"; the
  // first '=' therefore belongs to the "p=" that opens the suffix.
  const std::size_t at = canonical.find("p=");
  TTDIM_EXPECTS(at != std::string::npos);
  return std::string_view(canonical).substr(at);
}

}  // namespace ttdim::engine::oracle
