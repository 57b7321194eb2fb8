#include "core/dimensioning.h"

#include <algorithm>
#include <optional>

#include "core/session.h"
#include "support/check.h"
#include "support/codec.h"

namespace ttdim::core {

namespace {

void encode_assignment(support::codec::Encoder& enc,
                       const mapping::SlotAssignment& assignment) {
  enc.u32(static_cast<std::uint32_t>(assignment.slots.size()));
  for (const std::vector<int>& slot : assignment.slots) enc.ints(slot);
}

bool decode_assignment(support::codec::Decoder& dec,
                       mapping::SlotAssignment& assignment) {
  assignment.slots.clear();
  std::uint32_t nslots = 0;
  if (!dec.u32(nslots) || nslots > dec.remaining() / 4) return false;
  assignment.slots.resize(nslots);
  for (std::vector<int>& slot : assignment.slots)
    if (!dec.ints(slot)) return false;
  return true;
}

/// One AppSpec's bytes: a whole-solve key part and the spec half of a
/// stored AppSolution. The length-prefixed name keeps {"ab", "c"} and
/// {"a", "bc"} apart.
void encode_spec(support::codec::Encoder& enc, const AppSpec& spec) {
  enc.str(spec.name);
  control::encode(enc, spec.plant);
  linalg::encode(enc, spec.kt);
  linalg::encode(enc, spec.ke);
  enc.i32(spec.min_interarrival);
  enc.i32(spec.settling_requirement);
}

std::optional<AppSpec> decode_spec(support::codec::Decoder& dec) {
  std::string name;
  if (!dec.str(name)) return std::nullopt;
  std::optional<control::DiscreteLti> plant = control::decode_lti(dec);
  if (!plant) return std::nullopt;
  AppSpec spec{std::move(name), *std::move(plant), {}, {}, 0, 0};
  if (!linalg::decode(dec, spec.kt) || !linalg::decode(dec, spec.ke) ||
      !dec.i32(spec.min_interarrival) || !dec.i32(spec.settling_requirement))
    return std::nullopt;
  return spec;
}

}  // namespace

SolveKey SolveKey::of(const std::vector<AppSpec>& specs,
                      const SolveOptions& options) {
  SolveKey key;
  support::codec::Encoder enc(key.canonical);
  enc.u32(static_cast<std::uint32_t>(specs.size()));
  for (const AppSpec& spec : specs) encode_spec(enc, spec);
  // Result-affecting options only. The memoize/cache/thread knobs are
  // excluded on purpose: they never change the result (pinned by the
  // fingerprint-equality tests), so warm and cold configurations share
  // entries.
  control::encode(enc, options.settling);
  enc.i32(options.tw_granularity);
  enc.i32(options.max_disturbances_per_app);
  enc.u8(options.require_switching_stability ? 1 : 0);
  enc.i32(static_cast<std::int32_t>(options.policy));
  key.hash = support::codec::fnv1a(key.canonical);
  return key;
}

void encode_solution(support::codec::Encoder& enc, const Solution& solution) {
  enc.u32(static_cast<std::uint32_t>(solution.apps.size()));
  for (const AppSolution& app : solution.apps) {
    encode_spec(enc, app.spec);
    switching::encode(enc, app.tables);
    verify::encode(enc, app.timing);
    control::encode(enc, app.stability);
  }
  encode_assignment(enc, solution.proposed);
  encode_assignment(enc, solution.baseline_np);
  encode_assignment(enc, solution.baseline_delayed);
}

bool decode_solution(support::codec::Decoder& dec, Solution& solution) {
  solution = Solution{};
  std::uint32_t napps = 0;
  if (!dec.u32(napps) || napps > dec.remaining()) return false;
  solution.apps.reserve(napps);
  for (std::uint32_t i = 0; i < napps; ++i) {
    std::optional<AppSpec> spec = decode_spec(dec);
    if (!spec) return false;
    AppSolution app{*std::move(spec), {}, {}, {}};
    if (!switching::decode(dec, app.tables) ||
        !verify::decode(dec, app.timing) ||
        !control::decode(dec, app.stability))
      return false;
    solution.apps.push_back(std::move(app));
  }
  return decode_assignment(dec, solution.proposed) &&
         decode_assignment(dec, solution.baseline_np) &&
         decode_assignment(dec, solution.baseline_delayed);
}

double Solution::saving_vs_baseline() const {
  const int baseline = std::min(baseline_np.slot_count(),
                                baseline_delayed.slot_count());
  if (baseline <= 0) return 0.0;
  return 1.0 - static_cast<double>(proposed.slot_count()) / baseline;
}

Solution solve(const std::vector<AppSpec>& specs, const SolveOptions& options) {
  // One pass of a throwaway session: the session ctor materializes the
  // same private caches this function used to build per call, so the
  // result is byte-identical to the pre-session monolith (pinned by the
  // golden/fingerprint tests). Long-lived callers that want warm
  // re-dimensioning hold a DimensioningSession instead.
  DimensioningSession session(options);
  return session.solve(specs);
}

CoSimResult cosimulate(const std::vector<AppSolution>& apps,
                       const sched::Scenario& scenario, double settling_tol) {
  TTDIM_EXPECTS(!apps.empty());
  TTDIM_EXPECTS(scenario.disturbances.size() == apps.size());
  std::vector<verify::AppTiming> timings;
  timings.reserve(apps.size());
  for (const AppSolution& a : apps) timings.push_back(a.timing);

  CoSimResult out;
  out.schedule = sched::simulate_slot(timings, scenario);

  for (size_t i = 0; i < apps.size(); ++i) {
    const auto& disturbances = scenario.disturbances[i];
    if (disturbances.empty()) {
      out.traces.emplace_back();
      out.settling.emplace_back();
      continue;
    }
    // The paper's plots track the response to the (single) disturbance of
    // each application; later disturbances would just repeat the pattern.
    const int d0 = disturbances.front();
    const int len = scenario.horizon - d0;
    std::vector<bool> modes(static_cast<size_t>(len), false);
    for (int k = 0; k < len; ++k)
      modes[static_cast<size_t>(k)] =
          out.schedule.tt_mask[i][static_cast<size_t>(d0 + k)];
    const control::SwitchedLoop loop(apps[i].spec.plant, apps[i].spec.kt,
                                     apps[i].spec.ke);
    control::Trace trace = loop.simulate_schedule(modes, len);
    out.settling.push_back(control::settling_samples(trace, settling_tol));
    out.traces.push_back(std::move(trace));
  }
  return out;
}

}  // namespace ttdim::core
