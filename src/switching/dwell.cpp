#include "switching/dwell.h"

#include <stdexcept>

#include "support/check.h"

namespace ttdim::switching {

namespace {

/// Settling times J(wait, dwell) for dwell = 0 .. until the response is
/// certain to have settled inside the TT window (from which point J is
/// constant in dwell). Returns the per-dwell settling times; the last entry
/// is the plateau value.
std::vector<std::optional<int>> settling_versus_dwell(
    const SwitchedLoop& loop, int wait, const DwellAnalysisSpec& spec) {
  std::vector<std::optional<int>> out;
  for (int dwell = 0; dwell <= spec.max_dwell; ++dwell) {
    const std::optional<int> j =
        loop.settling_of_pattern(wait, dwell, spec.settling);
    out.push_back(j);
    // Plateau: the loop settled strictly inside the TT window, so a longer
    // dwell reproduces the same trajectory prefix and the same J.
    if (dwell > 0 && j.has_value() && *j < wait + dwell) break;
  }
  return out;
}

}  // namespace

int DwellTables::t_minus_at(int wait) const {
  TTDIM_EXPECTS(feasible() && wait >= 0 && wait <= t_star_w);
  const int idx = (wait + tw_granularity - 1) / tw_granularity;
  return t_minus[static_cast<size_t>(idx)];
}

int DwellTables::t_plus_at(int wait) const {
  TTDIM_EXPECTS(feasible() && wait >= 0 && wait <= t_star_w);
  const int idx = (wait + tw_granularity - 1) / tw_granularity;
  return t_plus[static_cast<size_t>(idx)];
}

int DwellTables::max_t_minus() const {
  TTDIM_EXPECTS(feasible());
  int m = 0;
  for (int v : t_minus) m = std::max(m, v);
  return m;
}

void encode(support::codec::Encoder& enc, const DwellAnalysisSpec& spec) {
  enc.i32(spec.settling_requirement);
  control::encode(enc, spec.settling);
  enc.i32(spec.tw_granularity);
  enc.i32(spec.max_wait);
  enc.i32(spec.max_dwell);
}

std::size_t byte_cost(const DwellTables& tables) {
  const std::size_t entries =
      tables.t_minus.size() + tables.t_plus.size() +
      tables.settling_at_minus.size() + tables.settling_at_plus.size();
  return sizeof(DwellTables) + entries * sizeof(int);
}

void encode(support::codec::Encoder& enc, const DwellTables& tables) {
  enc.i32(tables.t_star_w);
  enc.i32(tables.settling_tt);
  enc.i32(tables.settling_et);
  enc.i32(tables.tw_granularity);
  enc.ints(tables.t_minus);
  enc.ints(tables.t_plus);
  enc.ints(tables.settling_at_minus);
  enc.ints(tables.settling_at_plus);
}

bool decode(support::codec::Decoder& dec, DwellTables& tables) {
  tables = DwellTables{};
  return dec.i32(tables.t_star_w) && dec.i32(tables.settling_tt) &&
         dec.i32(tables.settling_et) && dec.i32(tables.tw_granularity) &&
         dec.ints(tables.t_minus) && dec.ints(tables.t_plus) &&
         dec.ints(tables.settling_at_minus) &&
         dec.ints(tables.settling_at_plus);
}

const std::optional<int>& SettlingMap::at(int wait, int dwell) const {
  TTDIM_EXPECTS(wait >= 0 && wait < wait_count);
  TTDIM_EXPECTS(dwell >= 0 && dwell < dwell_count);
  return j[static_cast<size_t>(wait * dwell_count + dwell)];
}

std::optional<DwellRow> compute_dwell_row(const SwitchedLoop& loop, int wait,
                                          const DwellAnalysisSpec& spec) {
  const std::vector<std::optional<int>> by_dwell =
      settling_versus_dwell(loop, wait, spec);
  // Minimum dwell meeting the requirement; dwell 0 is not an option (the
  // strategy always takes the slot for at least one sample once granted).
  std::optional<int> t_minus;
  for (int d = 1; d < static_cast<int>(by_dwell.size()); ++d) {
    const auto& j = by_dwell[static_cast<size_t>(d)];
    if (j.has_value() && *j <= spec.settling_requirement) {
      t_minus = d;
      break;
    }
  }
  if (!t_minus.has_value()) return std::nullopt;

  // Smallest dwell reaching the best achievable settling time. The tail
  // entry of by_dwell is the plateau, so the minimum over the vector is
  // the minimum over all dwells.
  int j_best = spec.settling.horizon;
  for (int d = 1; d < static_cast<int>(by_dwell.size()); ++d) {
    const auto& j = by_dwell[static_cast<size_t>(d)];
    if (j.has_value()) j_best = std::min(j_best, *j);
  }
  int t_plus = *t_minus;
  for (int d = 1; d < static_cast<int>(by_dwell.size()); ++d) {
    const auto& j = by_dwell[static_cast<size_t>(d)];
    if (j.has_value() && *j == j_best) {
      t_plus = d;
      break;
    }
  }

  DwellRow row;
  row.t_minus = *t_minus;
  row.t_plus = t_plus;
  row.settling_at_minus = *by_dwell[static_cast<size_t>(*t_minus)];
  row.settling_at_plus = *by_dwell[static_cast<size_t>(t_plus)];
  return row;
}

DwellTables compute_dwell_tables(const SwitchedLoop& loop,
                                 const DwellAnalysisSpec& spec) {
  if (spec.settling_requirement <= 0)
    throw std::invalid_argument("dwell analysis: J* must be positive");
  if (spec.tw_granularity < 1)
    throw std::invalid_argument("dwell analysis: granularity must be >= 1");
  if (spec.settling.horizon <= 2 * spec.settling_requirement)
    throw std::invalid_argument(
        "dwell analysis: settling horizon too short for the requirement");

  // JT: dedicated slot (mode MT throughout). JE: dynamic segment only.
  const std::optional<int> jt =
      loop.settling_of_pattern(0, spec.settling.horizon, spec.settling);
  const std::optional<int> je = loop.settling_of_pattern(0, 0, spec.settling);
  if (!jt.has_value())
    throw std::invalid_argument(
        "dwell analysis: loop does not settle even with a dedicated TT slot");
  if (*jt > spec.settling_requirement)
    throw std::invalid_argument(
        "dwell analysis: requirement unmeetable, J* < JT");

  DwellTables tables;
  tables.tw_granularity = spec.tw_granularity;
  tables.settling_tt = *jt;
  tables.settling_et = je.value_or(spec.settling.horizon);
  for (int wait = 0; wait <= spec.max_wait; wait += spec.tw_granularity) {
    const std::optional<DwellRow> row = compute_dwell_row(loop, wait, spec);
    if (!row.has_value()) break;  // this and larger waits are infeasible
    tables.t_star_w = wait;
    tables.t_minus.push_back(row->t_minus);
    tables.t_plus.push_back(row->t_plus);
    tables.settling_at_minus.push_back(row->settling_at_minus);
    tables.settling_at_plus.push_back(row->settling_at_plus);
  }
  if (tables.t_star_w < 0) return tables;  // infeasible even at Tw = 0

  TTDIM_ENSURES(tables.t_minus.size() == tables.t_plus.size());
  TTDIM_ENSURES(static_cast<int>(tables.t_minus.size()) ==
                tables.t_star_w / spec.tw_granularity + 1);
  return tables;
}

SettlingMap compute_settling_map(const SwitchedLoop& loop, int wait_count,
                                 int dwell_count,
                                 const SettlingSpec& settling) {
  TTDIM_EXPECTS(wait_count > 0 && dwell_count > 0);
  SettlingMap map;
  map.wait_count = wait_count;
  map.dwell_count = dwell_count;
  map.j.reserve(static_cast<size_t>(wait_count * dwell_count));
  for (int w = 0; w < wait_count; ++w)
    for (int d = 0; d < dwell_count; ++d)
      map.j.push_back(loop.settling_of_pattern(w, d, settling));
  return map;
}

RunLengthTable RunLengthTable::encode(const std::vector<int>& values) {
  RunLengthTable t;
  for (int v : values) {
    if (!t.runs.empty() && t.runs.back().value == v) {
      ++t.runs.back().length;
    } else {
      t.runs.push_back({1, v});
    }
  }
  return t;
}

std::vector<int> RunLengthTable::decode() const {
  std::vector<int> out;
  for (const Run& r : runs) {
    TTDIM_EXPECTS(r.length > 0);
    out.insert(out.end(), static_cast<size_t>(r.length), r.value);
  }
  return out;
}

int RunLengthTable::decoded_length() const {
  int n = 0;
  for (const Run& r : runs) n += r.length;
  return n;
}

}  // namespace ttdim::switching
