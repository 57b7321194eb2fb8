// The admission-oracle layer: end-to-end case-study solve time (the
// ROADMAP's intra-solve hot path) across the oracle tiers — from-scratch
// reference, cold four-tier solve, warm shared verdict cache (exact
// hits), warm shared snapshot cache (prefix hits; the cross-config
// subsumption regime is bench_batch's BM_CaseStudySolveSubsumptionWarm)
// — the CQLF decision, the settling grid and the dwell tables per
// case-study app, plus a CPU calibration loop that lets
// scripts/check_bench_regression.py normalize solve times across
// machines of different speed.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "control/lti.h"
#include "core/dimensioning.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "linalg/lyap.h"

namespace {

using namespace ttdim;

std::vector<core::AppSpec> case_study_specs() {
  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  return specs;
}

void report() {
  std::printf("==== Incremental admission oracle: case-study solve ====\n");
  const std::vector<core::AppSpec> specs = case_study_specs();

  core::SolveOptions reference;
  reference.memoize_admission = false;
  reference.incremental_admission = false;
  const core::Solution scratch = core::solve(specs, reference);
  std::printf("scratch  : %s\n", scratch.stats.summary().c_str());

  const core::Solution cold = core::solve(specs);  // private caches
  std::printf("cold     : %s\n", cold.stats.summary().c_str());

  const auto cache = std::make_shared<engine::oracle::VerdictCache>();
  core::SolveOptions memoized;
  memoized.verdict_cache = cache;
  const core::Solution first = core::solve(specs, memoized);
  std::printf("memoized : %s\n", first.stats.summary().c_str());
  const core::Solution warm = core::solve(specs, memoized);
  std::printf("warm     : %s\n", warm.stats.summary().c_str());
  const auto stats = cache->stats();
  std::printf("cache    : %ld hits, %ld misses, %ld insertions, "
              "%ld evictions\n",
              stats.hits, stats.misses, stats.insertions, stats.evictions);

  // Prefix-hit regime: snapshots shared across solves, verdict caches
  // private — every probe misses the exact tier but extends a snapshot.
  const auto snapshots = std::make_shared<engine::oracle::SnapshotCache>();
  core::SolveOptions prefix;
  prefix.snapshot_cache = snapshots;
  static_cast<void>(core::solve(specs, prefix));  // warm the snapshots
  const core::Solution prefix_warm = core::solve(specs, prefix);
  std::printf("prefix   : %s\n", prefix_warm.stats.summary().c_str());
  const auto sstats = snapshots->stats();
  std::printf("snapshots: %ld hits, %ld misses, %ld insertions, "
              "%ld evictions, %zu entries, %.1f MB\n",
              sstats.hits, sstats.misses, sstats.insertions, sstats.evictions,
              sstats.entries, static_cast<double>(sstats.bytes) / 1048576.0);

  // Analysis-warm regime: per-app stability/dwell answered from a shared
  // AnalysisCache, admission caches private per solve — the mapping is
  // proved fresh while the ~stability+dwell cost is memoized away.
  const auto analyses = std::make_shared<engine::analysis::AnalysisCache>();
  core::SolveOptions analysis_warm_options;
  analysis_warm_options.analysis_cache = analyses;
  static_cast<void>(core::solve(specs, analysis_warm_options));  // warm it
  const core::Solution analysis_warm =
      core::solve(specs, analysis_warm_options);
  std::printf("analysis : %s\n", analysis_warm.stats.summary().c_str());
  const auto astats = analyses->stats();
  std::printf("analyses : %ld hits, %ld misses, %ld insertions, "
              "%ld evictions, %zu entries, %.1f KB\n\n",
              astats.hits, astats.misses, astats.insertions, astats.evictions,
              astats.entries, static_cast<double>(astats.bytes) / 1024.0);
}

void BM_CaseStudySolve(benchmark::State& state) {
  const std::vector<core::AppSpec> specs = case_study_specs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(specs));
  }
}
BENCHMARK(BM_CaseStudySolve)->Unit(benchmark::kMillisecond);

void BM_CaseStudySolveUncached(benchmark::State& state) {
  // The from-scratch reference: one fresh proof per probe, no tiers.
  const std::vector<core::AppSpec> specs = case_study_specs();
  core::SolveOptions options;
  options.memoize_admission = false;
  options.incremental_admission = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(specs, options));
  }
}
BENCHMARK(BM_CaseStudySolveUncached)->Unit(benchmark::kMillisecond);

void BM_CaseStudySolveWarmCache(benchmark::State& state) {
  const std::vector<core::AppSpec> specs = case_study_specs();
  core::SolveOptions options;
  options.verdict_cache = std::make_shared<engine::oracle::VerdictCache>();
  benchmark::DoNotOptimize(core::solve(specs, options));  // warm it
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(specs, options));
  }
}
BENCHMARK(BM_CaseStudySolveWarmCache)->Unit(benchmark::kMillisecond);

void BM_CaseStudySolvePrefixWarm(benchmark::State& state) {
  // Tier-2 regime: the snapshot cache is shared across solves but every
  // verdict cache is private, so each probe misses the exact tier and
  // either extends a cached prefix reachable set or is refuted by the
  // bounded depth-first dive.
  const std::vector<core::AppSpec> specs = case_study_specs();
  core::SolveOptions options;
  options.snapshot_cache = std::make_shared<engine::oracle::SnapshotCache>();
  benchmark::DoNotOptimize(core::solve(specs, options));  // warm the snapshots
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(specs, options));
  }
}
BENCHMARK(BM_CaseStudySolvePrefixWarm)->Unit(benchmark::kMillisecond);

void BM_FindCommonLyapunov(benchmark::State& state) {
  // The CQLF layer on its own: one case-study app's closed-loop pair per
  // argument (0..5 = C1..C6), `found` its verdict.
  const casestudy::App app =
      casestudy::all_apps().at(static_cast<std::size_t>(state.range(0)));
  const control::SwitchedModes modes =
      control::switched_modes(app.plant, app.kt, app.ke);
  bool found = false;
  for (auto _ : state) {
    const linalg::CommonLyapunov cqlf =
        linalg::find_common_lyapunov(modes.a_tt, modes.a_et);
    found = cqlf.found;
    benchmark::DoNotOptimize(cqlf);
  }
  state.counters["found"] = found ? 1.0 : 0.0;
}
BENCHMARK(BM_FindCommonLyapunov)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

void BM_SettlingGrid(benchmark::State& state) {
  // The switching-pattern grid of check_switching_stability on its own:
  // wait 0 .. JE + 5, dwell 0 .. 12 at the stability horizon, one app per
  // argument (0..5 = C1..C6); `patterns` the settling simulations per run.
  const casestudy::App app =
      casestudy::all_apps().at(static_cast<std::size_t>(state.range(0)));
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  const control::SettlingSpec spec{};
  const int je = loop.settling_of_pattern(0, 0, spec).value();
  std::size_t patterns = 0;
  for (auto _ : state) {
    const switching::SettlingMap map =
        switching::compute_settling_map(loop, je + 6, 13, spec);
    patterns = map.j.size();
    benchmark::DoNotOptimize(map);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_SettlingGrid)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMicrosecond);

/// Settling simulations compute_dwell_tables ran for `tables`: JT and JE,
/// then for each wait up to one granule past T*w the dwells 0, 1, ...
/// until the settling time plateaus inside the TT window.
std::size_t dwell_search_patterns(const control::SwitchedLoop& loop,
                                  const switching::DwellAnalysisSpec& spec,
                                  const switching::DwellTables& tables) {
  std::size_t patterns = 2;
  for (int wait = 0; wait <= tables.t_star_w + tables.tw_granularity;
       wait += tables.tw_granularity) {
    for (int dwell = 0; dwell <= spec.max_dwell; ++dwell) {
      ++patterns;
      const std::optional<int> j =
          loop.settling_of_pattern(wait, dwell, spec.settling);
      if (dwell > 0 && j.has_value() && *j < wait + dwell) break;
    }
  }
  return patterns;
}

void BM_DwellTables(benchmark::State& state) {
  // The dwell-table search on its own, one app per argument (0..5 =
  // C1..C6); `patterns` the settling simulations per run.
  const casestudy::App app =
      casestudy::all_apps().at(static_cast<std::size_t>(state.range(0)));
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  const switching::DwellAnalysisSpec spec = bench::dwell_spec(app);
  switching::DwellTables tables;
  for (auto _ : state) {
    tables = switching::compute_dwell_tables(loop, spec);
    benchmark::DoNotOptimize(tables);
  }
  state.counters["patterns"] =
      static_cast<double>(dwell_search_patterns(loop, spec, tables));
}
BENCHMARK(BM_DwellTables)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

TTDIM_BENCH_MAIN(report)
