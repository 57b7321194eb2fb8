// The admission-oracle layer: end-to-end case-study solve time (the
// ROADMAP's intra-solve hot path) across the oracle tiers — from-scratch
// reference, cold four-tier solve, warm shared verdict cache (exact
// hits), warm shared snapshot cache (prefix hits; the cross-config
// subsumption regime is bench_batch's BM_CaseStudySolveSubsumptionWarm)
// — the CQLF decision per case-study app, plus a CPU calibration loop
// that lets scripts/check_bench_regression.py normalize solve times
// across machines of different speed.
#include <cstdio>
#include <memory>
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

}  // namespace

TTDIM_BENCH_MAIN(report)
