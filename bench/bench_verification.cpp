// Reproduces the "comments on verification time" study of paper Sec. 5:
// the cost of verifying slot partitions, and the speed-up from bounding
// the number of coinciding disturbance instances. The paper reports ~5 h
// for {C1,C5,C4,C3} in UPPAAL, cut to ~15 min (20x) by bounding; our
// engines are far faster in absolute terms (the discrete engine decides
// the same question exactly), so the artefact here is the relative cost
// across partitions, engines and bounds.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "verify/discrete.h"
#include "verify/ta_model.h"

namespace {

using namespace ttdim;
using Clock = std::chrono::steady_clock;

double run_discrete(const std::vector<verify::AppTiming>& apps, int bound,
                    bool* safe, long* states) {
  const verify::DiscreteVerifier v(apps);
  verify::DiscreteVerifier::Options opt;
  opt.max_disturbances_per_app = bound;
  const auto t0 = Clock::now();
  const verify::SlotVerdict verdict = v.verify(opt);
  const auto t1 = Clock::now();
  *safe = verdict.safe;
  *states = verdict.states_explored;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double run_zone(const std::vector<verify::AppTiming>& apps, int bound,
                bool* safe, long* states) {
  const verify::ZoneVerifier v(apps);
  verify::ZoneVerifier::Options opt;
  opt.max_disturbances_per_app = bound;
  opt.max_states = 5'000'000;
  const auto t0 = Clock::now();
  const verify::SlotVerdict verdict = v.verify(opt);
  const auto t1 = Clock::now();
  *safe = verdict.safe;
  *states = verdict.states_explored;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void report() {
  std::printf("==== Sec. 5, verification time: engines, partitions, "
              "disturbance bounds ====\n");
  const verify::AppTiming c1 = bench::timing_of(casestudy::c1());
  const verify::AppTiming c2 = bench::timing_of(casestudy::c2());
  const verify::AppTiming c3 = bench::timing_of(casestudy::c3());
  const verify::AppTiming c4 = bench::timing_of(casestudy::c4());
  const verify::AppTiming c5 = bench::timing_of(casestudy::c5());
  const verify::AppTiming c6 = bench::timing_of(casestudy::c6());

  struct Row {
    const char* partition;
    std::vector<verify::AppTiming> apps;
  };
  const std::vector<Row> rows{{"{C1,C5}", {c1, c5}},
                              {"{C6,C2}", {c6, c2}},
                              {"{C1,C5,C4}", {c1, c5, c4}},
                              {"{C1,C5,C4,C3}", {c1, c5, c4, c3}}};

  std::printf("%-16s %-10s %-8s %10s %12s %8s\n", "partition", "engine",
              "bound", "time (ms)", "states", "verdict");
  for (const Row& row : rows) {
    bool safe = false;
    long states = 0;
    for (int bound : {-1, 2, 1}) {
      const double ms = run_discrete(row.apps, bound, &safe, &states);
      std::printf("%-16s %-10s %-8s %10.1f %12ld %8s\n", row.partition,
                  "discrete", bound < 0 ? "inf" : std::to_string(bound).c_str(),
                  ms, states, safe ? "safe" : "unsafe");
    }
    // The zone engine is the UPPAAL-faithful model; only run it where its
    // state space stays tractable (pairs).
    if (row.apps.size() <= 2) {
      for (int bound : {1, 2}) {
        const double ms = run_zone(row.apps, bound, &safe, &states);
        std::printf("%-16s %-10s %-8d %10.1f %12ld %8s\n", row.partition,
                    "zone", bound, ms, states, safe ? "safe" : "unsafe");
      }
    }
  }

  // The paper's acceleration headline, re-enacted on the zone engine: for
  // {C1,C5} compare the (slow) high-budget model against the bounded one.
  bool safe = false;
  long states = 0;
  const double slow = run_zone({c1, c5}, 3, &safe, &states);
  const double fast = run_zone({c1, c5}, 1, &safe, &states);
  std::printf("\nzone-engine bounded-disturbance speed-up on {C1,C5}: "
              "budget 3 -> 1 gives %.1fx (paper: ~20x from bounding "
              "coinciding instances in UPPAAL)\n\n",
              slow / fast);
}

/// The case study's 4-app proposed slot, in first-fit order.
std::vector<verify::AppTiming> proposed_slot() {
  return {bench::timing_of(casestudy::c1()), bench::timing_of(casestudy::c5()),
          bench::timing_of(casestudy::c4()), bench::timing_of(casestudy::c3())};
}

void BM_DiscreteS1(benchmark::State& state) {
  const verify::DiscreteVerifier v(proposed_slot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.verify());
  }
}
BENCHMARK(BM_DiscreteS1)->Unit(benchmark::kMillisecond);

void BM_DiscreteS2(benchmark::State& state) {
  const std::vector<verify::AppTiming> s2{bench::timing_of(casestudy::c6()),
                                          bench::timing_of(casestudy::c2())};
  const verify::DiscreteVerifier v(s2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.verify());
  }
}
BENCHMARK(BM_DiscreteS2)->Unit(benchmark::kMillisecond);

// Equal-work verifier benches across proof_threads: a completed safe
// proof reaches the same reachable set at any thread count, so the
// `states` counter must read the same on every arg (1 440 712 states).
void BM_DiscreteSafe(benchmark::State& state) {
  const verify::DiscreteVerifier v(proposed_slot());
  verify::DiscreteVerifier::Options opt;
  opt.proof_threads = static_cast<int>(state.range(0));
  long states = 0;
  for (auto _ : state) {
    const verify::SlotVerdict verdict = v.verify(opt);
    states = verdict.states_explored;
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_DiscreteSafe)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The same proof extended from its 3-app prefix snapshot (28 126
// records), as the oracle's tier 3 runs it.
void BM_DiscreteSafeSeeded(benchmark::State& state) {
  std::vector<verify::AppTiming> apps = proposed_slot();
  verify::DiscreteVerifier::Options opt;
  verify::ExplorationState prefix;
  static_cast<void>(
      verify::DiscreteVerifier({apps.begin(), apps.end() - 1})
          .verify(opt, nullptr, &prefix));
  const verify::DiscreteVerifier v(std::move(apps));
  opt.proof_threads = static_cast<int>(state.range(0));
  long states = 0;
  for (auto _ : state) {
    const verify::SlotVerdict verdict = v.verify(opt, &prefix, nullptr);
    states = verdict.states_explored;
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["seeds"] = static_cast<double>(prefix.state_count());
}
BENCHMARK(BM_DiscreteSafeSeeded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_DiscreteLarge(benchmark::State& state) {
  // The heap-fallback regime under the proof_threads sweep: 17
  // applications (one past the packed cap) with staggered deadlines and
  // a single-instance disturbance budget. The full space is intractable
  // — every state spawns ~2^16 disturbance subsets — so the proof is
  // budget-capped at 6 expansions: the root (the all-steady state, whose
  // expansion seeds a ~300k-state level-1 frontier) plus five level-1
  // states, then the expected budget throw. That is exactly the
  // successor-generation + batched-probe hot loop the serial rewrite
  // targets, and at proof_threads > 1 the level-1 expansions spread
  // across Executor chunks — wall-time gains need real cores (a 1-CPU
  // box reports parity), which is why the gate below pins /1 and /8
  // separately instead of their ratio.
  std::vector<verify::AppTiming> apps;
  for (int i = 0; i < 17; ++i) {
    verify::AppTiming a;
    a.name = "L" + std::to_string(i);
    a.t_star_w = 2 + (i % 4);
    a.t_minus.assign(static_cast<size_t>(a.t_star_w) + 1, 1);
    a.t_plus.assign(static_cast<size_t>(a.t_star_w) + 1, 1);
    a.min_interarrival = 8;
    apps.push_back(std::move(a));
  }
  const verify::DiscreteVerifier v(apps);
  verify::DiscreteVerifier::Options opt;
  opt.max_disturbances_per_app = 1;
  opt.max_states = 6;
  opt.proof_threads = static_cast<int>(state.range(0));
  long exhausted = 0;
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(v.verify(opt));
    } catch (const std::runtime_error&) {
      ++exhausted;  // the expected outcome: the budget caps the proof
    }
  }
  state.SetLabel("threads " + std::to_string(state.range(0)) + ", " +
                 std::to_string(exhausted) + " budget-capped");
}
BENCHMARK(BM_DiscreteLarge)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ZonePair(benchmark::State& state) {
  const std::vector<verify::AppTiming> pair{
      bench::timing_of(casestudy::c1()), bench::timing_of(casestudy::c5())};
  const verify::ZoneVerifier v(pair);
  verify::ZoneVerifier::Options opt;
  opt.max_disturbances_per_app = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.verify(opt));
  }
  state.SetLabel("budget " + std::to_string(state.range(0)));
}
BENCHMARK(BM_ZonePair)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

TTDIM_BENCH_MAIN(report)
