// cold_solve: core::solve of the six Table-1 apps, again and again, each
// solve on private caches and one thread. Per-app analysis (stability
// above all) and the mapping proofs do the work; the caches only see
// their write side (insertions, snapshot capture). The seed permutes the
// apps' input order, which changes the fingerprint's app order but not
// the work (mapping walks the paper sort order).
//
// The traced pass replays the pipeline from public calls so each layer
// gets its own span, and checks the replay against the reference.
#include <stdexcept>

#include "control/design.h"
#include "control/lti.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/analysis/analysis_key.h"
#include "engine/fingerprint.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "linalg/lyap.h"
#include "mapping/first_fit.h"
#include "sched/baseline.h"
#include "switching/dwell.h"
#include "verify/app_timing.h"
#include "workload.h"

namespace ttbench {
namespace {

using namespace ttdim;

class ColdSolve final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const std::vector<core::AppSpec> table1 = case_study_specs();
    for (int i : permutation(static_cast<int>(table1.size()), seed))
      specs_.push_back(table1[static_cast<std::size_t>(i)]);
    // Reference: every oracle tier and the analysis cache off, so each
    // probe is one fresh verifier run.
    core::SolveOptions reference_options;
    reference_options.memoize_admission = false;
    reference_options.incremental_admission = false;
    reference_options.subsumption_admission = false;
    reference_options.memoize_analysis = false;
    reference_ = core::solve(specs_, reference_options);
    reference_fp_ = engine::fingerprint(reference_);
  }

  Pass run_pass(Tracer* tracer, LayerCounters* counters) override {
    Pass pass;
    pass.work = zero_work();
    pass.work["ops"] = 1;
    const long id = next_op_++;
    const std::string key = "solve#" + std::to_string(id);
    core::Solution solution;
    bool ok = true;
    try {
      if (tracer == nullptr) {
        const Clock::time_point start = Clock::now();
        solution = core::solve(specs_);
        pass.wall_ms = ms_since(start);
        add_stats_work(pass.work, solution.stats);
        pass.work["analysis.misses"] += solution.stats.analysis_misses;
      } else {
        solution = replay(id, *tracer, *counters, pass);
        if (!codec_probe(*tracer, *counters, solution)) {
          ok = false;
          pass.errors.push_back("codec round trip changed the solution");
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      pass.errors.push_back(key + ": " + e.what());
    }
    if (ok && engine::fingerprint(solution) != reference_fp_) {
      ok = false;
      pass.errors.push_back(key + ": fingerprint differs from the reference");
    }
    pass.ops.push_back({key, pass.wall_ms, ok});
    if (ok) pass.slots.push_back(solution.proposed.slot_count());
    return pass;
  }

 private:
  /// The staged pipeline of core::solve, rebuilt from the public calls
  /// of each layer: per-app stability and dwell tables (inserted into a
  /// private analysis cache, as a cold solve does), first-fit through an
  /// IncrementalAdmissionOracle on private caches, then both baselines.
  core::Solution replay(long op, Tracer& tracer, LayerCounters& c,
                        Pass& pass) {
    const core::SolveOptions defaults;
    engine::analysis::AppAnalysisSpec aspec;
    aspec.dwell.settling = defaults.settling;
    aspec.dwell.tw_granularity = defaults.tw_granularity;
    aspec.stop_on_unstable = defaults.require_switching_stability;

    // check_switching_stability runs find_common_lyapunov inside it. The
    // search is timed once on its own, outside the op, and that time is
    // charged to linalg within the stability span.
    std::vector<double> cqlf_ms(specs_.size(), 0.0);
    std::vector<bool> cqlf_found(specs_.size(), false);
    tracer.set_op(kOutside);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const core::AppSpec& spec = specs_[i];
      const Clock::time_point start = Clock::now();
      Tracer::Scope span(&tracer, "linalg", "find_common_lyapunov");
      const control::SwitchedModes modes =
          control::switched_modes(spec.plant, spec.kt, spec.ke);
      const linalg::CommonLyapunov cqlf =
          linalg::find_common_lyapunov(modes.a_tt, modes.a_et);
      cqlf_ms[i] = ms_since(start);
      cqlf_found[i] = cqlf.found;
      c.add("cqlf_ms", cqlf_ms[i]);
      c.add("cqlf_calls", 1.0);
      c.add("cqlf_found", cqlf.found ? 1.0 : 0.0);
    }

    tracer.set_op(op);
    const Clock::time_point op_start = Clock::now();
    core::Solution solution;
    engine::oracle::IncrementalAdmissionOracle oracle(
        verify::DiscreteVerifier::Options{},
        std::make_shared<engine::oracle::VerdictCache>(),
        std::make_shared<engine::oracle::SnapshotCache>());
    {
      Tracer::Scope op_span(&tracer, "core", "solve (replay)");
      engine::analysis::AnalysisCache analysis_cache;
      std::vector<verify::AppTiming> timings;
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        const core::AppSpec& spec = specs_[i];
        const Clock::time_point a_start = Clock::now();
        Tracer::Scope a_span(&tracer, "engine.analysis", "analyze " + spec.name);
        aspec.dwell.settling_requirement = spec.settling_requirement;
        const engine::analysis::AppAnalysisKey key =
            engine::analysis::AppAnalysisKey::of(spec.plant, spec.kt, spec.ke,
                                                 aspec);
        engine::analysis::AppAnalysisResult result;
        {
          const Clock::time_point start = Clock::now();
          Tracer::Scope span(&tracer, "control", "check_switching_stability");
          result.stability = control::check_switching_stability(
              spec.plant, spec.kt, spec.ke, aspec.stability_settling);
          if (result.stability.tt_stable && result.stability.et_stable)
            tracer.attribute("linalg", "find_common_lyapunov (timed apart)",
                             cqlf_ms[i]);
          c.add("stability_ms", ms_since(start));
        }
        if (result.stability.tt_stable && result.stability.et_stable &&
            result.stability.common_lyapunov != cqlf_found[i])
          throw std::runtime_error(spec.name +
                                   ": CQLF verdict differs between "
                                   "find_common_lyapunov and the stability "
                                   "check");
        if (!result.stability.switching_stable())
          throw std::runtime_error(spec.name + " is not switching stable");
        {
          const Clock::time_point start = Clock::now();
          Tracer::Scope span(&tracer, "switching", "compute_dwell_tables");
          const control::SwitchedLoop loop(spec.plant, spec.kt, spec.ke);
          result.tables = switching::compute_dwell_tables(loop, aspec.dwell);
          c.add("dwell_ms", ms_since(start));
        }
        result.tables_computed = true;
        timings.push_back(verify::make_app_timing(spec.name, result.tables,
                                                  spec.min_interarrival));
        solution.apps.push_back(
            {spec, result.tables, timings.back(), result.stability});
        analysis_cache.insert(key, std::move(result));
        c.add("analysis_ms", ms_since(a_start));
        c.add("analysis_lookups", 1.0);
      }
      pass.work["analysis.misses"] += analysis_cache.stats().insertions;

      const std::vector<int> order = mapping::paper_sort_order(timings);
      const mapping::SlotOracle probe =
          [&](const std::vector<verify::AppTiming>& apps) {
            const long hits = oracle.exact_hits();
            const long subsumed =
                oracle.subsumption_hits() + oracle.subsumption_cuts();
            const long prefix = oracle.prefix_hits();
            const long misses = oracle.misses();
            const Clock::time_point start = Clock::now();
            const Tracer::Scope span(&tracer, "engine.oracle", "probe");
            const bool admitted = oracle.admit(apps);
            const double ms = ms_since(start);
            const char* tier =
                oracle.exact_hits() > hits ? "tier1"
                : oracle.subsumption_hits() + oracle.subsumption_cuts() >
                        subsumed
                    ? "tier2"
                : oracle.prefix_hits() > prefix ? "tier3"
                                                : "tier4";
            const bool verified = oracle.misses() > misses;
            // A verifier run is charged whole to verify; the oracle's own
            // lookup work around it is not separable from outside.
            tracer.relabel(span.id(), verified ? "verify" : "engine.oracle",
                           std::string("probe ") + tier);
            if (verified) c.add("verify_ms", ms);
            c.samples[std::string("probe_ms.") + tier].push_back(ms);
            return admitted;
          };
      {
        Tracer::Scope span(&tracer, "mapping", "first_fit");
        solution.proposed = mapping::first_fit(timings, order, probe);
      }
      {
        const Clock::time_point start = Clock::now();
        Tracer::Scope span(&tracer, "sched", "baseline mappings");
        std::vector<sched::BaselineApp> apps;
        for (const core::AppSolution& a : solution.apps)
          apps.push_back(
              sched::make_baseline_app(a.timing, a.tables.settling_tt));
        const auto baseline = [&](sched::BaselineStrategy strategy) {
          return [&, strategy](const std::vector<verify::AppTiming>& slot) {
            std::vector<sched::BaselineApp> members;
            for (const verify::AppTiming& t : slot)
              for (std::size_t k = 0; k < timings.size(); ++k)
                if (timings[k].name == t.name) members.push_back(apps[k]);
            return sched::analyze_baseline_slot(members, strategy)
                .schedulable;
          };
        };
        solution.baseline_np = mapping::first_fit(
            timings, order,
            baseline(sched::BaselineStrategy::kNonPreemptiveDm));
        solution.baseline_delayed = mapping::first_fit(
            timings, order,
            baseline(sched::BaselineStrategy::kDelayedRequests));
        c.add("baseline_ms", ms_since(start));
      }
    }
    pass.wall_ms = ms_since(op_start);
    tracer.set_op(kPassSpan);

    if (solution.proposed.slots != reference_.proposed.slots)
      throw std::runtime_error(
          "replayed assignment differs from core::solve's");
    const long tier1 = oracle.exact_hits();
    const long tier2 = oracle.subsumption_hits() + oracle.subsumption_cuts();
    const long tier3 = oracle.prefix_hits();
    const long tier4 = oracle.misses() - tier3;
    pass.work["oracle.tier1"] += tier1;
    pass.work["oracle.tier2"] += tier2;
    pass.work["oracle.tier3"] += tier3;
    pass.work["oracle.tier4"] += tier4;
    pass.work["verify.states"] += oracle.states_explored();
    c.add("probes", static_cast<double>(oracle.calls()));
    c.add("tier1", static_cast<double>(tier1));
    c.add("tier2", static_cast<double>(tier2));
    c.add("tier3", static_cast<double>(tier3));
    c.add("tier4", static_cast<double>(tier4));
    c.add("states", static_cast<double>(oracle.states_explored()));
    c.add("states_reused", static_cast<double>(oracle.states_reused()));
    c.add("states_extended", static_cast<double>(oracle.states_extended()));
    c.add("snapshot_bytes",
          static_cast<double>(oracle.snapshot_cache()->stats().bytes));
    c.add("snapshot_sessions", 1.0);
    return solution;
  }

  std::vector<core::AppSpec> specs_;
  core::Solution reference_;
  std::string reference_fp_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cold_solve() {
  return std::make_unique<ColdSolve>();
}

}  // namespace ttbench
