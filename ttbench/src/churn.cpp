// churn: online re-dimensioning. Each walk starts a fresh
// DimensioningSession with private verdict and snapshot caches over an
// analysis cache that set-up has warmed, solves the Table-1 population
// and then applies one churn trace delta by delta; each redimension is
// one op. The verifier and the oracle's prefix tier do the work, and the
// analysis does none, so a stability-stage change should leave this
// workload's op metrics unchanged.
//
// A pass walks a fixed pool of ScenarioGenerator::churn_trace traces.
// Per-trace cost varies by orders of magnitude with the generator seed,
// so the benchmark's --seed only orders the walks: every run then does
// the same work, and percentiles over op identities stay comparable.
#include <stdexcept>

#include "core/session.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/fingerprint.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "engine/scenario_generator.h"
#include "workload.h"

namespace ttbench {
namespace {

using namespace ttdim;

/// Generator seeds of the trace pool and episodes per app: about 60
/// deltas and a few seconds of walking per pass on a 4-core x86 box.
const std::vector<std::uint64_t> kTraceSeeds = {1, 2, 3};
constexpr int kEpisodes = 3;

/// The delta stream of a churn trace, as bench/bench_redimension.cpp
/// builds it: each app's first kAdd is its registration (covered by the
/// initial solve), and a removal that would empty the population is
/// skipped together with its paired re-add.
std::vector<core::Delta> deltas_of(const engine::ChurnTrace& trace,
                                   const std::vector<core::AppSpec>& specs) {
  std::vector<core::Delta> deltas;
  std::vector<bool> seen_first_add(specs.size(), false);
  std::vector<bool> skip_next_add(specs.size(), false);
  int active = static_cast<int>(specs.size());
  for (const engine::ChurnEvent& event : trace.events) {
    const std::size_t a = static_cast<std::size_t>(event.app);
    core::Delta delta;
    switch (event.kind) {
      case engine::ChurnEventKind::kAdd: {
        if (!seen_first_add[a]) {
          seen_first_add[a] = true;
          continue;
        }
        if (skip_next_add[a]) {
          skip_next_add[a] = false;
          continue;
        }
        core::AppSpec spec = specs[a];
        spec.min_interarrival = event.min_interarrival;
        delta.add.push_back(spec);
        ++active;
        break;
      }
      case engine::ChurnEventKind::kRemove:
        if (active <= 1) {
          skip_next_add[a] = true;
          continue;
        }
        delta.remove.push_back(specs[a].name);
        --active;
        break;
      case engine::ChurnEventKind::kRerate: {
        core::AppSpec spec = specs[a];
        spec.min_interarrival = event.min_interarrival;
        delta.rerate.push_back(spec);
        break;
      }
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

class Churn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    specs_ = case_study_specs();
    analysis_ = std::make_shared<engine::analysis::AnalysisCache>();
    // Reference walks run with every oracle tier off (one fresh proof
    // per probe) over the shared analysis cache, which they warm.
    core::SolveOptions reference_options;
    reference_options.analysis_cache = analysis_;
    reference_options.memoize_admission = false;
    reference_options.incremental_admission = false;
    reference_options.subsumption_admission = false;
    std::vector<verify::AppTiming> timings;
    for (std::uint64_t trace_seed : kTraceSeeds) {
      core::DimensioningSession session(reference_options);
      Walk walk;
      const core::Solution initial = session.solve(specs_);
      walk.initial_fp = engine::fingerprint(initial);
      if (timings.empty())
        for (const core::AppSolution& app : initial.apps)
          timings.push_back(app.timing);
      engine::ScenarioGenerator generator(timings, trace_seed);
      walk.deltas = deltas_of(generator.churn_trace(kEpisodes), specs_);
      for (const core::Delta& delta : walk.deltas)
        walk.reference_fps.push_back(
            engine::fingerprint(session.redimension(delta)));
      walks_.push_back(std::move(walk));
    }
    order_ = permutation(static_cast<int>(walks_.size()), seed);
  }

  Pass run_pass(Tracer* tracer, LayerCounters* counters) override {
    Pass pass;
    pass.work = zero_work();
    const long analysis_misses_before = analysis_->stats().misses;
    for (int w : order_) {
      const Walk& walk = walks_[static_cast<std::size_t>(w)];
      core::SolveOptions options;
      options.analysis_cache = analysis_;
      options.verdict_cache = std::make_shared<engine::oracle::VerdictCache>();
      options.snapshot_cache =
          std::make_shared<engine::oracle::SnapshotCache>();
      const std::shared_ptr<engine::oracle::SnapshotCache> snapshots =
          options.snapshot_cache;
      const std::string prefix = "t" + std::to_string(kTraceSeeds[w]) + ".";
      try {
        const Clock::time_point start = Clock::now();
        std::unique_ptr<core::DimensioningSession> session;
        core::Solution initial;
        {
          Tracer::Scope span(tracer, "core", "session start");
          session =
              std::make_unique<core::DimensioningSession>(std::move(options));
          initial = session->solve(specs_);
          if (tracer != nullptr)
            attribute_phases(*tracer, initial.stats, "engine.analysis",
                             "engine.oracle");
        }
        pass.wall_ms += ms_since(start);
        if (engine::fingerprint(initial) != walk.initial_fp)
          throw std::runtime_error(prefix + "initial solve differs from the "
                                            "reference");
        for (std::size_t i = 0; i < walk.deltas.size(); ++i)
          run_op(*session, walk, i, prefix + std::to_string(i), tracer,
                 counters, pass);
      } catch (const std::exception& e) {
        pass.errors.push_back(prefix + ": " + e.what());
        pass.ops.push_back({prefix + "walk", 0.0, false});
      }
      if (counters != nullptr) {
        counters->add("snapshot_bytes",
                      static_cast<double>(snapshots->stats().bytes));
        counters->add("snapshot_sessions", 1.0);
      }
    }
    pass.work["analysis.misses"] +=
        analysis_->stats().misses - analysis_misses_before;
    return pass;
  }

 private:
  struct Walk {
    std::vector<core::Delta> deltas;
    std::string initial_fp;
    std::vector<std::string> reference_fps;
  };

  void run_op(core::DimensioningSession& session, const Walk& walk,
              std::size_t i, const std::string& key, Tracer* tracer,
              LayerCounters* counters, Pass& pass) {
    if (tracer != nullptr) tracer->set_op(next_op_++);
    core::Solution next;
    bool ok = true;
    const Clock::time_point start = Clock::now();
    try {
      Tracer::Scope span(tracer, "core", "redimension");
      next = session.redimension(walk.deltas[i]);
      if (tracer != nullptr)
        attribute_phases(*tracer, next.stats, "engine.analysis",
                         "engine.oracle");
    } catch (const std::exception& e) {
      ok = false;
      pass.errors.push_back(key + ": " + e.what());
    }
    const double ms = ms_since(start);
    pass.wall_ms += ms;
    if (tracer != nullptr) tracer->set_op(kPassSpan);
    pass.work["ops"] += 1;
    if (ok) {
      add_stats_work(pass.work, next.stats);
      if (engine::fingerprint(next) != walk.reference_fps[i]) {
        ok = false;
        pass.errors.push_back(key + ": fingerprint differs from the "
                                    "reference walk");
      }
    }
    if (ok && counters != nullptr) {
      add_stats_counters(*counters, next.stats);
      counters->add("redim_ms", ms);
      counters->add("removals",
                    static_cast<double>(next.stats.redimension_removals));
      counters->add("refits",
                    static_cast<double>(next.stats.redimension_refits));
      counters->add("conflicts",
                    static_cast<double>(next.stats.redimension_conflicts));
      counters->add("new_slots",
                    static_cast<double>(next.stats.redimension_new_slots));
      if (!codec_probe(*tracer, *counters, next)) {
        ok = false;
        pass.errors.push_back(key + ": codec round trip changed the solution");
      }
    }
    pass.ops.push_back({key, ms, ok});
    if (ok) pass.slots.push_back(next.proposed.slot_count());
  }

  std::vector<core::AppSpec> specs_;
  std::shared_ptr<engine::analysis::AnalysisCache> analysis_;
  std::vector<Walk> walks_;
  std::vector<int> order_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn() { return std::make_unique<Churn>(); }

}  // namespace ttbench
