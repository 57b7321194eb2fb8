// The benchmark's workloads and the helpers they share. A workload is
// set up once per repetition (inputs, output references, warm state),
// then runs passes: a pass is a fixed set of ops over fixed inputs, so
// every pass of a run does the same work and its WorkCounts repeat
// exactly. The --seed only orders or permutes inputs in ways that leave
// the work unchanged, which keeps runs with different seeds comparable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "stats.h"
#include "trace.h"

namespace ttbench {

/// Per-layer counters a traced pass accumulates (sums over its ops;
/// `samples` keeps distributions such as probe latency per tier).
struct LayerCounters {
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& name, double value) { sum[name] += value; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
};

struct Pass {
  std::vector<OpSample> ops;
  std::vector<int> slots;  ///< proposed slot count per op result
  /// Time of the pass's work: output checks and kOutside probes are
  /// excluded, so in a traced pass it is what the counted spans cover.
  double wall_ms = 0.0;
  WorkCounts work;
  std::vector<std::string> errors;  ///< first failure messages
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, output references and warm state from `seed`.
  virtual void setup(std::uint64_t seed) = 0;

  /// Runs one pass. `tracer` is null in untraced passes; traced passes
  /// also fill `counters`.
  virtual Pass run_pass(Tracer* tracer, LayerCounters* counters) = 0;

  /// Threads the workload's ops run on.
  [[nodiscard]] virtual int threads() const { return 1; }
};

[[nodiscard]] std::unique_ptr<Workload> make_cold_solve();
[[nodiscard]] std::unique_ptr<Workload> make_churn();
/// `state_dir` holds the populated disk cache; `single_threaded` is set
/// for traced runs.
[[nodiscard]] std::unique_ptr<Workload> make_restart_sweep(
    const std::string& state_dir, bool single_threaded);

// ---- Shared helpers (common.cpp). ----------------------------------------

[[nodiscard]] std::vector<ttdim::core::AppSpec> case_study_specs();

[[nodiscard]] double ms_since(Clock::time_point start);

/// Deterministic permutation of [0, n) from `seed`.
[[nodiscard]] std::vector<int> permutation(int n, std::uint64_t seed);

/// Every work count the benchmark tracks, zeroed.
[[nodiscard]] WorkCounts zero_work();

/// Adds a solve's or redimension's oracle, verifier and redimension
/// counts to `work`. SolveStats takes these from the session's own
/// oracle and per-app outcomes, so they are exact per request; disk and
/// shared-cache counts come from the caches' stats() instead.
void add_stats_work(WorkCounts& work,
                    const ttdim::engine::oracle::SolveStats& stats);

/// Adds the per-layer counters SolveStats reports for one op.
void add_stats_counters(LayerCounters& counters,
                        const ttdim::engine::oracle::SolveStats& stats);

/// Splits an open op span by the phase times SolveStats reports:
/// analysis_ms to `analysis_layer`, mapping_ms to verify when a verifier
/// ran and to `answered_layer` when every probe was answered from a
/// cache, baseline_ms to sched. The rest of the span stays with its own
/// layer.
void attribute_phases(Tracer& tracer,
                      const ttdim::engine::oracle::SolveStats& stats,
                      const std::string& analysis_layer,
                      const std::string& answered_layer);

/// Times an encode_solution + decode_solution round trip of `solution`
/// as a kOutside span and checks the decoded copy has the same
/// fingerprint; returns false on a mismatch.
bool codec_probe(Tracer& tracer, LayerCounters& counters,
                 const ttdim::core::Solution& solution);

}  // namespace ttbench
