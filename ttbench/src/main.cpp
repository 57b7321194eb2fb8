// ttbench: the repository's end-to-end benchmark driver.
//
//   ttbench --workload <cold_solve|churn|restart_sweep> --seed <n>
//           --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// Sets the workload up three times (setup_s is the median), then runs
// whole passes in a closed loop until --seconds have passed. Untraced
// runs print the end-to-end metrics; traced runs spend half the time
// untraced and half traced and print the per-layer metrics, including
// each layer's self time and the tracing overhead. Every op's output is
// checked against a reference built in set-up, and every pass's work
// counts must equal the first pass's and those a previous run of the
// same binary recorded. The last stdout line is one JSON object; the
// exit code is 0 only when every check held.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "workload.h"

namespace {

using namespace ttbench;

constexpr int kSetupRepeats = 3;
/// Percentiles need op identities with at least ten beyond the tail.
constexpr std::size_t kMinIdentities = 11;
/// Stop measuring past this even if the identity floor is not met: the
/// whole run must end within three minutes.
constexpr double kHardCapSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string state_dir = ".bench_build";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (flag == "--state-dir") {
        args.state_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         args.seconds > 0.0;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "cold_solve") return make_cold_solve();
  if (args.workload == "churn") return make_churn();
  if (args.workload == "restart_sweep")
    return make_restart_sweep(args.state_dir, args.trace);
  return nullptr;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Identity of the running binary for the work ledger: a rebuilt binary
/// starts a fresh comparison.
std::string binary_id() {
  std::error_code ec;
  const auto size = std::filesystem::file_size("/proc/self/exe", ec);
  const auto mtime = std::filesystem::last_write_time("/proc/self/exe", ec);
  return std::to_string(size) + "." +
         std::to_string(mtime.time_since_epoch().count());
}

struct Phase {
  std::vector<OpSample> ops;
  std::vector<int> slots;
  double wall_ms = 0.0;
  long passes = 0;
  std::vector<std::string> errors;
  [[nodiscard]] double ms_per_op() const {
    return ops.empty() ? 0.0 : wall_ms / static_cast<double>(ops.size());
  }
};

/// Whole passes until `seconds` have passed and at least `min_identities`
/// distinct ops were timed. Every pass's work is compared with `first`
/// (set by the first pass of the run); differing names go to `mismatch`.
Phase run_phase(Workload& workload, Tracer* tracer, LayerCounters* counters,
                double seconds, std::size_t min_identities,
                std::optional<WorkCounts>& first,
                std::set<std::string>& mismatch) {
  Phase phase;
  std::set<std::string> identities;
  const Clock::time_point start = Clock::now();
  for (;;) {
    Pass pass = workload.run_pass(tracer, counters);
    if (tracer != nullptr) tracer->fold();
    ++phase.passes;
    phase.wall_ms += pass.wall_ms;
    for (OpSample& op : pass.ops) {
      identities.insert(op.key);
      phase.ops.push_back(std::move(op));
    }
    phase.slots.insert(phase.slots.end(), pass.slots.begin(),
                       pass.slots.end());
    for (std::string& e : pass.errors)
      if (phase.errors.size() < 5) phase.errors.push_back(std::move(e));
    if (!first) first = pass.work;
    for (const std::string& name : work_diff(*first, pass.work))
      mismatch.insert(name);
    const double elapsed = ms_since(start) / 1000.0;
    if (elapsed >= kHardCapSeconds) break;
    if (elapsed >= seconds && identities.size() >= min_identities) break;
  }
  return phase;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? DBL_MAX : -DBL_MAX;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const Phase& run, double setup_s,
                               TailPoint& tail_point) {
  tail_point = identity_tail(run.ops, 10);
  double slots = 0.0;
  for (int s : run.slots) slots += s;
  return {
      {"setup_s", setup_s, "s"},
      {"op_ms.p50", identity_median(run.ops), "ms"},
      {"op_ms.tail", tail_point.value, "ms"},
      {"ops_per_s", ratio(static_cast<double>(run.ops.size()),
                          run.wall_ms / 1000.0),
       "1/s"},
      {"slots.mean", ratio(slots, static_cast<double>(run.slots.size())),
       "slots"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const Tracer& tracer, const LayerCounters& c) {
  const double n = static_cast<double>(traced.ops.size());
  const auto per_op = [&](const std::string& name) {
    return ratio(c.get(name), n);
  };
  const auto p50 = [&](const std::string& name) {
    const auto it = c.samples.find(name);
    return it == c.samples.end() ? 0.0 : median(it->second);
  };
  std::vector<Metric> out;
  for (const std::string& layer : layers()) {
    const auto it = tracer.self_ms_by_layer().find(layer);
    const double self =
        it == tracer.self_ms_by_layer().end() ? 0.0 : it->second;
    out.push_back({layer + ".self_ms", ratio(self, n), "ms"});
  }
  out.push_back({"trace.op_ms", traced.ms_per_op(), "ms"});
  out.push_back({"trace.overhead_pct",
                 100.0 * (ratio(traced.ms_per_op(), untraced.ms_per_op()) - 1.0),
                 "%"});
  out.push_back({"control.stability_ms", per_op("stability_ms"), "ms"});
  out.push_back({"linalg.cqlf_ms", per_op("cqlf_ms"), "ms"});
  out.push_back({"linalg.cqlf_found_ratio",
                 ratio(c.get("cqlf_found"), c.get("cqlf_calls")), "ratio"});
  out.push_back({"switching.dwell_ms", per_op("dwell_ms"), "ms"});
  out.push_back({"engine.analysis.ms", per_op("analysis_ms"), "ms"});
  out.push_back({"engine.analysis.hit_ratio",
                 ratio(c.get("analysis_hits"), c.get("analysis_lookups")),
                 "ratio"});
  out.push_back({"mapping.probes", per_op("probes"), "count"});
  out.push_back({"engine.oracle.tier1_hits", per_op("tier1"), "count"});
  out.push_back({"engine.oracle.tier2_answers", per_op("tier2"), "count"});
  out.push_back({"engine.oracle.tier3_extensions", per_op("tier3"), "count"});
  out.push_back({"engine.oracle.tier4_fresh", per_op("tier4"), "count"});
  for (const char* tier : {"tier1", "tier2", "tier3", "tier4"})
    out.push_back({std::string("engine.oracle.probe_ms.p50.") + tier,
                   p50(std::string("probe_ms.") + tier), "ms"});
  out.push_back({"verify.states", per_op("states"), "count"});
  out.push_back({"verify.states_per_s",
                 ratio(c.get("states"), c.get("verify_ms") / 1000.0), "1/s"});
  out.push_back(
      {"verify.reuse_ratio",
       ratio(c.get("states_reused"),
             c.get("states_reused") + c.get("states_extended")),
       "ratio"});
  out.push_back({"core.redimension_ms", per_op("redim_ms"), "ms"});
  out.push_back({"core.redimension.removals", per_op("removals"), "count"});
  out.push_back({"core.redimension.refits", per_op("refits"), "count"});
  out.push_back({"core.redimension.conflicts", per_op("conflicts"), "count"});
  out.push_back({"core.redimension.new_slots", per_op("new_slots"), "count"});
  out.push_back({"engine.oracle.snapshot_mb",
                 ratio(c.get("snapshot_bytes"), c.get("snapshot_sessions")) /
                     (1024.0 * 1024.0),
                 "MB"});
  out.push_back({"engine.cache.disk_reads", per_op("disk_reads"), "count"});
  out.push_back({"engine.cache.disk_hit_ratio",
                 ratio(c.get("disk_hits"), c.get("disk_reads")), "ratio"});
  out.push_back({"engine.cache.codec_us",
                 ratio(c.get("codec_us"), c.get("codec_round_trips")), "us"});
  out.push_back({"engine.executor.utilization",
                 ratio(c.get("busy_ms"), c.get("thread_ms")), "ratio"});
  out.push_back({"sched.baseline_ms", per_op("baseline_ms"), "ms"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) || make(args) == nullptr) {
    std::fprintf(stderr,
                 "usage: ttbench --workload <cold_solve|churn|restart_sweep> "
                 "--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.state_dir);

  std::vector<double> setup_ms;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();  // the previous repetition's state goes first
    std::unique_ptr<Workload> fresh = make(args);
    const Clock::time_point start = Clock::now();
    fresh->setup(args.seed);
    setup_ms.push_back(ms_since(start));
    workload = std::move(fresh);
  }
  const double setup_s = median(setup_ms) / 1000.0;

  std::optional<WorkCounts> first_work;
  std::set<std::string> mismatch;
  Phase untraced, traced;
  Tracer tracer;
  LayerCounters counters;
  if (!args.trace) {
    untraced = run_phase(*workload, nullptr, nullptr, args.seconds,
                         kMinIdentities, first_work, mismatch);
  } else {
    untraced = run_phase(*workload, nullptr, nullptr, args.seconds / 2.0, 1,
                         first_work, mismatch);
    traced = run_phase(*workload, &tracer, &counters, args.seconds / 2.0, 1,
                       first_work, mismatch);
  }

  const std::vector<std::string> ledger_diff = check_work_ledger(
      args.state_dir + "/work-ledger.txt",
      args.workload + "@" + binary_id(), *first_work);

  long attempted = 0, failed = 0;
  for (const Phase* phase : {&untraced, &traced})
    for (const OpSample& op : phase->ops) {
      ++attempted;
      if (!op.ok) ++failed;
    }
  const bool correct = failed == 0 && mismatch.empty() && ledger_diff.empty();

  std::printf("ttbench %s seed=%llu threads=%d trace=%d setup_runs=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), workload->threads(),
              args.trace ? 1 : 0, kSetupRepeats);
  std::printf("work per pass: %s\n", format_work(*first_work).c_str());
  for (const std::string& name : mismatch)
    std::printf("WORK MISMATCH between passes: %s\n", name.c_str());
  for (const std::string& name : ledger_diff)
    std::printf("WORK MISMATCH with an earlier run of this binary: %s\n",
                name.c_str());
  for (const Phase* phase : {&untraced, &traced})
    for (const std::string& e : phase->errors)
      std::printf("FAILED: %s\n", e.c_str());
  std::printf("ops attempted=%ld failed=%ld error_rate=%.6g passes=%ld\n",
              attempted, failed, error_rate(attempted, failed),
              untraced.passes + traced.passes);

  std::vector<Metric> metrics;
  if (!args.trace) {
    TailPoint tail_point;
    metrics = end_to_end(untraced, setup_s, tail_point);
    std::printf("op_ms.tail is p%.4g over %zu op identities%s\n",
                tail_point.percentile, tail_point.identities,
                tail_point.defined ? "" : " (fewer than 11: the maximum)");
  } else {
    metrics = per_layer(untraced, traced, tracer, counters);
    const std::string path = args.state_dir + "/traces";
    std::filesystem::create_directories(path);
    const std::string file = path + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.write_chrome_json(file))
      std::printf("spans written to %s\n", file.c_str());
    double self_sum = 0.0;
    for (const std::string& layer : layers()) {
      const auto it = tracer.self_ms_by_layer().find(layer);
      const double self =
          it == tracer.self_ms_by_layer().end() ? 0.0 : it->second;
      self_sum += self;
      std::printf("  self %-16s %12.4f ms/op %6.1f %%\n", layer.c_str(),
                  ratio(self, static_cast<double>(traced.ops.size())),
                  100.0 * ratio(self, traced.wall_ms));
    }
    std::printf("  layers sum to %.4f of the traced wall time; traced "
                "%.4f ms/op vs untraced %.4f ms/op\n",
                ratio(self_sum, traced.wall_ms), traced.ms_per_op(),
                untraced.ms_per_op());
  }
  for (const Metric& m : metrics)
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
