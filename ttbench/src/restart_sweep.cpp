// restart_sweep: a capacity-planning sweep over all 63 non-empty subsets
// of the six Table-1 apps, as a restarted process sees it. Each job is a
// core::solve with fresh memory caches over one DiskCache that set-up
// has populated, so the disk tier, codec decode, the Executor and the
// session/baseline overhead do all the work, and the verifier and the
// stability stage none: the read side of what cold_solve writes. The
// seed orders the jobs; jobs share nothing but the directory, so the
// order leaves the work unchanged.
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "engine/analysis/analysis_cache.h"
#include "engine/batch_runner.h"
#include "engine/cache/disk_cache.h"
#include "engine/fingerprint.h"
#include "workload.h"

namespace ttbench {
namespace {

using namespace ttdim;

/// Sweeps of the 63 subsets per pass.
constexpr std::size_t kRounds = 8;

/// The sweep's thread count: 4, or fewer on a smaller machine.
int sweep_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
}

class RestartSweep final : public Workload {
 public:
  RestartSweep(std::string state_dir, bool single_threaded)
      : state_dir_(std::move(state_dir)),
        threads_(single_threaded ? 1 : sweep_threads()) {}

  ~RestartSweep() override {
    disk_.reset();
    std::error_code ignored;
    if (!directory_.empty()) std::filesystem::remove_all(directory_, ignored);
  }

  RestartSweep(const RestartSweep&) = delete;
  RestartSweep& operator=(const RestartSweep&) = delete;

  void setup(std::uint64_t seed) override {
    static int instance = 0;
    directory_ = state_dir_ + "/restart-disk-" +
                 std::to_string(::getpid()) + "-" + std::to_string(instance++);
    std::filesystem::remove_all(directory_);
    disk_ = std::make_shared<engine::cache::DiskCache>(directory_);
    const std::vector<core::AppSpec> table1 = case_study_specs();
    for (unsigned mask = 1; mask < (1u << table1.size()); ++mask) {
      std::vector<core::AppSpec> subset;
      for (std::size_t i = 0; i < table1.size(); ++i)
        if ((mask >> i) & 1u) subset.push_back(table1[i]);
      subsets_.push_back(std::move(subset));
    }
    // Populate in mask order, each solve with fresh memory caches exactly
    // like a timed job, so every lookup a job makes finds its entry. The
    // populating solves are the jobs' output references.
    for (const std::vector<core::AppSpec>& subset : subsets_)
      reference_fps_.push_back(
          engine::fingerprint(core::solve(subset, job_options())));
    order_ = permutation(static_cast<int>(subsets_.size()), seed);
  }

  Pass run_pass(Tracer* tracer, LayerCounters* counters) override {
    Pass pass;
    pass.work = zero_work();
    // One pass sweeps every subset kRounds times, so the Executor's
    // per-batch start and join stay a small share of the pass time.
    const std::size_t n = subsets_.size();
    const std::size_t jobs = n * kRounds;
    std::vector<core::Solution> solutions(jobs);
    std::vector<double> ms(jobs, 0.0);
    std::vector<std::string> errors(jobs);
    const auto subset_of = [&](std::size_t job) {
      return static_cast<std::size_t>(order_[job % n]);
    };
    // Traced runs are single-threaded, so the tracer needs no lock and
    // the per-job SolveStats disk counters are exact.
    if (tracer != nullptr && threads_ != 1)
      throw std::logic_error("restart_sweep: traced passes need one thread");
    const engine::BatchRunner runner(threads_);
    const engine::cache::DiskCacheStats disk_before = disk_->stats();
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "engine.executor", "for_each_index");
      runner.for_each_index(static_cast<int>(jobs), [&](int i) {
        const std::size_t job = static_cast<std::size_t>(i);
        if (tracer != nullptr) tracer->set_op(next_op_ + i);
        const Clock::time_point job_start = Clock::now();
        try {
          Tracer::Scope job_span(tracer, "core", "solve");
          solutions[job] = core::solve(subsets_[subset_of(job)], job_options());
          if (tracer != nullptr)
            attribute_phases(*tracer, solutions[job].stats, "engine.cache",
                             "engine.cache");
        } catch (const std::exception& e) {
          errors[job] = e.what();
        }
        ms[job] = ms_since(job_start);
        if (tracer != nullptr) tracer->set_op(kPassSpan);
      });
    }
    pass.wall_ms = ms_since(start);
    next_op_ += static_cast<long>(jobs);
    const engine::cache::DiskCacheStats disk_after = disk_->stats();
    const long reads = (disk_after.hits - disk_before.hits) +
                       (disk_after.misses - disk_before.misses) +
                       (disk_after.corrupt - disk_before.corrupt);
    pass.work["disk.reads"] = reads;
    pass.work["ops"] = static_cast<long>(jobs);

    double busy_ms = 0.0;
    for (std::size_t job = 0; job < jobs; ++job) {
      const std::size_t subset = subset_of(job);
      const std::string key = "subset" + std::to_string(subset + 1);
      bool ok = errors[job].empty();
      if (!ok) pass.errors.push_back(key + ": " + errors[job]);
      if (ok && engine::fingerprint(solutions[job]) != reference_fps_[subset]) {
        ok = false;
        pass.errors.push_back(key + ": fingerprint differs from the "
                                    "populating solve");
      }
      if (ok) {
        add_stats_work(pass.work, solutions[job].stats);
        pass.work["analysis.misses"] += solutions[job].stats.analysis_misses;
        pass.slots.push_back(solutions[job].proposed.slot_count());
      }
      if (ok && counters != nullptr) {
        add_stats_counters(*counters, solutions[job].stats);
        if (!codec_probe(*tracer, *counters, solutions[job])) {
          ok = false;
          pass.errors.push_back(key + ": codec round trip changed the "
                                      "solution");
        }
      }
      busy_ms += ms[job];
      pass.ops.push_back({key, ms[job], ok});
    }
    if (counters != nullptr) {
      counters->add("disk_reads", static_cast<double>(reads));
      counters->add("disk_hits",
                    static_cast<double>(disk_after.hits - disk_before.hits));
      counters->add("busy_ms", busy_ms);
      counters->add("thread_ms",
                    pass.wall_ms * static_cast<double>(runner.thread_count()));
    }
    return pass;
  }

  [[nodiscard]] int threads() const override { return threads_; }

 private:
  /// Fresh memory caches (the session's private defaults) over the
  /// shared disk tier.
  [[nodiscard]] core::SolveOptions job_options() const {
    core::SolveOptions options;
    options.disk_cache = disk_;
    return options;
  }

  std::string state_dir_;
  int threads_;
  std::string directory_;
  std::shared_ptr<engine::cache::DiskCache> disk_;
  std::vector<std::vector<core::AppSpec>> subsets_;
  std::vector<std::string> reference_fps_;
  std::vector<int> order_;
  long next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_restart_sweep(const std::string& state_dir,
                                             bool single_threaded) {
  return std::make_unique<RestartSweep>(state_dir, single_threaded);
}

}  // namespace ttbench
