// Cross-process warm start through the persistent tier: a fresh DiskCache
// handle over a directory another handle populated must answer the whole
// solve — zero analysis recomputes, zero verifier runs — with a
// byte-identical fingerprint; the whole-solve Solution cache must
// short-circuit the entire pipeline on a key hit; and injected entry
// corruption must degrade to a cold (but correct) solve, never a failure.
// The in-process fresh-handle construction is exactly what a process
// restart or a CI actions/cache restore produces; examples/warm_start.cpp
// runs the same checks across real processes.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "engine/cache/disk_cache.h"
#include "engine/cache/solution_cache.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"

namespace ttdim {
namespace {

namespace fs = std::filesystem;

class WarmStartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ttdim-warm-start-test-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
    const std::vector<casestudy::App> pool = casestudy::all_apps();
    for (std::size_t i = 0; i < 3; ++i)
      specs_.push_back({pool[i].name, pool[i].plant, pool[i].kt, pool[i].ke,
                        pool[i].min_interarrival,
                        pool[i].settling_requirement});
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The bounded-verifier configuration keeps this suite in tier-1 time.
  core::SolveOptions base_options() const {
    core::SolveOptions o;
    o.max_disturbances_per_app = 1;
    return o;
  }

  std::string dir_;
  std::vector<core::AppSpec> specs_;
};

TEST_F(WarmStartTest, FreshHandleOverWarmDirectorySolvesWithoutRecompute) {
  const core::Solution reference = core::solve(specs_, base_options());
  const std::string fp = engine::fingerprint(reference);

  // Cold pass: first handle populates the directory.
  core::SolveOptions cold = base_options();
  cold.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  const core::Solution first = core::solve(specs_, cold);
  EXPECT_EQ(engine::fingerprint(first), fp);
  EXPECT_GT(first.stats.analysis_misses, 0);
  EXPECT_GT(first.stats.disk_writes, 0);

  // Warm pass: a *fresh* handle (fresh memory caches, fresh stats) over
  // the same directory — the process-restart shape. Everything must come
  // from disk: no analysis recompute, no verifier run.
  core::SolveOptions warm = base_options();
  warm.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  const core::Solution second = core::solve(specs_, warm);
  EXPECT_EQ(engine::fingerprint(second), fp);
  EXPECT_EQ(second.stats.analysis_misses, 0);
  EXPECT_EQ(second.stats.cache_misses, 0);
  EXPECT_EQ(second.stats.verifier_states, 0);
  EXPECT_GT(second.stats.disk_hits, 0);
  EXPECT_EQ(second.stats.analysis_hits, first.stats.analysis_misses);
  // The oracle-tier identity holds with the disk tier on.
  EXPECT_EQ(second.stats.oracle_calls,
            second.stats.cache_hits + second.stats.subsumption_hits +
                second.stats.subsumption_cuts + second.stats.cache_misses);
}

TEST_F(WarmStartTest, SolutionCacheShortCircuitsTheWholePipeline) {
  const std::string fp =
      engine::fingerprint(core::solve(specs_, base_options()));

  core::SolveOptions store = base_options();
  store.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  store.solution_cache = std::make_shared<engine::cache::SolutionCache>();
  const core::Solution first = core::solve(specs_, store);
  EXPECT_EQ(engine::fingerprint(first), fp);
  EXPECT_EQ(first.stats.solution_hits, 0);
  EXPECT_EQ(first.stats.solution_misses, 1);

  // Memory hit: same SolutionCache, second solve of the same specs.
  const core::Solution memory_hit = core::solve(specs_, store);
  EXPECT_EQ(engine::fingerprint(memory_hit), fp);
  EXPECT_EQ(memory_hit.stats.solution_hits, 1);
  EXPECT_EQ(memory_hit.stats.oracle_calls, 0);
  EXPECT_EQ(memory_hit.stats.analysis_hits, 0);

  // Disk hit: fresh memory SolutionCache, fresh DiskCache handle — only
  // the directory carries the result across, and no pipeline phase runs.
  core::SolveOptions restart = base_options();
  restart.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  restart.solution_cache = std::make_shared<engine::cache::SolutionCache>();
  const core::Solution disk_hit = core::solve(specs_, restart);
  EXPECT_EQ(engine::fingerprint(disk_hit), fp);
  EXPECT_EQ(disk_hit.stats.solution_hits, 1);
  EXPECT_EQ(disk_hit.stats.oracle_calls, 0);
  EXPECT_EQ(disk_hit.stats.analysis_hits, 0);
  EXPECT_EQ(disk_hit.stats.analysis_misses, 0);
  EXPECT_GT(disk_hit.stats.disk_hits, 0);
}

TEST_F(WarmStartTest, CorruptionDegradesToColdMissNeverFailure) {
  core::SolveOptions cold = base_options();
  cold.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  cold.solution_cache = std::make_shared<engine::cache::SolutionCache>();
  const core::Solution first = core::solve(specs_, cold);
  const std::string fp = engine::fingerprint(first);

  // Flip one byte in the middle of every entry file.
  int flipped = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir_)) {
    if (!e.is_regular_file() || e.path().extension() != ".entry") continue;
    std::fstream f(e.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(e.path()) / 2));
    f.put(static_cast<char>('~'));
    ++flipped;
  }
  ASSERT_GT(flipped, 0);

  // A fresh process over the vandalized directory: everything reads as a
  // miss, the solve recomputes cold, and the result is still identical.
  core::SolveOptions warm = base_options();
  warm.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  warm.solution_cache = std::make_shared<engine::cache::SolutionCache>();
  const core::Solution second = core::solve(specs_, warm);
  EXPECT_EQ(engine::fingerprint(second), fp);
  EXPECT_EQ(second.stats.solution_hits, 0);
  EXPECT_GT(second.stats.analysis_misses, 0);
  EXPECT_GT(warm.disk_cache->stats().corrupt, 0);

  // The corrupt entries were self-healed on read and rewritten by the
  // cold solve: a third fresh handle is fully warm again.
  core::SolveOptions healed = base_options();
  healed.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
  const core::Solution third = core::solve(specs_, healed);
  EXPECT_EQ(engine::fingerprint(third), fp);
  EXPECT_EQ(third.stats.analysis_misses, 0);
  EXPECT_EQ(third.stats.cache_misses, 0);
}

TEST_F(WarmStartTest, SolveKeyCoversResultAffectingInputsOnly) {
  const core::SolveOptions base = base_options();
  const core::SolveKey reference = core::SolveKey::of(specs_, base);

  // Result-affecting changes move the key...
  const auto moves_key = [&](const std::vector<core::AppSpec>& specs) {
    return core::SolveKey::of(specs, base) != reference;
  };
  {
    std::vector<core::AppSpec> looser = specs_;
    looser[0].settling_requirement += 1;
    EXPECT_TRUE(moves_key(looser));
  }
  {
    std::vector<core::AppSpec> s = specs_;
    s[0].min_interarrival += 1;
    EXPECT_TRUE(moves_key(s));
  }
  {  // names are part of the result (timings and slots carry them)
    std::vector<core::AppSpec> s = specs_;
    s[1].name = "C9";
    EXPECT_TRUE(moves_key(s));
  }
  {  // the pipeline is order-sensitive
    std::vector<core::AppSpec> s = specs_;
    std::swap(s[0], s[1]);
    EXPECT_TRUE(moves_key(s));
  }
  {  // one-ulp plant perturbation
    std::vector<core::AppSpec> s = specs_;
    control::Matrix phi = s[0].plant.phi();
    phi(0, 1) = std::nextafter(phi(0, 1), 1.0);
    s[0].plant = control::DiscreteLti(phi, s[0].plant.gamma(),
                                      s[0].plant.c(), s[0].plant.h());
    EXPECT_TRUE(moves_key(s));
  }
  {  // one-ulp gain perturbation
    std::vector<core::AppSpec> s = specs_;
    s[2].ke(0, 0) = std::nextafter(s[2].ke(0, 0), 1e9);
    EXPECT_TRUE(moves_key(s));
  }
  {  // length-prefixed names: the boundary between two names is keyed
    std::vector<core::AppSpec> ab_c = {specs_[0], specs_[1]};
    std::vector<core::AppSpec> a_bc = ab_c;
    ab_c[0].name = "ab";
    ab_c[1].name = "c";
    a_bc[0].name = "a";
    a_bc[1].name = "bc";
    EXPECT_NE(core::SolveKey::of(ab_c, base), core::SolveKey::of(a_bc, base));
  }
  {
    core::SolveOptions o = base;
    o.tw_granularity = 2;
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }
  {
    core::SolveOptions o = base;
    o.settling.abs_tol = std::nextafter(o.settling.abs_tol, 1.0);
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }
  {
    core::SolveOptions o = base;
    o.settling.horizon += 1;
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }
  {
    core::SolveOptions o = base;
    o.policy = verify::SlotPolicy::kSlackAware;
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }
  {
    core::SolveOptions o = base;
    o.max_disturbances_per_app = -1;
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }
  {
    core::SolveOptions o = base;
    o.require_switching_stability = false;
    EXPECT_NE(core::SolveKey::of(specs_, o), reference);
  }

  // ...cache/thread toggles do not (pinned byte-identical by the
  // fingerprint-equality suites), so warm and cold configurations share
  // solve-result entries.
  {
    core::SolveOptions o = base;
    o.memoize_admission = false;
    o.incremental_admission = false;
    o.subsumption_admission = false;
    o.memoize_analysis = false;
    o.analysis_threads = 0;
    o.disk_cache = std::make_shared<engine::cache::DiskCache>(dir_);
    EXPECT_EQ(core::SolveKey::of(specs_, o), reference);
  }
}

}  // namespace
}  // namespace ttdim
