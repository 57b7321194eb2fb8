// Thread-safe, byte-budgeted LRU cache of immutable per-application
// analysis results, keyed by the content-addressed AppAnalysisKey. This
// is the analysis twin of the oracle layer's VerdictCache/SnapshotCache:
// one cache can be private to a solve, or shared across a whole
// BatchRunner batch / serve process via SolveOptions::analysis_cache —
// a batch of scenarios that perturb arrival patterns but reuse the same
// plants then pays the stability + dwell cost once instead of per job.
//
// Entries are handed out as shared_ptr<const ...> so an eviction never
// invalidates a reader, and results are deterministic functions of their
// key, so concurrent misses that both compute and insert are benign (the
// second insert is a no-op on an interchangeable value). Built on the
// unified LRU core (engine/cache/lru_cache.h) with a byte-cost hook.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "control/design.h"
#include "engine/analysis/analysis_key.h"
#include "engine/cache/lru_cache.h"
#include "switching/dwell.h"

namespace ttdim::engine::analysis {

/// Immutable artefacts of one application's analysis phase: the
/// switching-stability verdict (with its CQLF certificate) and the
/// assembled dwell tables.
struct AppAnalysisResult {
  control::SwitchingStability stability;
  /// Valid only when tables_computed; empty when the analysis stopped at
  /// a non-switching-stable pair under AppAnalysisSpec::stop_on_unstable.
  switching::DwellTables tables;
  bool tables_computed = false;

  /// Resident size in bytes, for the cache's byte budget.
  [[nodiscard]] std::size_t byte_cost() const;
};

/// Round-trip binary codec for the disk tier (engine/cache/disk_cache.h).
/// Byte-exact, so equal bytes also pin cached results bit-identical to
/// freshly computed ones. decode returns false on malformed input and
/// never throws.
void encode(support::codec::Encoder& enc, const AppAnalysisResult& result);
[[nodiscard]] bool decode(support::codec::Decoder& dec,
                          AppAnalysisResult& result);

/// Monotonic counters (see engine::cache::LruStats for the lock-free
/// snapshot semantics).
struct AnalysisCacheStats {
  long hits = 0;
  long misses = 0;
  long insertions = 0;
  long evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t byte_budget = 0;
};

class AnalysisCache {
 public:
  /// Default byte budget: results are kilobytes (dwell tables + a small
  /// certificate), so this keeps tens of thousands of distinct
  /// plant/gain/spec tuples resident — far beyond any realistic batch.
  static constexpr std::size_t kDefaultByteBudget = 64u << 20;

  explicit AnalysisCache(std::size_t byte_budget = kDefaultByteBudget);

  /// Returns the result and refreshes its recency; nullptr on miss.
  [[nodiscard]] std::shared_ptr<const AppAnalysisResult> lookup(
      const AppAnalysisKey& key);

  /// Inserts (no-op when the key is already present — results for one
  /// key are interchangeable), evicting least-recently-used entries
  /// until the byte budget holds. A result larger than the whole budget
  /// is dropped rather than inserted.
  void insert(const AppAnalysisKey& key, AppAnalysisResult result);

  [[nodiscard]] AnalysisCacheStats stats() const;
  void clear();

 private:
  static std::size_t cost_of(const AppAnalysisKey& key,
                             const AppAnalysisResult& result);

  engine::cache::LruCache<AppAnalysisKey, AppAnalysisResult, AppAnalysisKeyHash>
      cache_;
};

}  // namespace ttdim::engine::analysis
