// The per-application analysis pipeline, extracted from core::solve:
// switching-stability check + dwell-table search, fronted by the
// content-addressed AnalysisCache. One analyze_app call either answers
// from the cache (~microseconds) or computes, inserts and returns the
// fresh result (~hundreds of milliseconds for case-study plants). The
// returned result is byte-identical either way — both computations are
// pure functions of the key — which is what keeps solve fingerprints
// byte-identical cache-on/cache-off.
#pragma once

#include <memory>

#include "engine/analysis/analysis_cache.h"
#include "engine/analysis/analysis_key.h"

namespace ttdim::engine::cache {
class DiskCache;
}  // namespace ttdim::engine::cache

namespace ttdim::engine::analysis {

/// One analysis call's outcome: the (possibly shared) immutable result
/// plus per-call accounting for SolveStats.
struct AppAnalysisOutcome {
  std::shared_ptr<const AppAnalysisResult> result;
  bool cache_hit = false;
  double stability_ms = 0.0;  ///< cold compute cost; 0.0 on a hit
  double dwell_ms = 0.0;      ///< cold compute cost; 0.0 on a hit
};

/// Analyse one application: stability verdict, then (unless the pair is
/// unstable under spec.stop_on_unstable) the dwell tables.
/// `cache` may be nullptr (always computes). Exceptions thrown by the
/// dwell search (malformed spec, requirement below JT) propagate and
/// nothing is cached — failure paths re-prove, like the verdict cache's
/// unsafe probes.
///
/// `disk`, when non-null (and `cache` is too), is the persistent second
/// tier: a memory miss consults the disk "analysis" space, and a decoded
/// entry is promoted into `cache` and reported as a hit (a restarted
/// process pointed at a warm directory reports zero analysis misses);
/// fresh computes are written through. A malformed disk entry is a cold
/// miss. Results stay byte-identical disk tier on/off — disk entries are
/// exact encodings of previously computed results for the same key.
[[nodiscard]] AppAnalysisOutcome analyze_app(const control::DiscreteLti& plant,
                                             const linalg::Matrix& kt,
                                             const linalg::Matrix& ke,
                                             const AppAnalysisSpec& spec,
                                             AnalysisCache* cache,
                                             cache::DiskCache* disk = nullptr);

}  // namespace ttdim::engine::analysis
