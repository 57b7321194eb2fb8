#include "engine/analysis/app_analysis.h"

#include <chrono>
#include <utility>

#include "control/design.h"
#include "engine/cache/disk_cache.h"
#include "engine/oracle/solve_stats.h"

namespace ttdim::engine::analysis {

namespace {

using Clock = std::chrono::steady_clock;
using oracle::ms_since;

constexpr const char* kDiskSpace = "analysis";

}  // namespace

AppAnalysisOutcome analyze_app(const control::DiscreteLti& plant,
                               const linalg::Matrix& kt,
                               const linalg::Matrix& ke,
                               const AppAnalysisSpec& spec,
                               AnalysisCache* cache,
                               cache::DiskCache* disk) {
  AppAnalysisOutcome out;
  AppAnalysisKey key;
  if (cache != nullptr) {
    key = AppAnalysisKey::of(plant, kt, ke, spec);
    if (auto cached = cache->lookup(key)) {
      out.result = std::move(cached);
      out.cache_hit = true;
      return out;
    }
    if (disk != nullptr) {
      if (const auto blob = disk->get(kDiskSpace, key.canonical)) {
        support::codec::Decoder dec(*blob);
        AppAnalysisResult stored;
        if (decode(dec, stored) && dec.done()) {
          cache->insert(key, stored);
          out.result =
              std::make_shared<const AppAnalysisResult>(std::move(stored));
          out.cache_hit = true;
          return out;
        }
        // Undecodable payload (e.g. written by a build whose codec
        // differs without a format bump): fall through to a cold
        // compute; the entry ages out via the trim.
      }
    }
  }

  AppAnalysisResult result;
  const auto t_stability = Clock::now();
  result.stability = control::check_switching_stability(
      plant, kt, ke, spec.stability_settling);
  out.stability_ms = ms_since(t_stability);

  result.tables_computed =
      !(spec.stop_on_unstable && !result.stability.switching_stable());
  if (result.tables_computed) {
    const control::SwitchedLoop loop(plant, kt, ke);
    const auto t_dwell = Clock::now();
    result.tables = switching::compute_dwell_tables(loop, spec.dwell);
    out.dwell_ms = ms_since(t_dwell);
  }

  if (cache != nullptr) {
    cache->insert(key, result);
    if (disk != nullptr) {
      std::string encoded;
      support::codec::Encoder enc(encoded);
      encode(enc, result);
      disk->put(kDiskSpace, key.canonical, encoded);
    }
  }
  out.result = std::make_shared<const AppAnalysisResult>(std::move(result));
  return out;
}

}  // namespace ttdim::engine::analysis
