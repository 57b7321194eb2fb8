#include "engine/analysis/analysis_key.h"

#include "support/codec.h"

namespace ttdim::engine::analysis {

AppAnalysisKey AppAnalysisKey::of(const control::DiscreteLti& plant,
                                  const linalg::Matrix& kt,
                                  const linalg::Matrix& ke,
                                  const AppAnalysisSpec& spec) {
  AppAnalysisKey key;
  key.canonical.reserve(320);
  support::codec::Encoder enc(key.canonical);
  control::encode(enc, plant);
  linalg::encode(enc, kt);
  linalg::encode(enc, ke);
  switching::encode(enc, spec.dwell);
  control::encode(enc, spec.stability_settling);
  enc.u8(spec.stop_on_unstable ? 1 : 0);
  key.hash = support::codec::fnv1a(key.canonical);
  return key;
}

}  // namespace ttdim::engine::analysis
