#include "engine/analysis/analysis_cache.h"

namespace ttdim::engine::analysis {

std::size_t AppAnalysisResult::byte_cost() const {
  return control::byte_cost(stability) + switching::byte_cost(tables) +
         sizeof(bool);
}

void encode(support::codec::Encoder& enc, const AppAnalysisResult& result) {
  control::encode(enc, result.stability);
  enc.u8(result.tables_computed ? 1 : 0);
  if (result.tables_computed) switching::encode(enc, result.tables);
}

bool decode(support::codec::Decoder& dec, AppAnalysisResult& result) {
  result = AppAnalysisResult{};
  if (!control::decode(dec, result.stability)) return false;
  std::uint8_t computed = 0;
  if (!dec.u8(computed) || computed > 1) return false;
  result.tables_computed = computed != 0;
  if (result.tables_computed && !switching::decode(dec, result.tables))
    return false;
  return true;
}

AnalysisCache::AnalysisCache(std::size_t byte_budget)
    : cache_(byte_budget, &AnalysisCache::cost_of) {}

std::size_t AnalysisCache::cost_of(const AppAnalysisKey& key,
                                   const AppAnalysisResult& result) {
  // Result payload + key string + fixed bookkeeping overhead per entry.
  return result.byte_cost() + key.canonical.size() + 128;
}

std::shared_ptr<const AppAnalysisResult> AnalysisCache::lookup(
    const AppAnalysisKey& key) {
  return cache_.lookup(key);
}

void AnalysisCache::insert(const AppAnalysisKey& key,
                           AppAnalysisResult result) {
  cache_.insert(key, std::move(result));
}

AnalysisCacheStats AnalysisCache::stats() const {
  const engine::cache::LruStats lru = cache_.stats();
  AnalysisCacheStats out;
  out.hits = lru.hits;
  out.misses = lru.misses;
  out.insertions = lru.insertions;
  out.evictions = lru.evictions;
  out.entries = lru.entries;
  out.bytes = lru.cost;
  out.byte_budget = lru.budget;
  return out;
}

void AnalysisCache::clear() { cache_.clear(); }

}  // namespace ttdim::engine::analysis
