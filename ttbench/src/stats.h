// The benchmark's own statistics: op-latency percentiles, the error rate
// and the work-count comparison that gates timing comparisons. Pure
// functions over plain values so tests/stats_test.cpp can pin them.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ttbench {

/// Latency a failed op reads as in every percentile: it misses every
/// latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// One timed op. `key` names the op's input (the same key in two passes
/// means the same input, so the same work); `ok` is false when the op
/// threw or its output check failed.
struct OpSample {
  std::string key;
  double ms = 0.0;
  bool ok = true;
};

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// Op-latency percentiles weigh every op identity (key) equally: an
/// identity timed k times contributes k samples of weight 1/k, and a
/// failed sample reads as kMissed. With one sample per identity these
/// are the plain percentiles; with repeats they stay percentiles over
/// identities however many passes a run completed.
[[nodiscard]] double identity_median(const std::vector<OpSample>& samples);

/// The highest percentile that has at least `beyond` identities' weight
/// above it: percentile 100 (m - beyond) / m over m identities, which
/// with one sample each is the (m - beyond)-th smallest. `defined` is
/// false when m <= beyond; `value` is then the maximum and `percentile`
/// 100.
struct TailPoint {
  double percentile = 100.0;
  double value = 0.0;
  bool defined = false;
  std::size_t identities = 0;
};
[[nodiscard]] TailPoint identity_tail(const std::vector<OpSample>& samples,
                                      int beyond = 10);

/// Failed ops over attempted ops (0 when nothing was attempted).
[[nodiscard]] double error_rate(long attempted, long failed);

/// Exact work counts of one pass (oracle answers per tier, verifier
/// states, analysis misses, disk reads, redimension outcomes). Timings
/// are only comparable between passes and runs whose counts are equal.
using WorkCounts = std::map<std::string, long>;

/// "name=value name=value ..." in key order; parse_work inverts it.
[[nodiscard]] std::string format_work(const WorkCounts& counts);
[[nodiscard]] std::optional<WorkCounts> parse_work(const std::string& text);

/// Names whose values differ between `a` and `b`, including names
/// present in only one of them.
[[nodiscard]] std::vector<std::string> work_diff(const WorkCounts& a,
                                                 const WorkCounts& b);

/// Cross-run comparison through a ledger file of "<id> <counts>" lines.
/// If the ledger already holds `id`, returns the names that differ from
/// the recorded counts (empty: equal work). Otherwise records `counts`
/// under `id` and returns an empty vector. An unreadable ledger is
/// treated as empty; a ledger that cannot be written is not an error.
[[nodiscard]] std::vector<std::string> check_work_ledger(
    const std::string& ledger_path, const std::string& id,
    const WorkCounts& counts);

}  // namespace ttbench
