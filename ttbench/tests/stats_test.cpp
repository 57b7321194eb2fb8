// Tests of the driver's own statistics: the tail percentile with ten
// samples beyond it, failed ops counting as missed, percentiles that
// weigh each op identity once, and the work-count comparison within and
// across runs. Built with the
// driver; run through `python3 ttbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace ttbench;

/// n ops, each its own identity, with latencies n, n-1, ..., 1 (so
/// the input is unsorted).
std::vector<OpSample> one_to(int n) {
  std::vector<OpSample> v;
  for (int i = n; i >= 1; --i) v.push_back({"op" + std::to_string(i), 1.0 * i});
  return v;
}

void tail_has_ten_samples_beyond() {
  // 20 identities: the 10th value has exactly ten above it -> p50.
  TailPoint t = identity_tail(one_to(20));
  EXPECT(t.defined);
  EXPECT(t.value == 10.0);
  EXPECT(t.percentile == 50.0);
  EXPECT(t.identities == 20);
  // 100 identities: the 90th value, p90.
  t = identity_tail(one_to(100));
  EXPECT(t.value == 90.0 && t.percentile == 90.0);
  // 11 is the smallest count with a defined tail: the minimum.
  t = identity_tail(one_to(11));
  EXPECT(t.defined && t.value == 1.0);
  EXPECT(std::fabs(t.percentile - 100.0 / 11.0) < 1e-12);
  // Ten or fewer: undefined, reported as the maximum at p100.
  t = identity_tail(one_to(10));
  EXPECT(!t.defined && t.value == 10.0 && t.percentile == 100.0);
  t = identity_tail({});
  EXPECT(!t.defined && t.identities == 0);
  // Plain medians for one sample per identity.
  EXPECT(identity_median(one_to(5)) == 3.0);
  EXPECT(identity_median(one_to(4)) == 2.5);
}

void failed_ops_count_as_missed() {
  EXPECT(error_rate(0, 0) == 0.0);
  EXPECT(error_rate(200, 1) == 0.005);
  // A failed op reads as kMissed: it sorts above every real latency, so
  // the fastest op failing moves both the median and the tail up.
  std::vector<OpSample> samples = one_to(20);
  samples.back().ok = false;  // the 1 ms op
  const TailPoint t = identity_tail(samples);
  EXPECT(t.value == 11.0);  // ten above it: 12..20 and the missed one
  EXPECT(identity_median(samples) == (11.0 + 12.0) / 2.0);
  // A single op that failed is missed at every percentile.
  EXPECT(identity_median({{"k", 1.0, false}}) == kMissed);
}

void identities_weigh_one_however_often_timed() {
  // "a" timed three times, "b" and "c" once: each identity weighs one.
  const std::vector<OpSample> samples = {{"a", 1.0}, {"a", 1.1}, {"a", 1.2},
                                         {"b", 5.0}, {"c", 9.0}};
  EXPECT(identity_median(samples) == 5.0);
  // Repeating every identity the same number of times changes nothing.
  std::vector<OpSample> twice = one_to(30);
  const std::vector<OpSample> again = one_to(30);
  twice.insert(twice.end(), again.begin(), again.end());
  EXPECT(identity_median(twice) == identity_median(one_to(30)));
  EXPECT(identity_tail(twice).value == identity_tail(one_to(30)).value);
  EXPECT(identity_tail(twice).percentile ==
         identity_tail(one_to(30)).percentile);
}

void work_counts_compare_exactly() {
  const WorkCounts a = {{"verify.states", 1480973}, {"oracle.tier3", 4}};
  WorkCounts b = a;
  EXPECT(work_diff(a, b).empty());
  b["verify.states"] += 1;
  b["disk.reads"] = 0;
  const std::vector<std::string> d = work_diff(a, b);
  EXPECT(d.size() == 2);
  EXPECT(d[0] == "verify.states" && d[1] == "disk.reads");

  const std::optional<WorkCounts> parsed = parse_work(format_work(a));
  EXPECT(parsed && *parsed == a);
  EXPECT(!parse_work("states=12x"));
  EXPECT(!parse_work("=3"));

  // Relative: the test runs in the build directory.
  const std::string ledger = "ttbench_stats_test.ledger";
  std::filesystem::remove(ledger);
  EXPECT(check_work_ledger(ledger, "churn@1", a).empty());  // recorded
  EXPECT(check_work_ledger(ledger, "churn@1", a).empty());  // equal
  EXPECT(check_work_ledger(ledger, "churn@2", b).empty());  // other binary
  const std::vector<std::string> differ =
      check_work_ledger(ledger, "churn@1", b);
  EXPECT(differ.size() == 2);
  std::filesystem::remove(ledger);
}

}  // namespace

int main() {
  tail_has_ten_samples_beyond();
  failed_ops_count_as_missed();
  identities_weigh_one_however_often_timed();
  work_counts_compare_exactly();
  if (failures == 0) std::printf("ttbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
