#include "stats.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

namespace ttbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  const double lo = values[n / 2 - 1];
  const double hi = values[n / 2];
  return hi == kMissed ? kMissed : (lo + hi) / 2.0;
}

namespace {

/// (latency, weight) pairs sorted by latency, and the identity count.
std::vector<std::pair<double, double>> weighted(
    const std::vector<OpSample>& samples, std::size_t& identities) {
  std::map<std::string, int> repeats;
  for (const OpSample& s : samples) ++repeats[s.key];
  identities = repeats.size();
  std::vector<std::pair<double, double>> out;
  out.reserve(samples.size());
  for (const OpSample& s : samples)
    out.emplace_back(s.ok ? s.ms : kMissed, 1.0 / repeats[s.key]);
  std::sort(out.begin(), out.end());
  return out;
}

constexpr double kEps = 1e-9;

}  // namespace

double identity_median(const std::vector<OpSample>& samples) {
  std::size_t identities = 0;
  const auto points = weighted(samples, identities);
  const double half = static_cast<double>(identities) / 2.0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    cumulative += points[i].second;
    if (cumulative < half - kEps) continue;
    // Exactly half the weight at or below this sample: average it with
    // the next one, like the plain median of an even count.
    if (cumulative < half + kEps && i + 1 < points.size()) {
      const double next = points[i + 1].first;
      return next == kMissed ? kMissed : (points[i].first + next) / 2.0;
    }
    return points[i].first;
  }
  return 0.0;
}

TailPoint identity_tail(const std::vector<OpSample>& samples, int beyond) {
  TailPoint point;
  const auto points = weighted(samples, point.identities);
  if (points.empty()) return point;
  const double need = static_cast<double>(std::max(beyond, 0));
  const double total = static_cast<double>(point.identities);
  if (total <= need) {
    point.value = points.back().first;
    return point;
  }
  point.defined = true;
  point.percentile = 100.0 * (total - need) / total;
  double above = 0.0;
  for (std::size_t i = points.size(); i-- > 0;) {
    if (above >= need - kEps) {
      point.value = points[i].first;
      break;
    }
    above += points[i].second;
  }
  return point;
}

double error_rate(long attempted, long failed) {
  if (attempted <= 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

std::string format_work(const WorkCounts& counts) {
  std::string out;
  for (const auto& [name, value] : counts) {
    if (!out.empty()) out += ' ';
    out += name + '=' + std::to_string(value);
  }
  return out;
}

std::optional<WorkCounts> parse_work(const std::string& text) {
  WorkCounts counts;
  std::istringstream in(text);
  std::string item;
  while (in >> item) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    try {
      std::size_t used = 0;
      const long value = std::stol(item.substr(eq + 1), &used);
      if (used != item.size() - eq - 1) return std::nullopt;
      counts[item.substr(0, eq)] = value;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return counts;
}

std::vector<std::string> work_diff(const WorkCounts& a, const WorkCounts& b) {
  std::vector<std::string> names;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != value) names.push_back(name);
  }
  for (const auto& [name, value] : b)
    if (a.find(name) == a.end()) names.push_back(name);
  return names;
}

std::vector<std::string> check_work_ledger(const std::string& ledger_path,
                                           const std::string& id,
                                           const WorkCounts& counts) {
  std::ifstream in(ledger_path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.substr(0, space) != id) continue;
    const std::optional<WorkCounts> recorded =
        parse_work(line.substr(space + 1));
    if (!recorded) return {"<unparsable ledger entry>"};
    return work_diff(*recorded, counts);
  }
  std::ofstream out(ledger_path, std::ios::app);
  out << id << ' ' << format_work(counts) << '\n';
  return {};
}

}  // namespace ttbench
