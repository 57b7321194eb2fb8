#include "engine/fuzz/artifact.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "support/check.h"
#include "support/codec.h"

namespace ttdim::engine::fuzz {

namespace {

const char* policy_name(verify::SlotPolicy policy) {
  return policy == verify::SlotPolicy::kPaper ? "paper" : "slack";
}

verify::SlotPolicy parse_policy(const std::string& word) {
  if (word == "paper") return verify::SlotPolicy::kPaper;
  if (word == "slack") return verify::SlotPolicy::kSlackAware;
  throw std::invalid_argument("Artifact: unknown policy '" + word + "'");
}

/// Pull the next whitespace-separated token and require it to equal
/// `expected` — the parser is strict so a truncated or reordered artifact
/// fails loudly instead of replaying a different case.
void expect_word(std::istream& in, const char* expected) {
  std::string word;
  if (!(in >> word) || word != expected)
    throw std::invalid_argument(std::string("Artifact: expected '") +
                                expected + "', got '" + word + "'");
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  T value{};
  if (!(in >> value))
    throw std::invalid_argument(std::string("Artifact: malformed ") + what);
  return value;
}

}  // namespace

std::string Artifact::serialize() const {
  TTDIM_EXPECTS(!apps.empty());
  TTDIM_EXPECTS(scenario.disturbances.size() == apps.size());
  TTDIM_EXPECTS(description.find('\n') == std::string::npos);
  std::ostringstream out;
  out << "ttdim-fuzz-artifact v" << kFormatVersion << "\n";
  out << "description " << description << "\n";
  out << "seed " << seed << "\n";
  out << "iteration " << iteration << "\n";
  out << "kind " << (scenario_kind.empty() ? "unknown" : scenario_kind)
      << "\n";
  out << "policy " << policy_name(policy) << "\n";
  out << "max_disturbances " << max_disturbances_per_app << "\n";
  out << "max_states " << max_states << "\n";
  out << "claimed_safe " << (claimed_safe ? 1 : 0) << "\n";
  out << "apps " << apps.size() << "\n";
  for (const verify::AppTiming& app : apps) {
    out << "app " << app.t_star_w << " " << app.min_interarrival << " "
        << (app.name.empty() ? "A" : app.name) << "\n";
    out << "tminus";
    for (int v : app.t_minus) out << " " << v;
    out << "\n";
    out << "tplus";
    for (int v : app.t_plus) out << " " << v;
    out << "\n";
  }
  out << "scenario " << scenario.horizon << " "
      << scenario.forced_grants.size() << "\n";
  for (std::size_t i = 0; i < scenario.disturbances.size(); ++i) {
    out << "arrivals " << i << " " << scenario.disturbances[i].size();
    for (int t : scenario.disturbances[i]) out << " " << t;
    out << "\n";
  }
  if (!scenario.forced_grants.empty()) {
    out << "forced";
    for (int g : scenario.forced_grants) out << " " << g;
    out << "\n";
  }
  out << "expect " << expect_violator << " " << expect_violation_tick
      << "\n";
  out << "end\n";
  return out.str();
}

Artifact Artifact::parse(const std::string& text) {
  std::istringstream in(text);
  Artifact a;
  expect_word(in, "ttdim-fuzz-artifact");
  std::string version;
  if (!(in >> version) || version != "v1")
    throw std::invalid_argument("Artifact: unsupported format version '" +
                                version + "'");
  expect_word(in, "description");
  std::getline(in >> std::ws, a.description);
  expect_word(in, "seed");
  a.seed = read_value<std::uint64_t>(in, "seed");
  expect_word(in, "iteration");
  a.iteration = read_value<long>(in, "iteration");
  expect_word(in, "kind");
  a.scenario_kind = read_value<std::string>(in, "kind");
  expect_word(in, "policy");
  a.policy = parse_policy(read_value<std::string>(in, "policy"));
  expect_word(in, "max_disturbances");
  a.max_disturbances_per_app = read_value<int>(in, "max_disturbances");
  expect_word(in, "max_states");
  a.max_states = read_value<long>(in, "max_states");
  expect_word(in, "claimed_safe");
  a.claimed_safe = read_value<int>(in, "claimed_safe") != 0;
  expect_word(in, "apps");
  const std::size_t napps = read_value<std::size_t>(in, "app count");
  if (napps == 0 || napps > 64)
    throw std::invalid_argument("Artifact: implausible app count");
  a.apps.resize(napps);
  for (verify::AppTiming& app : a.apps) {
    expect_word(in, "app");
    app.t_star_w = read_value<int>(in, "t_star_w");
    app.min_interarrival = read_value<int>(in, "min_interarrival");
    app.name = read_value<std::string>(in, "name");
    if (app.t_star_w < 0 || app.t_star_w > 1'000'000)
      throw std::invalid_argument("Artifact: implausible T*w");
    const std::size_t want = static_cast<std::size_t>(app.t_star_w) + 1;
    expect_word(in, "tminus");
    app.t_minus.resize(want);
    for (int& v : app.t_minus) v = read_value<int>(in, "t_minus entry");
    expect_word(in, "tplus");
    app.t_plus.resize(want);
    for (int& v : app.t_plus) v = read_value<int>(in, "t_plus entry");
    app.validate();
  }
  expect_word(in, "scenario");
  a.scenario.horizon = read_value<int>(in, "horizon");
  const std::size_t nforced = read_value<std::size_t>(in, "forced count");
  a.scenario.disturbances.assign(napps, {});
  for (std::size_t i = 0; i < napps; ++i) {
    expect_word(in, "arrivals");
    const std::size_t index = read_value<std::size_t>(in, "arrival index");
    if (index != i)
      throw std::invalid_argument("Artifact: arrival rows out of order");
    const std::size_t count = read_value<std::size_t>(in, "arrival count");
    if (count > 1'000'000)
      throw std::invalid_argument("Artifact: implausible arrival count");
    a.scenario.disturbances[i].resize(count);
    for (int& t : a.scenario.disturbances[i])
      t = read_value<int>(in, "arrival tick");
  }
  if (nforced > 0) {
    if (nforced != static_cast<std::size_t>(a.scenario.horizon))
      throw std::invalid_argument(
          "Artifact: forced grants must cover the horizon");
    expect_word(in, "forced");
    a.scenario.forced_grants.resize(nforced);
    for (int& g : a.scenario.forced_grants)
      g = read_value<int>(in, "forced grant");
  }
  expect_word(in, "expect");
  a.expect_violator = read_value<int>(in, "expected violator");
  a.expect_violation_tick = read_value<int>(in, "expected tick");
  expect_word(in, "end");
  return a;
}

Artifact load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("load_artifact: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return Artifact::parse(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::string save_artifact(const Artifact& artifact, const std::string& dir) {
  const std::string bytes = artifact.serialize();
  std::filesystem::create_directories(dir);
  std::ostringstream name;
  name << "cex_" << std::hex << std::setw(16) << std::setfill('0')
       << support::codec::fnv1a(bytes) << ".ttfz";
  const std::filesystem::path path = std::filesystem::path(dir) / name.str();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << bytes) || !out.flush())
    throw std::runtime_error("save_artifact: cannot write " + path.string());
  return path.string();
}

std::vector<std::string> list_artifacts(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".ttfz")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace ttdim::engine::fuzz
