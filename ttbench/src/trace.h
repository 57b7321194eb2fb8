// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark around its own calls into the library's public functions
// (nothing inside src/ is instrumented) and written out once, at exit,
// as Chrome trace-event JSON. A layer's self time is its spans'
// durations minus the parts their child spans cover.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace ttbench {

/// The library's modules, as the benchmark attributes time to them.
inline const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {
      "core",    "engine.analysis", "control", "linalg",
      "switching", "mapping",       "engine.oracle", "verify",
      "sched",   "engine.cache",    "engine.executor"};
  return kLayers;
}

using Clock = std::chrono::steady_clock;

/// Span::op values that are not op ids.
inline constexpr long kPassSpan = -1;  ///< pass work between ops (counted)
inline constexpr long kOutside = -2;   ///< attribution probe, not op work

struct Span {
  std::string layer;
  std::string name;
  double start_us = 0.0;  ///< since the tracer was created
  double end_us = 0.0;
  int parent = -1;  ///< index into the span list, -1 for a root
  long op = kPassSpan;  ///< op id shared by every span of one op
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one and returns its index.
  int begin(const std::string& layer, const std::string& name);
  void end(int span);

  /// Re-labels a span once its layer is known (an oracle probe belongs
  /// to the tier that answered it).
  void relabel(int span, const std::string& layer, const std::string& name);

  /// Records an already-measured child of the innermost open span, laid
  /// end to end with its earlier attributed siblings from the parent's
  /// start. Used where the library reports a phase time (SolveStats)
  /// that the benchmark cannot wrap from outside.
  void attribute(const std::string& layer, const std::string& name,
                 double duration_ms);

  /// Every span opened from here on carries `op` (an op id, kPassSpan or
  /// kOutside).
  void set_op(long op) { op_ = op; }

  /// Folds the closed spans into the per-layer self times and keeps at
  /// most kKeptSpans of them for the trace file; call between passes.
  void fold();

  /// Self time per layer in ms over every folded span except kOutside
  /// ones: their sum is the traced wall time of the passes minus the
  /// attribution probes.
  [[nodiscard]] const std::map<std::string, double>& self_ms_by_layer()
      const {
    return self_ms_;
  }

  /// Chrome trace-event JSON ("X" events, one pid/tid) of the kept
  /// spans; false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  static constexpr std::size_t kKeptSpans = 100000;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& layer, const std::string& name)
        : tracer_(tracer),
          span_(tracer ? tracer->begin(layer, name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(span_);
    }
    [[nodiscard]] int id() const { return span_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

 private:
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;    ///< current pass
  std::vector<double> cursor_us_;  ///< per span: end of attributed children
  std::vector<int> open_;
  std::vector<Span> kept_;     ///< folded spans written at exit
  std::map<std::string, double> self_ms_;
  long op_ = kPassSpan;
};

}  // namespace ttbench
