// Closed-loop simulation and settling-time measurement.
#pragma once

#include <optional>
#include <vector>

#include "control/lti.h"

namespace ttdim::control {

/// One simulated sample of a control loop.
struct Sample {
  double t = 0.0;  ///< seconds since the disturbance
  double y = 0.0;  ///< first plant output
  double u = 0.0;  ///< input applied over [t, t+h)
};

using Trace = std::vector<Sample>;

/// Settling-time threshold: the system has settled at sample k0 when
/// |y[k]| <= abs_tol for every k >= k0 (paper Sec. 3.1 uses 0.02 against a
/// unit disturbance).
struct SettlingSpec {
  double abs_tol = 0.02;
  /// Samples simulated when measuring settling; must comfortably exceed
  /// any settling time of interest.
  int horizon = 4000;
};

/// Encode-only key part: tolerance bit pattern + horizon. Every
/// simulation entry point in this header is a pure function of its
/// arguments, so a spec's bytes plus the loop's bytes fully address any
/// settling result — what the engine::analysis and whole-solve cache
/// keys rely on. Specs are never stored, so there is no decode.
void encode(support::codec::Encoder& enc, const SettlingSpec& spec);

/// Index of the first sample from which the trace output stays within
/// `abs_tol` to the end; nullopt when the trace never settles (including
/// divergence).
[[nodiscard]] std::optional<int> settling_samples(const Trace& trace,
                                                  double abs_tol);

/// Simulate x+ = a x from x0 for `steps` samples, recording y = (c x)(0)
/// and u = (k_u x) if a gain row is supplied (may be empty).
[[nodiscard]] Trace simulate_autonomous(const Matrix& a, const Matrix& c,
                                        const Matrix& x0, double h, int steps);

/// State of the bi-modal loop carried across mode switches.
struct LoopState {
  Matrix x;             ///< plant state (n x 1)
  double u_prev = 0.0;  ///< input applied during the previous sample
};

/// The bi-modal switched control loop of the paper: mode MT applies
/// u = -kt x with negligible delay, mode ME applies u = -ke [x; u_prev]
/// with one full sample of sensing-to-actuation delay.
class SwitchedLoop {
 public:
  /// `kt` is 1 x n, `ke` is 1 x (n+1).
  SwitchedLoop(DiscreteLti plant, Matrix kt, Matrix ke);

  [[nodiscard]] const DiscreteLti& plant() const noexcept { return plant_; }
  [[nodiscard]] const Matrix& kt() const noexcept { return kt_; }
  [[nodiscard]] const Matrix& ke() const noexcept { return ke_; }

  /// Fresh state immediately after a unit disturbance (y jumps to 1, held
  /// input memory cleared) — paper Sec. 3.1.
  [[nodiscard]] LoopState disturbed_state() const;

  /// Advance one sample in mode MT; returns the applied input.
  double step_tt(LoopState& s) const;
  /// Advance one sample in mode ME; returns the applied input (the held
  /// previous command, per the one-sample delay).
  double step_et(LoopState& s) const;

  [[nodiscard]] double output(const LoopState& s) const;

  /// Simulate: `wait` samples of ME, then `dwell` samples of MT, then ME
  /// until `spec.horizon` samples in total. This is exactly the switching
  /// pattern the strategy of Sec. 3 allows. Returns the full trace.
  [[nodiscard]] Trace simulate_pattern(int wait, int dwell,
                                       const SettlingSpec& spec) const;

  /// Settling time (in samples, from the disturbance) of the pattern
  /// above; nullopt when the loop fails to settle within the horizon.
  ///
  /// Equals settling_samples(simulate_pattern(wait, dwell, spec), abs_tol)
  /// exactly, but runs allocation-free on flattened dynamics instead of
  /// materializing a Trace, and stops early once the tail is settled for
  /// good: at the top of sample k it returns when k >= wait + dwell (only
  /// ME remains) and tail_gain() * |z_k|_inf <= abs_tol / 2, z = [x;
  /// u_prev]. Proof: every later output is [c 0] A^j z_k with A the ME
  /// matrix, and |[c 0] A^j z| <= tail_gain() * |z|_inf for all j >= 0, so
  /// no later sample can violate the band; the factor 1/2 absorbs float
  /// rounding of the contracting recurrence.
  [[nodiscard]] std::optional<int> settling_of_pattern(
      int wait, int dwell, const SettlingSpec& spec) const;

  /// G = max_{0 <= r < J} |[c 0] A^r|_1 for the ME matrix A =
  /// switched_modes(plant, kt, ke).a_et and the smallest J >= 1 with
  /// |A^J|_inf <= 1/2, so that |[c 0] A^j z| <= G |z|_inf for every j >= 0
  /// (write j = qJ + r). +infinity when no such J exists within 10 000
  /// powers (ME not Schur-stable, or contracting too slowly), which
  /// disables the early exit.
  [[nodiscard]] double tail_gain() const noexcept { return tail_gain_; }

  /// Simulate an arbitrary mode schedule: modes[k] == true means sample k
  /// runs in MT. Samples beyond the schedule run in ME.
  [[nodiscard]] Trace simulate_schedule(const std::vector<bool>& modes,
                                        int total_samples) const;

 private:
  DiscreteLti plant_;
  Matrix kt_;
  Matrix ke_;
  double tail_gain_;
};

}  // namespace ttdim::control
