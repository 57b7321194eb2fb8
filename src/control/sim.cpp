#include "control/sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace ttdim::control {

void encode(support::codec::Encoder& enc, const SettlingSpec& spec) {
  enc.f64(spec.abs_tol);
  enc.i32(spec.horizon);
}

std::optional<int> settling_samples(const Trace& trace, double abs_tol) {
  TTDIM_EXPECTS(abs_tol > 0.0);
  int last_violation = -1;
  for (int k = 0; k < static_cast<int>(trace.size()); ++k) {
    const double y = trace[static_cast<size_t>(k)].y;
    if (!std::isfinite(y)) return std::nullopt;
    if (std::abs(y) > abs_tol) last_violation = k;
  }
  // Never settled within the horizon (violation at the very end means we
  // cannot certify the tail).
  if (last_violation + 1 >= static_cast<int>(trace.size())) return std::nullopt;
  return last_violation + 1;
}

Trace simulate_autonomous(const Matrix& a, const Matrix& c, const Matrix& x0,
                          double h, int steps) {
  TTDIM_EXPECTS(a.is_square() && a.rows() == x0.rows() && x0.cols() == 1);
  TTDIM_EXPECTS(c.cols() == a.rows());
  TTDIM_EXPECTS(steps >= 0 && h > 0.0);
  Trace trace;
  trace.reserve(static_cast<size_t>(steps));
  Matrix x = x0;
  for (int k = 0; k < steps; ++k) {
    trace.push_back({k * h, (c * x)(0, 0), 0.0});
    x = a * x;
  }
  return trace;
}

namespace {

/// SwitchedLoop::tail_gain() of the loop (plant, kt, ke).
double tail_gain_of(const DiscreteLti& plant, const Matrix& kt,
                    const Matrix& ke) {
  constexpr int kMaxPower = 10000;
  const Matrix a = switched_modes(plant, kt, ke).a_et;
  Matrix c_row(1, a.cols());  // [c 0]: first output, no input memory
  c_row.set_block(0, 0, plant.c().row_at(0));
  const auto max_row_sum = [](const Matrix& m) {
    double norm = 0.0;
    for (Index r = 0; r < m.rows(); ++r) {
      double sum = 0.0;
      for (Index j = 0; j < m.cols(); ++j) sum += std::abs(m(r, j));
      norm = std::max(norm, sum);
    }
    return norm;
  };
  Matrix row = c_row;  // [c 0] A^(j-1)
  Matrix power = a;    // A^j
  double gain = 0.0;   // max over r < j of |[c 0] A^r|_1
  for (int j = 1; j <= kMaxPower; ++j) {
    if (!row.all_finite() || !power.all_finite()) break;
    gain = std::max(gain, max_row_sum(row));
    if (max_row_sum(power) <= 0.5) return gain;
    row = row * a;
    power = power * a;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

SwitchedLoop::SwitchedLoop(DiscreteLti plant, Matrix kt, Matrix ke)
    : plant_(std::move(plant)),
      kt_(std::move(kt)),
      ke_(std::move(ke)),
      tail_gain_(tail_gain_of(plant_, kt_, ke_)) {
  TTDIM_EXPECTS(plant_.n_inputs() == 1);
  TTDIM_EXPECTS(kt_.rows() == 1 && kt_.cols() == plant_.n_states());
  TTDIM_EXPECTS(ke_.rows() == 1 && ke_.cols() == plant_.n_states() + 1);
}

LoopState SwitchedLoop::disturbed_state() const {
  return {plant_.unit_output_state(), 0.0};
}

double SwitchedLoop::step_tt(LoopState& s) const {
  // Negligible sensing-to-actuation delay: u[k] = -kt x[k] acts over
  // [k, k+1). The held-input memory is refreshed with the applied input so
  // a subsequent ME sample sees the true previous command.
  const double u = -(kt_ * s.x)(0, 0);
  s.x = plant_.phi() * s.x + plant_.gamma() * u;
  s.u_prev = u;
  return u;
}

double SwitchedLoop::step_et(LoopState& s) const {
  // One-sample delay (paper Eq. (4)-(5)): the input acting over [k, k+1)
  // is u[k-1]; the command computed now, u[k] = -ke [x; u_prev], is applied
  // from the next sample on.
  const double applied = s.u_prev;
  const double u_next = -(ke_ * s.x.vstack(Matrix{{s.u_prev}}))(0, 0);
  s.x = plant_.phi() * s.x + plant_.gamma() * applied;
  s.u_prev = u_next;
  return applied;
}

double SwitchedLoop::output(const LoopState& s) const {
  return (plant_.c() * s.x)(0, 0);
}

Trace SwitchedLoop::simulate_pattern(int wait, int dwell,
                                     const SettlingSpec& spec) const {
  TTDIM_EXPECTS(wait >= 0 && dwell >= 0);
  std::vector<bool> modes(static_cast<size_t>(wait + dwell), false);
  for (int k = wait; k < wait + dwell; ++k) modes[static_cast<size_t>(k)] = true;
  return simulate_schedule(modes, spec.horizon);
}

namespace {

/// State-space cap of the flattened fast path; larger plants fall back to
/// the Trace-based evaluation (the paper's plants have <= 3 states).
constexpr Index kFlatMaxStates = 8;

}  // namespace

std::optional<int> SwitchedLoop::settling_of_pattern(
    int wait, int dwell, const SettlingSpec& spec) const {
  TTDIM_EXPECTS(wait >= 0 && dwell >= 0);
  const Index n = plant_.n_states();
  if (n > kFlatMaxStates)
    return settling_samples(simulate_pattern(wait, dwell, spec), spec.abs_tol);
  // simulate_pattern() requires the mode schedule to fit the horizon.
  TTDIM_EXPECTS(spec.horizon >= wait + dwell);

  // Flatten the loop matrices once. Every arithmetic step below mirrors the
  // Matrix operator chain of step_tt/step_et/output exactly — same term
  // order, same skip of exact-zero multiplier entries (Matrix operator*
  // skips them, Matrix-times-scalar does not) — so the settling verdict is
  // bit-identical to the Trace-based path.
  double phi[kFlatMaxStates][kFlatMaxStates];
  double gamma[kFlatMaxStates];
  double kt[kFlatMaxStates];
  double ke[kFlatMaxStates + 1];
  double c[kFlatMaxStates];
  for (Index r = 0; r < n; ++r) {
    for (Index j = 0; j < n; ++j) phi[r][j] = plant_.phi()(r, j);
    gamma[r] = plant_.gamma()(r, 0);
    kt[r] = kt_(0, r);
    ke[r] = ke_(0, r);
    c[r] = plant_.c()(0, r);
  }
  ke[n] = ke_(0, n);

  const LoopState init = disturbed_state();
  double x[kFlatMaxStates];
  double xn[kFlatMaxStates];
  for (Index r = 0; r < n; ++r) x[r] = init.x(r, 0);
  double u_prev = init.u_prev;

  // Early exit bound on every component of z = [x; u_prev]: each within
  // z_bound means tail_gain_ * |z|_inf <= abs_tol / 2. A NaN component
  // compares false, and an infinite gain never exits.
  const double z_bound = std::isfinite(tail_gain_)
                             ? 0.5 * spec.abs_tol / tail_gain_
                             : -1.0;
  const int me_from = wait + dwell;
  int last_violation = -1;
  for (int k = 0; k < spec.horizon; ++k) {
    if (k >= me_from && std::abs(u_prev) <= z_bound) {
      bool settled = true;
      for (Index r = 0; r < n && settled; ++r)
        settled = std::abs(x[r]) <= z_bound;
      if (settled) break;
    }
    double y = 0.0;
    for (Index j = 0; j < n; ++j) {
      const double a = c[j];
      if (a == 0.0) continue;
      y += a * x[j];
    }
    if (!std::isfinite(y)) return std::nullopt;
    if (std::abs(y) > spec.abs_tol) last_violation = k;

    const bool tt = k >= wait && k < wait + dwell;
    double applied;  // input acting over [k, k+1)
    if (tt) {
      double t = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = kt[j];
        if (a == 0.0) continue;
        t += a * x[j];
      }
      applied = -t;
      u_prev = applied;
    } else {
      applied = u_prev;
      double t = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = ke[j];
        if (a == 0.0) continue;
        t += a * x[j];
      }
      if (ke[n] != 0.0) t += ke[n] * u_prev;
      u_prev = -t;
    }
    for (Index r = 0; r < n; ++r) {
      double acc = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = phi[r][j];
        if (a == 0.0) continue;
        acc += a * x[j];
      }
      xn[r] = acc + gamma[r] * applied;
    }
    for (Index r = 0; r < n; ++r) x[r] = xn[r];
  }
  if (last_violation + 1 >= spec.horizon) return std::nullopt;
  return last_violation + 1;
}

Trace SwitchedLoop::simulate_schedule(const std::vector<bool>& modes,
                                      int total_samples) const {
  TTDIM_EXPECTS(total_samples >= static_cast<int>(modes.size()));
  Trace trace;
  trace.reserve(static_cast<size_t>(total_samples));
  LoopState s = disturbed_state();
  const double h = plant_.h();
  for (int k = 0; k < total_samples; ++k) {
    const bool tt = k < static_cast<int>(modes.size()) &&
                    modes[static_cast<size_t>(k)];
    const double y = output(s);
    const double u = tt ? step_tt(s) : step_et(s);
    trace.push_back({k * h, y, u});
  }
  return trace;
}

}  // namespace ttdim::control
