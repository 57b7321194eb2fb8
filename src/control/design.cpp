#include "control/design.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "linalg/eig.h"
#include "linalg/lyap.h"
#include "linalg/solve.h"
#include "support/check.h"

namespace ttdim::control {

Matrix controllability_matrix(const DiscreteLti& plant) {
  const Index n = plant.n_states();
  Matrix ctrb(n, n * plant.n_inputs());
  Matrix col = plant.gamma();
  for (Index k = 0; k < n; ++k) {
    ctrb.set_block(0, k * plant.n_inputs(), col);
    col = plant.phi() * col;
  }
  return ctrb;
}

bool is_controllable(const DiscreteLti& plant, double tol) {
  return linalg::rank(controllability_matrix(plant), tol) == plant.n_states();
}

Matrix ackermann(const DiscreteLti& plant,
                 const std::vector<std::complex<double>>& poles) {
  TTDIM_EXPECTS(plant.n_inputs() == 1);
  const Index n = plant.n_states();
  if (static_cast<Index>(poles.size()) != n)
    throw std::domain_error("ackermann: need exactly n desired poles");
  if (!is_controllable(plant))
    throw std::domain_error("ackermann: plant is not controllable");
  const Matrix ctrb = controllability_matrix(plant);
  const Matrix p_phi =
      linalg::polyvalm(linalg::poly_from_roots(poles), plant.phi());
  // k = e_n' * ctrb^{-1} * p(phi)
  Matrix en(n, 1);
  en(n - 1, 0) = 1.0;
  const Matrix row = linalg::solve(ctrb.transpose(), en).transpose();
  return row * p_phi;
}

Matrix dlqr(const DiscreteLti& plant, const LqrWeights& w, int max_iter,
            double tol) {
  const Matrix& b = plant.gamma();
  TTDIM_EXPECTS(w.q.rows() == plant.phi().rows() && w.q.is_symmetric(1e-9));
  TTDIM_EXPECTS(w.r.rows() == b.cols() && w.r.is_symmetric(1e-9));
  // Structure-preserving doubling algorithm for the DARE — quadratic
  // convergence even when the closed loop is barely inside the unit circle
  // (the plain fixed-point iteration needs ~1/(1-rho^2) steps, which is
  // prohibitive for plants like C6 with rho ~ 0.999).
  const Index n = plant.phi().rows();
  Matrix a = plant.phi();
  Matrix g = b * linalg::solve(w.r, b.transpose());
  Matrix h = w.q;
  for (int it = 0; it < max_iter; ++it) {
    const Matrix winv_a = linalg::solve(Matrix::identity(n) + g * h, a);
    const Matrix a_next = a * winv_a;
    Matrix g_next = g + a * linalg::solve(Matrix::identity(n) + g * h, g) *
                            a.transpose();
    Matrix h_next = h + a.transpose() * h * winv_a;
    g_next.symmetrize();
    h_next.symmetrize();
    const double delta = (h_next - h).max_abs();
    a = std::move(a_next);
    g = std::move(g_next);
    h = std::move(h_next);
    if (delta <= tol * std::max(1.0, h.max_abs())) {
      const Matrix btp = b.transpose() * h;
      return linalg::solve(w.r + btp * b, btp * plant.phi());
    }
  }
  throw std::runtime_error("dlqr: Riccati doubling did not converge");
}

Matrix observability_matrix(const DiscreteLti& plant) {
  const Index n = plant.n_states();
  Matrix obs(n * plant.n_outputs(), n);
  Matrix row = plant.c();
  for (Index k = 0; k < n; ++k) {
    obs.set_block(k * plant.n_outputs(), 0, row);
    row = row * plant.phi();
  }
  return obs;
}

bool is_observable(const DiscreteLti& plant, double tol) {
  return linalg::rank(observability_matrix(plant), tol) == plant.n_states();
}

Matrix luenberger(const DiscreteLti& plant,
                  const std::vector<std::complex<double>>& poles) {
  TTDIM_EXPECTS(plant.n_outputs() == 1);
  if (!is_observable(plant))
    throw std::domain_error("luenberger: plant is not observable");
  // Duality: the observer gain for (phi, c) is the transposed state
  // feedback gain for (phi', c').
  const DiscreteLti dual(plant.phi().transpose(), plant.c().transpose(),
                         plant.gamma().transpose(), plant.h());
  return ackermann(dual, poles).transpose();
}

SwitchingStability check_switching_stability(const DiscreteLti& plant,
                                             const Matrix& kt,
                                             const Matrix& ke,
                                             const SettlingSpec& settling) {
  SwitchingStability out;
  const SwitchedModes modes = switched_modes(plant, kt, ke);
  // In the augmented space mode MT has an extra structural eigenvalue at 0
  // (the input memory), so Schur stability there coincides with stability
  // of phi - gamma kt.
  out.tt_stable = linalg::is_schur_stable(closed_loop(plant, kt));
  out.et_stable = linalg::is_schur_stable(modes.a_et);
  if (!out.tt_stable || !out.et_stable) return out;

  const linalg::CommonLyapunov cqlf =
      linalg::find_common_lyapunov(modes.a_tt, modes.a_et);
  out.common_lyapunov = cqlf.found;
  if (cqlf.found) out.p = cqlf.p;

  // Degradation test over the switching-pattern grid of Fig. 3.
  const SwitchedLoop loop(plant, kt, ke);
  const std::optional<int> je = loop.settling_of_pattern(0, 0, settling);
  if (!je.has_value()) return out;  // ME alone never settles: leave false
  out.settling_et = *je;
  const int wait_max = *je + 5;
  const int dwell_max = 12;
  int worst = 0;
  for (int w = 0; w <= wait_max; ++w) {
    for (int d = 0; d <= dwell_max; ++d) {
      const std::optional<int> j = loop.settling_of_pattern(w, d, settling);
      worst = std::max(worst, j.value_or(settling.horizon));
    }
  }
  out.worst_settling = worst;
  out.degradation_free = worst <= *je;
  return out;
}

std::size_t byte_cost(const SwitchingStability& s) {
  return sizeof(SwitchingStability) - sizeof(Matrix) + linalg::byte_cost(s.p);
}

void encode(support::codec::Encoder& enc, const SwitchingStability& s) {
  enc.u8(s.tt_stable ? 1 : 0);
  enc.u8(s.et_stable ? 1 : 0);
  enc.u8(s.degradation_free ? 1 : 0);
  enc.i32(s.settling_et);
  enc.i32(s.worst_settling);
  linalg::encode(enc, linalg::CommonLyapunov{s.common_lyapunov, s.p});
}

bool decode(support::codec::Decoder& dec, SwitchingStability& s) {
  s = SwitchingStability{};
  std::uint8_t tt = 0;
  std::uint8_t et = 0;
  std::uint8_t df = 0;
  if (!dec.u8(tt) || !dec.u8(et) || !dec.u8(df) || tt > 1 || et > 1 || df > 1)
    return false;
  if (!dec.i32(s.settling_et) || !dec.i32(s.worst_settling)) return false;
  linalg::CommonLyapunov cqlf;
  if (!linalg::decode(dec, cqlf)) return false;
  s.tt_stable = tt != 0;
  s.et_stable = et != 0;
  s.degradation_free = df != 0;
  s.common_lyapunov = cqlf.found;
  s.p = std::move(cqlf.p);
  return true;
}

}  // namespace ttdim::control
