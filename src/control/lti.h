// Discrete-time LTI plant and closed-loop models (paper Sec. 2).
#pragma once

#include <optional>

#include "linalg/matrix.h"

namespace ttdim::control {

using linalg::Index;
using linalg::Matrix;

/// Discrete-time LTI plant  x[k+1] = phi x[k] + gamma u[k],  y[k] = c x[k]
/// sampled with period `h` seconds (paper Eq. (1)). Single-input,
/// single-output as in all the paper's applications, though `c` may expose
/// several outputs.
class DiscreteLti {
 public:
  DiscreteLti(Matrix phi, Matrix gamma, Matrix c, double h);

  [[nodiscard]] const Matrix& phi() const noexcept { return phi_; }
  [[nodiscard]] const Matrix& gamma() const noexcept { return gamma_; }
  [[nodiscard]] const Matrix& c() const noexcept { return c_; }
  [[nodiscard]] double h() const noexcept { return h_; }
  [[nodiscard]] Index n_states() const noexcept { return phi_.rows(); }
  [[nodiscard]] Index n_inputs() const noexcept { return gamma_.cols(); }
  [[nodiscard]] Index n_outputs() const noexcept { return c_.rows(); }

  /// The one-sample-delay augmented model of paper Eq. (4):
  /// z[k] = [x[k]; u[k-1]],
  /// z[k+1] = [phi, gamma; 0, 0] z[k] + [0; I] u[k],  y = [c, 0] z.
  [[nodiscard]] DiscreteLti augmented_delay_model() const;

  /// Default disturbed state: the minimum-norm x0 with c x0 = [1,..] (for
  /// the paper's c = [1 0 .. 0] this is e1, matching Sec. 3.1).
  [[nodiscard]] Matrix unit_output_state() const;

 private:
  Matrix phi_;
  Matrix gamma_;
  Matrix c_;
  double h_;
};

/// Round-trip binary codec: phi, gamma, c and the sampling period's bit
/// pattern — the content-addressed identity of the dynamics in the
/// analysis and whole-solve cache keys, and the stored form of a plant
/// in disk-cached solutions. DiscreteLti has a validating constructor
/// and no default state, so the decoder returns nullopt on malformed
/// input (checking the constructor's preconditions up front — untrusted
/// bytes must never reach a throwing TTDIM_EXPECTS).
void encode(support::codec::Encoder& enc, const DiscreteLti& plant);
[[nodiscard]] std::optional<DiscreteLti> decode_lti(
    support::codec::Decoder& dec);

/// Closed-loop matrix phi - gamma k for u = -k x (paper Eq. (3)). `k` is a
/// 1 x n row gain.
[[nodiscard]] Matrix closed_loop(const DiscreteLti& plant, const Matrix& k);

/// The two switched modes of the bi-modal strategy expressed in the common
/// augmented space z = [x; u_prev] (dimension n+1), so that a common
/// quadratic Lyapunov function can be sought for both:
///  - mode MT (fast gain kt, negligible delay):
///      x+ = (phi - gamma kt) x,  u_prev+ = -kt x
///  - mode ME (slow gain ke on z, one-sample delay):
///      x+ = phi x + gamma u_prev,  u_prev+ = -ke z
struct SwitchedModes {
  Matrix a_tt;  ///< (n+1)x(n+1) closed loop of mode MT in augmented space
  Matrix a_et;  ///< (n+1)x(n+1) closed loop of mode ME
};
[[nodiscard]] SwitchedModes switched_modes(const DiscreteLti& plant,
                                           const Matrix& kt, const Matrix& ke);

}  // namespace ttdim::control
