#include "linalg/lyap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "linalg/eig.h"
#include "linalg/solve.h"
#include "support/check.h"

namespace ttdim::linalg {

namespace {

/// Lower Cholesky factor `l` of the symmetric matrix `a`; false as soon as
/// a pivot is not above `floor`.
bool cholesky(const Matrix& a, double floor, Matrix& l) {
  const Index n = a.rows();
  l = Matrix(n, n);
  for (Index k = 0; k < n; ++k) {
    double d = a(k, k);
    for (Index j = 0; j < k; ++j) d -= l(k, j) * l(k, j);
    if (!(d > floor)) return false;
    const double s = std::sqrt(d);
    l(k, k) = s;
    for (Index i = k + 1; i < n; ++i) {
      double v = a(i, k);
      for (Index j = 0; j < k; ++j) v -= l(i, j) * l(k, j);
      l(i, k) = v / s;
    }
  }
  return true;
}

/// Solves l y = b by forward substitution (l lower triangular).
Matrix lower_solve(const Matrix& l, Matrix b) {
  for (Index c = 0; c < b.cols(); ++c)
    for (Index i = 0; i < l.rows(); ++i) {
      double v = b(i, c);
      for (Index j = 0; j < i; ++j) v -= l(i, j) * b(j, c);
      b(i, c) = v / l(i, i);
    }
  return b;
}

/// Solves (l l') x = b for a column b, given the Cholesky factor l.
Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  Matrix x = lower_solve(l, b);
  for (Index i = l.rows() - 1; i >= 0; --i) {
    double v = x[i];
    for (Index j = i + 1; j < l.rows(); ++j) v -= l(j, i) * x[j];
    x[i] = v / l(i, i);
  }
  return x;
}

/// The CQLF decision as a small semidefinite program over
/// x = (the upper triangle of a symmetric P, row by row; t):
///   maximise t  subject to  F_k(x) >= 0  for
///   F_0 = P - tI,  F_1 = P - a1' P a1 - tI,  F_2 = P - a2' P a2 - tI,
///   F_3 = I - P.
/// F_3 normalises the homogeneous cone, so a strict CQLF exists iff the
/// optimum t* is positive (Boyd, El Ghaoui, Feron & Balakrishnan, "LMIs
/// in System and Control Theory", SIAM 1994, ch. 5).
class CqlfLmi {
 public:
  static constexpr int kBlocks = 4;

  CqlfLmi(const Matrix& a1, const Matrix& a2)
      : a1_(a1), a2_(a2), n_(a1.rows()), vars_(n_ * (n_ + 1) / 2 + 1) {
    // Every F_k is affine in x, so its derivative along x_v is exactly
    // F_k(e_v) - F_k(0).
    const Matrix origin(vars_, 1);
    for (int k = 0; k < kBlocks; ++k) {
      const Matrix f0 = block(k, origin);
      for (Index v = 0; v < vars_; ++v) {
        Matrix e(vars_, 1);
        e[v] = 1.0;
        slopes_[k].push_back(block(k, e) - f0);
      }
    }
  }

  [[nodiscard]] Index vars() const { return vars_; }

  [[nodiscard]] Matrix p_of(const Matrix& x) const {
    Matrix p(n_, n_);
    Index v = 0;
    for (Index i = 0; i < n_; ++i)
      for (Index j = i; j < n_; ++j) p(i, j) = p(j, i) = x[v++];
    return p;
  }

  [[nodiscard]] static double t_of(const Matrix& x) {
    return x[x.rows() - 1];
  }

  [[nodiscard]] Matrix block(int k, const Matrix& x) const {
    const Matrix p = p_of(x);
    const Matrix t_id = Matrix::identity(n_) * t_of(x);
    switch (k) {
      case 0: return p - t_id;
      case 1: return p - a1_.transpose() * p * a1_ - t_id;
      case 2: return p - a2_.transpose() * p * a2_ - t_id;
      default: return Matrix::identity(n_) - p;
    }
  }

  /// True when every block is Cholesky-positive at x.
  [[nodiscard]] bool interior(const Matrix& x) const {
    Matrix l;
    for (int k = 0; k < kBlocks; ++k)
      if (!cholesky(block(k, x), 0.0, l)) return false;
    return true;
  }

  /// Newton direction `dx` of  -mu t - sum_k log det F_k(x)  at an interior
  /// x, and its squared Newton decrement. False when the Hessian is not
  /// numerically positive definite.
  bool newton(const Matrix& x, double mu, Matrix& dx,
              double& decrement2) const {
    Matrix grad(vars_, 1);
    grad[vars_ - 1] = -mu;
    Matrix hess(vars_, vars_);
    std::vector<Matrix> s(static_cast<std::size_t>(vars_));
    for (int k = 0; k < kBlocks; ++k) {
      Matrix l;
      if (!cholesky(block(k, x), 0.0, l)) return false;
      // With F_k = L L' and S_v = L^-1 (dF_k/dx_v) L^-T, the barrier term
      // contributes -tr S_v to the gradient and <S_v, S_w> to the Hessian.
      for (Index v = 0; v < vars_; ++v) {
        Matrix& sv = s[static_cast<std::size_t>(v)];
        const Matrix& slope = slopes_[k][static_cast<std::size_t>(v)];
        sv = lower_solve(l, lower_solve(l, slope).transpose());
        grad[v] -= sv.trace();
        for (Index w = 0; w <= v; ++w) {
          const Matrix& sw = s[static_cast<std::size_t>(w)];
          hess(v, w) += std::inner_product(sv.data().begin(), sv.data().end(),
                                           sw.data().begin(), 0.0);
        }
      }
    }
    for (Index v = 0; v < vars_; ++v)
      for (Index w = v + 1; w < vars_; ++w) hess(v, w) = hess(w, v);
    Matrix lh;
    if (!cholesky(hess, 0.0, lh)) return false;
    dx = -cholesky_solve(lh, grad);
    decrement2 = -grad.dot(dx);
    return std::isfinite(decrement2);
  }

 private:
  const Matrix& a1_;
  const Matrix& a2_;
  Index n_;
  Index vars_;
  std::array<std::vector<Matrix>, kBlocks> slopes_;
};

}  // namespace

Matrix dlyap(const Matrix& a, const Matrix& q) {
  TTDIM_EXPECTS(a.is_square() && q.is_square() && a.rows() == q.rows());
  TTDIM_EXPECTS(q.is_symmetric(1e-9));
  const Index n = a.rows();
  const Matrix at = a.transpose();
  const Matrix lhs = kron(at, at) - Matrix::identity(n * n);
  Matrix p;
  try {
    p = unvec(solve(lhs, -vec(q)), n, n);
  } catch (const std::domain_error&) {
    throw std::domain_error(
        "dlyap: singular Lyapunov operator (reciprocal eigenvalue pair)");
  }
  p.symmetrize();
  return p;
}

bool is_positive_definite(const Matrix& p, double tol) {
  TTDIM_EXPECTS(p.is_square());
  if (!p.is_symmetric(1e-8 * std::max(1.0, p.max_abs()))) return false;
  Matrix l;
  return cholesky(p, tol * std::max(1.0, p.max_abs()), l);
}

bool certifies_decrease(const Matrix& a, const Matrix& p, double tol) {
  Matrix dec = p - a.transpose() * p * a;  // must be positive definite
  dec.symmetrize();
  return is_positive_definite(dec, tol);
}

CommonLyapunov find_common_lyapunov(const Matrix& a1, const Matrix& a2) {
  TTDIM_EXPECTS(a1.is_square() && a2.is_square() && a1.rows() == a2.rows());
  const Index n = a1.rows();
  // A CQLF requires each mode to be Schur stable on its own.
  if (!is_schur_stable(a1) || !is_schur_stable(a2)) return {};

  // Strictly feasible start: P = I/4, and t one below the smallest
  // eigenvalue of the three blocks that contain it.
  const CqlfLmi lmi(a1, a2);
  Matrix x(lmi.vars(), 1);
  for (Index i = 0, v = 0; i < n; v += n - i, ++i) x[v] = 0.25;  // P(i, i)
  double lowest = 0.25;
  for (int k = 0; k < 3; ++k)  // F_0, F_1, F_2
    for (const std::complex<double>& e : eigenvalues(lmi.block(k, x)))
      lowest = std::min(lowest, e.real());
  x[lmi.vars() - 1] = lowest - 1.0;

  // Barrier method: centre -mu t - sum log det F_k by damped Newton, then
  // raise mu tenfold. The step 1/(1 + decrement) keeps a self-concordant
  // barrier interior in exact arithmetic; halving guards the rounding.
  constexpr double kGapFloor = 1e-12;  // not found once 4n/mu drops below
  constexpr double kCentred = 1e-6;    // squared decrement of a centred x
  constexpr int kMaxCentringSteps = 100;
  double mu = 1.0;
  while (4.0 * static_cast<double>(n) / mu >= kGapFloor) {
    for (int step = 0;; ++step) {
      Matrix dx;
      double decrement2 = 0.0;
      if (step == kMaxCentringSteps || !lmi.newton(x, mu, dx, decrement2))
        return {};
      if (decrement2 <= kCentred) break;
      double alpha = 1.0 / (1.0 + std::sqrt(decrement2));
      Matrix next = x + dx * alpha;
      while (!lmi.interior(next)) {
        alpha *= 0.5;
        if (alpha < 1e-12) return {};
        next = x + dx * alpha;
      }
      x = std::move(next);
      if (CqlfLmi::t_of(x) <= 0.0) continue;
      Matrix p = lmi.p_of(x);
      if (is_positive_definite(p) && certifies_decrease(a1, p) &&
          certifies_decrease(a2, p))
        return {true, std::move(p)};
    }
    mu *= 10.0;
  }
  return {};
}

std::size_t byte_cost(const CommonLyapunov& c) {
  return sizeof(CommonLyapunov) - sizeof(Matrix) + byte_cost(c.p);
}

void encode(support::codec::Encoder& enc, const CommonLyapunov& c) {
  enc.u8(c.found ? 1 : 0);
  encode(enc, c.p);
}

bool decode(support::codec::Decoder& dec, CommonLyapunov& c) {
  c = CommonLyapunov{};
  std::uint8_t found = 0;
  if (!dec.u8(found) || found > 1) return false;
  if (!decode(dec, c.p)) return false;
  // "P valid iff found": a certificate is a non-empty square matrix, and
  // a miss carries none.
  const bool certificate = !c.p.empty() && c.p.is_square();
  if (found != 0 ? !certificate : !c.p.empty()) {
    c = CommonLyapunov{};
    return false;
  }
  c.found = found != 0;
  return true;
}

}  // namespace ttdim::linalg
