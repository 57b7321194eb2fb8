#include "linalg/lyap.h"

#include <cmath>
#include <stdexcept>

#include "linalg/eig.h"
#include "linalg/solve.h"
#include "support/check.h"

namespace ttdim::linalg {

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
  // In-place Cholesky; failure of any pivot means not PD.
  const Index n = p.rows();
  Matrix l = p;
  for (Index k = 0; k < n; ++k) {
    double d = l(k, k);
    for (Index j = 0; j < k; ++j) d -= l(k, j) * l(k, j);
    if (d <= tol * std::max(1.0, p.max_abs())) return false;
    const double s = std::sqrt(d);
    l(k, k) = s;
    for (Index i = k + 1; i < n; ++i) {
      double v = l(i, k);
      for (Index j = 0; j < k; ++j) v -= l(i, j) * l(k, j);
      l(i, k) = v / s;
    }
  }
  return true;
}

bool certifies_decrease(const Matrix& a, const Matrix& p, double tol) {
  Matrix dec = p - a.transpose() * p * a;  // must be positive definite
  dec.symmetrize();
  return is_positive_definite(dec, tol);
}

namespace {

/// Dimension cap of the allocation-free subgradient phase below; larger
/// problems use the Matrix-based loop. The paper's augmented closed loops
/// are at most 4x4.
constexpr Index kFlatN = 6;

/// Jacobi eigensolver on flat storage, arithmetically identical to
/// sym_eig() (same sweep limit, thresholds, rotation order and term
/// order) so the subgradient iterates below match the Matrix path bit
/// for bit.
void flat_sym_eig(const double (&f)[kFlatN][kFlatN], Index n,
                  double (&values)[kFlatN], double (&vectors)[kFlatN][kFlatN]) {
  double m[kFlatN][kFlatN];
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) m[r][c] = f[r][c];
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) vectors[r][c] = (r == c) ? 1.0 : 0.0;
  for (int sweep = 0; sweep < 128; ++sweep) {
    double off = 0.0;
    for (Index i = 0; i < n; ++i)
      for (Index j = i + 1; j < n; ++j) off += m[i][j] * m[i][j];
    double ma = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) ma = std::max(ma, std::abs(m[r][c]));
    if (off < 1e-24 * std::max(1.0, ma * ma)) break;
    for (Index p = 0; p < n; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        if (std::abs(m[p][q]) < 1e-18) continue;
        const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (Index k = 0; k < n; ++k) {
          const double mkp = m[k][p];
          const double mkq = m[k][q];
          m[k][p] = c * mkp - s * mkq;
          m[k][q] = s * mkp + c * mkq;
        }
        for (Index k = 0; k < n; ++k) {
          const double mpk = m[p][k];
          const double mqk = m[q][k];
          m[p][k] = c * mpk - s * mqk;
          m[q][k] = s * mpk + c * mqk;
        }
        for (Index k = 0; k < n; ++k) {
          const double vkp = vectors[k][p];
          const double vkq = vectors[k][q];
          vectors[k][p] = c * vkp - s * vkq;
          vectors[k][q] = s * vkp + c * vkq;
        }
      }
    }
  }
  for (Index i = 0; i < n; ++i) values[i] = m[i][i];
}

/// The subgradient feasibility phase of find_common_lyapunov on flat
/// storage: every arithmetic step mirrors the Matrix operator chain of the
/// reference loop (documented there), so `best` is the exact same iterate
/// — only the per-iteration heap traffic is gone. Returns the best iterate
/// found within the budget.
Matrix flat_subgradient_phase(const Matrix& a1m, const Matrix& a2m,
                              const Matrix& p0, double eps) {
  const Index n = a1m.rows();
  TTDIM_EXPECTS(n <= kFlatN);
  double a1[kFlatN][kFlatN], a2[kFlatN][kFlatN];
  double p[kFlatN][kFlatN], best[kFlatN][kFlatN];
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) {
      a1[r][c] = a1m(r, c);
      a2[r][c] = a2m(r, c);
      p[r][c] = p0(r, c);
      best[r][c] = p0(r, c);
    }
  double best_violation = 1e18;
  double grad[kFlatN][kFlatN] = {};
  for (int it = 0; it < 40000; ++it) {
    double worst = -1e18;
    for (int m = 0; m < 3; ++m) {
      // f = p (m == 0) or p - a' p a, symmetrized. The products replicate
      // Matrix operator*'s left association and exact-zero-entry skip.
      double f[kFlatN][kFlatN];
      if (m == 0) {
        for (Index r = 0; r < n; ++r)
          for (Index c = 0; c < n; ++c) f[r][c] = p[r][c];
      } else {
        const auto& a = (m == 1) ? a1 : a2;
        double t1[kFlatN][kFlatN];  // a' * p
        for (Index r = 0; r < n; ++r) {
          for (Index c = 0; c < n; ++c) t1[r][c] = 0.0;
          for (Index k = 0; k < n; ++k) {
            const double x = a[k][r];  // at(r, k)
            if (x == 0.0) continue;
            for (Index c = 0; c < n; ++c) t1[r][c] += x * p[k][c];
          }
        }
        for (Index r = 0; r < n; ++r) {
          for (Index c = 0; c < n; ++c) f[r][c] = 0.0;
          for (Index k = 0; k < n; ++k) {
            const double x = t1[r][k];
            if (x == 0.0) continue;
            for (Index c = 0; c < n; ++c) f[r][c] += x * a[k][c];
          }
          for (Index c = 0; c < n; ++c) f[r][c] = p[r][c] - f[r][c];
        }
      }
      for (Index r = 0; r < n; ++r)
        for (Index c = r + 1; c < n; ++c) {
          const double avg = 0.5 * (f[r][c] + f[c][r]);
          f[r][c] = avg;
          f[c][r] = avg;
        }
      double values[kFlatN] = {};
      double vectors[kFlatN][kFlatN] = {};
      flat_sym_eig(f, n, values, vectors);
      Index mi = 0;
      for (Index i = 1; i < n; ++i)
        if (values[i] < values[mi]) mi = i;
      const double violation = eps - values[mi];
      if (violation > worst) {
        worst = violation;
        double v[kFlatN];
        for (Index k = 0; k < n; ++k) v[k] = vectors[k][mi];
        // grad = v v'  (rows with v(r) == 0 stay zero, as in operator*).
        for (Index r = 0; r < n; ++r)
          for (Index c = 0; c < n; ++c)
            grad[r][c] = (v[r] == 0.0) ? 0.0 : 0.0 + v[r] * v[c];
        if (m > 0) {
          const auto& a = (m == 1) ? a1 : a2;
          double av[kFlatN];
          for (Index r = 0; r < n; ++r) {
            av[r] = 0.0;
            for (Index k = 0; k < n; ++k) {
              const double x = a[r][k];
              if (x == 0.0) continue;
              av[r] += x * v[k];
            }
          }
          for (Index r = 0; r < n; ++r)
            for (Index c = 0; c < n; ++c)
              grad[r][c] -= (av[r] == 0.0) ? 0.0 : 0.0 + av[r] * av[c];
        }
      }
    }
    if (worst < best_violation) {
      best_violation = worst;
      for (Index r = 0; r < n; ++r)
        for (Index c = 0; c < n; ++c) best[r][c] = p[r][c];
    }
    if (worst <= 0.0) break;
    double sq = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) sq += grad[r][c] * grad[r][c];
    const double nrm = std::sqrt(sq);
    const double g2 = nrm * nrm;
    const double step = 0.5 * worst / std::max(1.0, g2);
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) p[r][c] += grad[r][c] * step;
    for (Index r = 0; r < n; ++r)
      for (Index c = r + 1; c < n; ++c) {
        const double avg = 0.5 * (p[r][c] + p[c][r]);
        p[r][c] = avg;
        p[c][r] = avg;
      }
    double scale = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) scale = std::max(scale, std::abs(p[r][c]));
    if (scale > 0.0)
      for (Index r = 0; r < n; ++r)
        for (Index c = 0; c < n; ++c) p[r][c] /= scale;
  }
  Matrix out(n, n);
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) out(r, c) = best[r][c];
  return out;
}

}  // namespace

CommonLyapunov find_common_lyapunov(const Matrix& a1, const Matrix& a2) {
  TTDIM_EXPECTS(a1.is_square() && a2.is_square() && a1.rows() == a2.rows());
  const Index n = a1.rows();
  // A CQLF requires each mode to be Schur stable on its own.
  if (!is_schur_stable(a1) || !is_schur_stable(a2)) return {};

  const Matrix q = Matrix::identity(n);
  std::vector<Matrix> candidates;
  const Matrix p1 = dlyap(a1, q);
  const Matrix p2 = dlyap(a2, q);
  candidates.push_back(p1);
  candidates.push_back(p2);
  for (double w : {0.5, 0.25, 0.75, 0.1, 0.9})
    candidates.push_back(p1 * w + p2 * (1.0 - w));
  // Blended-operator candidates: solve
  //   t (a1' P a1 - P) + (1-t) (a2' P a2 - P) = -I
  // for a grid of t. The solution moves continuously between the two
  // single-mode Lyapunov solutions and frequently lands inside the CQLF
  // cone when it is non-empty (sufficient search; no full LMI solver).
  const Matrix at1 = a1.transpose();
  const Matrix at2 = a2.transpose();
  const Matrix op1 = kron(at1, at1) - Matrix::identity(n * n);
  const Matrix op2 = kron(at2, at2) - Matrix::identity(n * n);
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    try {
      Matrix cand = unvec(solve(op1 * t + op2 * (1.0 - t), -vec(q)), n, n);
      cand.symmetrize();
      candidates.push_back(std::move(cand));
    } catch (const std::domain_error&) {
      // Singular blend: skip this grid point.
    }
  }
  for (const Matrix& cand : candidates) {
    if (!is_positive_definite(cand)) continue;
    if (certifies_decrease(a1, cand) && certifies_decrease(a2, cand))
      return {true, cand};
  }

  // Subgradient feasibility phase. Minimise the worst constraint violation
  //   f(P) = max_i  eps - lambda_min(F_i(P)),
  //   F_0 = P,  F_1 = P - a1' P a1,  F_2 = P - a2' P a2,
  // moving P along the eigenvector subgradient of the active constraint.
  // This finds certificates that sit close to the boundary of the CQLF
  // cone (the paper's KsE/KT pair is such a case). Deterministic; bails
  // out after a fixed iteration budget.
  const double eps = 1e-4;
  Matrix p = dlyap(a2, q);
  p /= p.max_abs();
  if (n <= kFlatN) {
    // Allocation-free replica of the loop below (flat_subgradient_phase is
    // arithmetically identical); the reference Matrix loop remains for
    // larger systems and as executable documentation.
    const Matrix best_flat = flat_subgradient_phase(a1, a2, p, eps);
    if (is_positive_definite(best_flat) && certifies_decrease(a1, best_flat) &&
        certifies_decrease(a2, best_flat))
      return {true, best_flat};
    return {};
  }
  Matrix best = p;
  double best_violation = 1e18;
  for (int it = 0; it < 40000; ++it) {
    double worst = -1e18;
    Matrix grad(n, n);
    for (int m = 0; m < 3; ++m) {
      Matrix f = p;
      if (m > 0) {
        const Matrix& a = (m == 1) ? a1 : a2;
        f = p - a.transpose() * p * a;
      }
      f.symmetrize();
      const SymEig e = sym_eig(f);
      Index mi = 0;
      for (Index i = 1; i < n; ++i)
        if (e.values[static_cast<size_t>(i)] <
            e.values[static_cast<size_t>(mi)])
          mi = i;
      const double violation = eps - e.values[static_cast<size_t>(mi)];
      if (violation > worst) {
        worst = violation;
        const Matrix v = e.vectors.col_at(mi);
        if (m == 0) {
          grad = v * v.transpose();
        } else {
          const Matrix& a = (m == 1) ? a1 : a2;
          const Matrix av = a * v;
          grad = v * v.transpose() - av * av.transpose();
        }
      }
    }
    if (worst < best_violation) {
      best_violation = worst;
      best = p;
    }
    if (worst <= 0.0) break;
    const double g2 = grad.norm() * grad.norm();
    p += grad * (0.5 * worst / std::max(1.0, g2));
    p.symmetrize();
    const double scale = p.max_abs();
    if (scale > 0.0) p /= scale;
  }
  if (is_positive_definite(best) && certifies_decrease(a1, best) &&
      certifies_decrease(a2, best))
    return {true, best};
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
  c.found = found != 0;
  return true;
}

}  // namespace ttdim::linalg
