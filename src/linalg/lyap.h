// Discrete-time Lyapunov machinery used for switching-stability analysis
// (paper Sec. 3, "Comments on switching stability").
#pragma once

#include "linalg/matrix.h"

namespace ttdim::linalg {

/// Solve the discrete Lyapunov equation  A' P A - P + Q = 0  for P via
/// Kronecker vectorisation: (A'(x)A' - I) vec(P) = -vec(Q). Q must be
/// symmetric; P is returned symmetrised. Throws std::domain_error when A
/// has reciprocal eigenvalue pairs (equation singular).
[[nodiscard]] Matrix dlyap(const Matrix& a, const Matrix& q);

/// Cholesky-based positive-definiteness test (symmetric input required).
[[nodiscard]] bool is_positive_definite(const Matrix& p, double tol = 1e-10);

/// Result of searching for a common quadratic Lyapunov function (CQLF) of
/// two discrete-time closed-loop matrices.
struct CommonLyapunov {
  bool found = false;
  Matrix p;  ///< valid iff found: P > 0 with Ai' P Ai - P < 0 for both Ai.
};

/// Search for P > 0 such that a1' P a1 - P < 0 and a2' P a2 - P < 0.
///
/// Method: candidate Ps are generated by solving dlyap for a1, for a2 and
/// for blends of the two solutions, then each candidate is certified
/// against both systems. This is a sufficient test (a full LMI solver is
/// out of scope); it succeeds on all switching-stable pairs in the paper's
/// case study and correctly rejects the unstable pair KT/KuE of Sec. 3.1.
[[nodiscard]] CommonLyapunov find_common_lyapunov(const Matrix& a1,
                                                  const Matrix& a2);

/// True when `p` certifies a' p a - p < 0 within `tol` (all eigenvalues of
/// the symmetrised decrement below -tol).
[[nodiscard]] bool certifies_decrease(const Matrix& a, const Matrix& p,
                                      double tol = 1e-9);

/// Resident size of the search result in bytes — byte-budget accounting
/// for caches holding certificates.
[[nodiscard]] std::size_t byte_cost(const CommonLyapunov& c);

/// Round-trip binary codec for disk-cached certificates. decode returns
/// false on malformed input and never throws.
void encode(support::codec::Encoder& enc, const CommonLyapunov& c);
[[nodiscard]] bool decode(support::codec::Decoder& dec, CommonLyapunov& c);

}  // namespace ttdim::linalg
