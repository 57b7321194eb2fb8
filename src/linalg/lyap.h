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

/// Result of deciding on a common quadratic Lyapunov function (CQLF) of
/// two discrete-time closed-loop matrices.
struct CommonLyapunov {
  bool found = false;
  Matrix p;  ///< valid iff found: P > 0 with Ai' P Ai - P < 0 for both Ai.
};

/// Decide whether some P > 0 has a1' P a1 - P < 0 and a2' P a2 - P < 0.
///
/// Method: the LMI  maximise t  s.t.  P - tI >= 0,  P - ai' P ai - tI >= 0
/// (i = 1, 2),  I - P >= 0,  over the n(n+1)/2 entries of P and t. The
/// last block normalises the homogeneous cone, so a strict CQLF exists
/// iff t* > 0. A log-barrier method solves it deterministically: from
/// P = I/4 and t one below the smallest eigenvalue of the t-blocks,
/// damped Newton steps centre  -mu t - sum log det(block)  (blocks kept
/// Cholesky-positive by backtracking), then mu grows tenfold. It stops
/// with found as soon as t > 0 and P passes is_positive_definite and
/// certifies_decrease for both matrices (their default tolerances), and
/// with not found once the barrier gap 4n/mu drops below 1e-12, or
/// earlier if Newton stalls numerically (a Newton system that is not
/// positive definite, a centring past 100 steps, a step halved below
/// 1e-12). Not found
/// therefore means "not certified": either no CQLF exists, or its margin
/// t* is below what the certificate check resolves. The paper's KT/KuE
/// pair of Sec. 3.1 is rejected (t* = 0 to working precision); case-study
/// pairs C1-C5 are certified, and C6's margin (t* ~ 1e-9) sits at the
/// certificate tolerance. A non-Schur-stable member is rejected without a
/// solve.
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
/// false on malformed input — including a found flag without a non-empty
/// square P, or a P without the flag — and never throws.
void encode(support::codec::Encoder& enc, const CommonLyapunov& c);
[[nodiscard]] bool decode(support::codec::Decoder& dec, CommonLyapunov& c);

}  // namespace ttdim::linalg
