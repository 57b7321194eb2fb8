// Unit and property tests for the linalg substrate.
#include <cmath>
#include <complex>
#include <random>
#include <stdexcept>

#include "gtest/gtest.h"
#include "linalg/eig.h"
#include "linalg/lyap.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace ttdim::linalg {
namespace {

Matrix random_matrix(Index rows, Index cols, unsigned seed, double scale = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-scale, scale);
  Matrix m(rows, cols);
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c) m(r, c) = dist(rng);
  return m;
}

/// Random matrix with spectral radius scaled below `rho`.
Matrix random_stable(Index n, unsigned seed, double rho = 0.9) {
  Matrix m = random_matrix(n, n, seed);
  const double sr = spectral_radius(m);
  if (sr > 0.0) m *= rho / sr;
  return m;
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
}

TEST(Matrix, RaggedInitializerRejected) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::logic_error);
}

TEST(Matrix, OutOfRangeAccessRejected) {
  const Matrix m(2, 2);
  EXPECT_THROW(static_cast<void>(m(2, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(m(0, -1)), std::logic_error);
}

TEST(Matrix, IdentityAndZero) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  EXPECT_TRUE(Matrix::zero(2, 3).approx_equal(Matrix(2, 3), 0.0));
}

TEST(Matrix, VectorAccessors) {
  const Matrix v = Matrix::column({1.0, 2.0, 3.0});
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.cols(), 1);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  const Matrix r = Matrix::row({4.0, 5.0});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_DOUBLE_EQ(r[1], 5.0);
  EXPECT_THROW(static_cast<void>(Matrix(2, 2)[0]),
               std::logic_error);  // not a vector
}

TEST(Matrix, Arithmetic) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_TRUE((a + b).approx_equal(Matrix{{6.0, 8.0}, {10.0, 12.0}}, 1e-15));
  EXPECT_TRUE((b - a).approx_equal(Matrix{{4.0, 4.0}, {4.0, 4.0}}, 1e-15));
  EXPECT_TRUE((a * 2.0).approx_equal(Matrix{{2.0, 4.0}, {6.0, 8.0}}, 1e-15));
  EXPECT_TRUE((2.0 * a).approx_equal(a * 2.0, 1e-15));
  EXPECT_TRUE((a / 2.0).approx_equal(Matrix{{0.5, 1.0}, {1.5, 2.0}}, 1e-15));
  EXPECT_TRUE((-a).approx_equal(a * -1.0, 1e-15));
}

TEST(Matrix, Product) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_TRUE((a * b).approx_equal(Matrix{{19.0, 22.0}, {43.0, 50.0}}, 1e-12));
  const Matrix v = Matrix::column({1.0, 1.0});
  EXPECT_TRUE((a * v).approx_equal(Matrix::column({3.0, 7.0}), 1e-12));
}

TEST(Matrix, ProductShapeMismatchRejected) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), std::logic_error);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(3, 5, 1);
  EXPECT_TRUE(a.transpose().transpose().approx_equal(a, 0.0));
}

TEST(Matrix, BlockAndSetBlock) {
  Matrix a(3, 3);
  a.set_block(1, 1, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 4.0);
  EXPECT_TRUE(a.block(1, 1, 2, 2).approx_equal(Matrix{{1.0, 2.0}, {3.0, 4.0}},
                                               0.0));
  EXPECT_THROW(a.block(2, 2, 2, 2), std::logic_error);
}

TEST(Matrix, StackingRoundTrip) {
  const Matrix a = random_matrix(2, 3, 2);
  const Matrix b = random_matrix(2, 3, 3);
  const Matrix v = a.vstack(b);
  EXPECT_EQ(v.rows(), 4);
  EXPECT_TRUE(v.block(2, 0, 2, 3).approx_equal(b, 0.0));
  const Matrix h = a.hstack(b);
  EXPECT_EQ(h.cols(), 6);
  EXPECT_TRUE(h.block(0, 3, 2, 3).approx_equal(b, 0.0));
}

TEST(Matrix, NormTraceDot) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.trace(), 7.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(
      Matrix::column({1.0, 2.0}).dot(Matrix::column({3.0, 4.0})), 11.0);
}

TEST(Matrix, SymmetryHelpers) {
  Matrix a{{1.0, 2.0}, {4.0, 3.0}};
  EXPECT_FALSE(a.is_symmetric());
  a.symmetrize();
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Matrix, KronSizesAndValues) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{0.0, 3.0}, {4.0, 5.0}};
  const Matrix k = kron(a, b);
  EXPECT_EQ(k.rows(), 2);
  EXPECT_EQ(k.cols(), 4);
  EXPECT_DOUBLE_EQ(k(1, 3), 2.0 * 5.0);
}

TEST(Matrix, VecUnvecRoundTrip) {
  const Matrix a = random_matrix(3, 4, 4);
  EXPECT_TRUE(unvec(vec(a), 3, 4).approx_equal(a, 0.0));
}

TEST(Matrix, KronVecIdentity) {
  // vec(A X B) == (B' (x) A) vec(X) — the identity dlyap relies on.
  const Matrix a = random_matrix(3, 3, 5);
  const Matrix x = random_matrix(3, 3, 6);
  const Matrix b = random_matrix(3, 3, 7);
  const Matrix lhs = vec(a * x * b);
  const Matrix rhs = kron(b.transpose(), a) * vec(x);
  EXPECT_TRUE(lhs.approx_equal(rhs, 1e-10));
}

// -------------------------------------------------------------------- Lu --

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Matrix b = Matrix::column({3.0, 5.0});
  const Matrix x = solve(a, b);
  EXPECT_TRUE((a * x).approx_equal(b, 1e-12));
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  for (unsigned seed : {10u, 11u, 12u, 13u}) {
    const Matrix a = random_matrix(4, 4, seed) + Matrix::identity(4) * 5.0;
    EXPECT_TRUE((a * inverse(a)).approx_equal(Matrix::identity(4), 1e-9))
        << "seed " << seed;
  }
}

TEST(Lu, SingularDetected) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const Lu f(a);
  EXPECT_TRUE(f.singular());
  EXPECT_THROW(f.solve(Matrix::column({1.0, 1.0})), std::domain_error);
  EXPECT_DOUBLE_EQ(determinant(a), 0.0);
}

TEST(Lu, DeterminantMatchesClosedForm) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(determinant(a), -2.0, 1e-12);
  const Matrix p{{0.0, 1.0}, {1.0, 0.0}};  // permutation, det -1
  EXPECT_NEAR(determinant(p), -1.0, 1e-12);
}

TEST(Lu, MultiColumnRhs) {
  const Matrix a = random_matrix(3, 3, 20) + Matrix::identity(3) * 4.0;
  const Matrix b = random_matrix(3, 2, 21);
  EXPECT_TRUE((a * solve(a, b)).approx_equal(b, 1e-10));
}

// -------------------------------------------------------------------- Qr --

TEST(Qr, Reconstructs) {
  const Matrix a = random_matrix(5, 3, 30);
  const Qr f = qr(a);
  EXPECT_TRUE((f.q * f.r).approx_equal(a, 1e-10));
  EXPECT_TRUE((f.q.transpose() * f.q).approx_equal(Matrix::identity(5), 1e-10));
}

TEST(Qr, UpperTriangular) {
  const Matrix a = random_matrix(4, 4, 31);
  const Qr f = qr(a);
  for (Index r = 1; r < 4; ++r)
    for (Index c = 0; c < r; ++c) EXPECT_DOUBLE_EQ(f.r(r, c), 0.0);
}

TEST(Qr, RankDetectsDeficiency) {
  Matrix a(3, 3);
  a.set_block(0, 0, Matrix{{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, {1.0, 0.0, 1.0}});
  EXPECT_EQ(rank(a), 2);
  EXPECT_EQ(rank(Matrix::identity(3)), 3);
  EXPECT_EQ(rank(Matrix(3, 3)), 0);
}

TEST(Qr, RankOfWideMatrix) {
  const Matrix a{{1.0, 0.0, 2.0, 0.0}, {0.0, 1.0, 0.0, 3.0}};
  EXPECT_EQ(rank(a), 2);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  const Matrix a = random_matrix(6, 3, 32);
  const Matrix b = random_matrix(6, 1, 33);
  const Matrix x = lstsq(a, b);
  const Matrix xn = solve(a.transpose() * a, a.transpose() * b);
  EXPECT_TRUE(x.approx_equal(xn, 1e-8));
}

// ------------------------------------------------------------------- Eig --

TEST(Eig, DiagonalMatrix) {
  const Matrix a{{2.0, 0.0}, {0.0, -3.0}};
  auto ev = eigenvalues(a);
  std::sort(ev.begin(), ev.end(),
            [](auto l, auto r) { return l.real() < r.real(); });
  EXPECT_NEAR(ev[0].real(), -3.0, 1e-10);
  EXPECT_NEAR(ev[1].real(), 2.0, 1e-10);
}

TEST(Eig, ComplexPair) {
  // Rotation-scaling: eigenvalues 0.5 +- 0.5i.
  const Matrix a{{0.5, -0.5}, {0.5, 0.5}};
  auto ev = eigenvalues(a);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NEAR(std::abs(ev[0]), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(ev[0].real(), 0.5, 1e-10);
  EXPECT_NEAR(std::abs(ev[0].imag()), 0.5, 1e-10);
}

TEST(Eig, TraceAndDeterminantConsistency) {
  for (unsigned seed : {40u, 41u, 42u, 43u, 44u}) {
    const Matrix a = random_matrix(4, 4, seed);
    const auto ev = eigenvalues(a);
    std::complex<double> sum{0.0, 0.0};
    std::complex<double> prod{1.0, 0.0};
    for (const auto& l : ev) {
      sum += l;
      prod *= l;
    }
    EXPECT_NEAR(sum.real(), a.trace(), 1e-8) << "seed " << seed;
    EXPECT_NEAR(sum.imag(), 0.0, 1e-8) << "seed " << seed;
    EXPECT_NEAR(prod.real(), determinant(a), 1e-8) << "seed " << seed;
  }
}

TEST(Eig, DefectiveJordanBlock) {
  const Matrix a{{1.0, 1.0}, {0.0, 1.0}};
  const auto ev = eigenvalues(a);
  for (const auto& l : ev) EXPECT_NEAR(std::abs(l - 1.0), 0.0, 1e-6);
}

TEST(Eig, SpectralRadiusAndStability) {
  const Matrix stable{{0.5, 0.2}, {0.0, 0.3}};
  EXPECT_NEAR(spectral_radius(stable), 0.5, 1e-10);
  EXPECT_TRUE(is_schur_stable(stable));
  const Matrix unstable{{1.1, 0.0}, {0.0, 0.2}};
  EXPECT_FALSE(is_schur_stable(unstable));
  EXPECT_FALSE(is_schur_stable(stable, 0.6));  // margin too demanding
}

TEST(Eig, PaperPlantC1OpenLoopPoles) {
  // Open-loop DC-motor plant of Eq. (6): one pole at exactly 1 (integrator).
  const Matrix phi{{1.0, 0.0182, 0.0068},
                   {0.0, 0.7664, 0.5186},
                   {0.0, -0.3260, 0.1011}};
  const auto ev = eigenvalues(phi);
  double closest_to_one = 1e9;
  for (const auto& l : ev)
    closest_to_one = std::min(closest_to_one, std::abs(l - 1.0));
  EXPECT_NEAR(closest_to_one, 0.0, 1e-9);
}

TEST(Eig, PolyFromRootsExpandsCorrectly) {
  // (s-1)(s-2) = s^2 - 3 s + 2
  const auto c = poly_from_roots({{1.0, 0.0}, {2.0, 0.0}});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], -3.0, 1e-12);
  EXPECT_NEAR(c[1], 2.0, 1e-12);
}

TEST(Eig, PolyFromConjugateRoots) {
  // (s-(1+i))(s-(1-i)) = s^2 - 2 s + 2
  const auto c = poly_from_roots({{1.0, 1.0}, {1.0, -1.0}});
  EXPECT_NEAR(c[0], -2.0, 1e-12);
  EXPECT_NEAR(c[1], 2.0, 1e-12);
}

TEST(Eig, PolyFromUnbalancedComplexRootsRejected) {
  EXPECT_THROW(poly_from_roots({{1.0, 1.0}}), std::domain_error);
}

TEST(Eig, CayleyHamilton) {
  // p(A) = 0 when p is A's characteristic polynomial.
  const Matrix a = random_matrix(3, 3, 50);
  const auto coeffs = poly_from_roots(eigenvalues(a));
  EXPECT_LT(polyvalm(coeffs, a).max_abs(), 1e-7);
}

// ------------------------------------------------------------------ Lyap --

TEST(Lyap, SolvesResidualToZero) {
  for (unsigned seed : {60u, 61u, 62u}) {
    const Matrix a = random_stable(3, seed);
    const Matrix q = Matrix::identity(3);
    const Matrix p = dlyap(a, q);
    const Matrix residual = a.transpose() * p * a - p + q;
    EXPECT_LT(residual.max_abs(), 1e-9) << "seed " << seed;
    EXPECT_TRUE(is_positive_definite(p)) << "seed " << seed;
  }
}

TEST(Lyap, RejectsSingularOperator) {
  // a with eigenvalue 1 makes A'(x)A' - I singular.
  const Matrix a = Matrix::identity(2);
  EXPECT_THROW(dlyap(a, Matrix::identity(2)), std::domain_error);
}

TEST(Lyap, PositiveDefiniteChecks) {
  EXPECT_TRUE(is_positive_definite(Matrix{{2.0, 0.0}, {0.0, 1.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{1.0, 0.0}, {0.0, -1.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{0.0, 0.0}, {0.0, 0.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{1.0, 5.0}, {-5.0, 1.0}}));
}

TEST(Lyap, CommonLyapunovForCommutingStablePair) {
  // Two stable diagonal matrices always share a CQLF.
  const Matrix a1{{0.5, 0.0}, {0.0, 0.2}};
  const Matrix a2{{0.1, 0.0}, {0.0, 0.8}};
  const CommonLyapunov res = find_common_lyapunov(a1, a2);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(certifies_decrease(a1, res.p));
  EXPECT_TRUE(certifies_decrease(a2, res.p));
}

TEST(Lyap, CommonLyapunovRejectsUnstableMember) {
  const Matrix a1{{0.5, 0.0}, {0.0, 0.2}};
  const Matrix a2{{1.2, 0.0}, {0.0, 0.5}};
  EXPECT_FALSE(find_common_lyapunov(a1, a2).found);
}

TEST(Lyap, NoCommonLyapunovWhenProductUnstable) {
  // Both matrices are nilpotent, hence Schur stable, but a CQLF would make
  // their product contractive too, and a1 a2 has spectral radius 4.
  const Matrix a1{{0.0, 2.0}, {0.0, 0.0}};
  const Matrix a2{{0.0, 0.0}, {2.0, 0.0}};
  ASSERT_NEAR(spectral_radius(a1 * a2), 4.0, 1e-12);
  EXPECT_FALSE(find_common_lyapunov(a1, a2).found);
}

TEST(Lyap, CommonLyapunovFoundWheneverASimpleCandidateCertifies) {
  // The LMI decision never does worse than the first dlyap candidates:
  // whenever dlyap(a1, I), dlyap(a2, I) or their average certifies both
  // matrices, a certificate is found, and every returned certificate
  // passes the same check.
  const auto certifies = [](const Matrix& a1, const Matrix& a2,
                            const Matrix& p) {
    return is_positive_definite(p) && certifies_decrease(a1, p) &&
           certifies_decrease(a2, p);
  };
  int simple_pairs = 0;
  for (unsigned seed = 1; seed <= 24; ++seed) {
    for (const Index n : {Index{3}, Index{4}}) {
      const Matrix a1 = random_stable(n, seed, 0.7);
      const Matrix a2 = random_stable(n, seed + 1000, 0.7);
      const Matrix p1 = dlyap(a1, Matrix::identity(n));
      const Matrix p2 = dlyap(a2, Matrix::identity(n));
      const bool simple = certifies(a1, a2, p1) || certifies(a1, a2, p2) ||
                          certifies(a1, a2, (p1 + p2) * 0.5);
      const CommonLyapunov res = find_common_lyapunov(a1, a2);
      if (simple) {
        ++simple_pairs;
        EXPECT_TRUE(res.found) << "seed " << seed << " n " << n;
      }
      if (res.found) {
        EXPECT_TRUE(certifies(a1, a2, res.p)) << "seed " << seed << " n " << n;
      }
    }
  }
  EXPECT_GT(simple_pairs, 10);  // the property is not vacuous
}

class LyapProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LyapProperty, DlyapSolutionIsPsdAndCertifies) {
  const Matrix a = random_stable(4, GetParam(), 0.85);
  const Matrix p = dlyap(a, Matrix::identity(4));
  EXPECT_TRUE(is_positive_definite(p));
  EXPECT_TRUE(certifies_decrease(a, p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LyapProperty,
                         ::testing::Values(100u, 101u, 102u, 103u, 104u, 105u,
                                           106u, 107u));

class EigProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EigProperty, SimilarityPreservesSpectrum) {
  const unsigned seed = GetParam();
  const Matrix a = random_matrix(4, 4, seed);
  const Matrix t = random_matrix(4, 4, seed + 1000) + Matrix::identity(4) * 3.0;
  const Matrix b = solve(t, a * t);  // T^{-1} A T
  auto ea = eigenvalues(a);
  auto eb = eigenvalues(b);
  // Greedy nearest matching (sorting complex conjugate pairs by (re, im)
  // is unstable when real parts agree only to machine precision).
  ASSERT_EQ(ea.size(), eb.size());
  for (const auto& la : ea) {
    double best = 1e18;
    size_t best_i = 0;
    for (size_t i = 0; i < eb.size(); ++i) {
      if (std::abs(la - eb[i]) < best) {
        best = std::abs(la - eb[i]);
        best_i = i;
      }
    }
    EXPECT_LT(best, 1e-6) << "seed " << seed;
    eb.erase(eb.begin() + static_cast<std::ptrdiff_t>(best_i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigProperty,
                         ::testing::Values(200u, 201u, 202u, 203u, 204u, 205u));

}  // namespace
}  // namespace ttdim::linalg
