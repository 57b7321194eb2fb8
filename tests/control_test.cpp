// Tests for the control substrate: LTI models, simulation, settling-time
// measurement, pole placement, LQR and switching stability — anchored on
// the paper's numbers wherever the paper states them.
#include <cmath>
#include <stdexcept>

#include "casestudy/apps.h"
#include "control/design.h"
#include "control/lti.h"
#include "control/sim.h"
#include "gtest/gtest.h"
#include "linalg/eig.h"

namespace ttdim::control {
namespace {

using casestudy::kSamplingPeriod;
using casestudy::kSettlingTol;

DiscreteLti double_integrator() {
  // x+ = [1 h; 0 1] x + [h^2/2; h] u, y = x1, h = 0.1
  return DiscreteLti(Matrix{{1.0, 0.1}, {0.0, 1.0}},
                     Matrix{{0.005}, {0.1}}, Matrix{{1.0, 0.0}}, 0.1);
}

// ------------------------------------------------------------------- Lti --

TEST(Lti, ShapeValidation) {
  EXPECT_THROW(DiscreteLti(Matrix(2, 3), Matrix(2, 1), Matrix(1, 2), 0.01),
               std::logic_error);
  EXPECT_THROW(DiscreteLti(Matrix::identity(2), Matrix(3, 1), Matrix(1, 2),
                           0.01),
               std::logic_error);
  EXPECT_THROW(DiscreteLti(Matrix::identity(2), Matrix(2, 1), Matrix(1, 3),
                           0.01),
               std::logic_error);
  EXPECT_THROW(DiscreteLti(Matrix::identity(2), Matrix(2, 1), Matrix(1, 2),
                           0.0),
               std::logic_error);
}

TEST(Lti, AugmentedDelayModelShape) {
  const DiscreteLti aug = double_integrator().augmented_delay_model();
  EXPECT_EQ(aug.n_states(), 3);
  EXPECT_EQ(aug.n_inputs(), 1);
  // z+ = [phi gamma; 0 0] z + [0; 1] u
  EXPECT_DOUBLE_EQ(aug.phi()(0, 2), 0.005);
  EXPECT_DOUBLE_EQ(aug.phi()(1, 2), 0.1);
  EXPECT_DOUBLE_EQ(aug.phi()(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(aug.gamma()(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(aug.gamma()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(aug.c()(0, 2), 0.0);
}

TEST(Lti, UnitOutputState) {
  const DiscreteLti plant = casestudy::dc_motor_position_plant();
  const Matrix x0 = plant.unit_output_state();
  EXPECT_NEAR((plant.c() * x0)(0, 0), 1.0, 1e-12);
  // For c = [1 0 0] the minimum-norm solution is e1 — the paper's
  // disturbed state of Sec. 3.1.
  EXPECT_NEAR(x0(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x0(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(x0(2, 0), 0.0, 1e-12);
}

TEST(Lti, ClosedLoopMatchesHandComputation) {
  const DiscreteLti p = double_integrator();
  const Matrix k{{2.0, 3.0}};
  const Matrix acl = closed_loop(p, k);
  EXPECT_NEAR(acl(0, 0), 1.0 - 0.005 * 2.0, 1e-15);
  EXPECT_NEAR(acl(0, 1), 0.1 - 0.005 * 3.0, 1e-15);
  EXPECT_NEAR(acl(1, 0), -0.1 * 2.0, 1e-15);
  EXPECT_NEAR(acl(1, 1), 1.0 - 0.1 * 3.0, 1e-15);
}

TEST(Lti, SwitchedModesAgreeWithStepFunctions) {
  // Iterating the augmented mode matrices must reproduce step_tt/step_et.
  const casestudy::App app = casestudy::c1();
  const SwitchedModes modes = switched_modes(app.plant, app.kt, app.ke);
  const SwitchedLoop loop(app.plant, app.kt, app.ke);

  LoopState s = loop.disturbed_state();
  Matrix z = s.x.vstack(Matrix{{s.u_prev}});
  for (int k = 0; k < 5; ++k) {
    loop.step_et(s);
    z = modes.a_et * z;
  }
  for (int k = 0; k < 5; ++k) {
    loop.step_tt(s);
    z = modes.a_tt * z;
  }
  for (int k = 0; k < 5; ++k) {
    loop.step_et(s);
    z = modes.a_et * z;
  }
  EXPECT_TRUE(s.x.approx_equal(z.block(0, 0, 3, 1), 1e-9));
  EXPECT_NEAR(s.u_prev, z(3, 0), 1e-9);
}

// ------------------------------------------------------------- Settling --

TEST(Settling, EmptyAndConstantTraces) {
  EXPECT_FALSE(settling_samples({}, 0.02).has_value());  // nothing to certify
  Trace flat(10, Sample{0.0, 0.0, 0.0});
  EXPECT_EQ(settling_samples(flat, 0.02).value_or(-1), 0);
}

TEST(Settling, LastViolationDetermines) {
  Trace t(10, Sample{0.0, 0.0, 0.0});
  t[3].y = 0.5;
  EXPECT_EQ(settling_samples(t, 0.02).value_or(-1), 4);
  t[9].y = 0.5;  // violation at horizon => cannot certify
  EXPECT_FALSE(settling_samples(t, 0.02).has_value());
}

TEST(Settling, DivergentTraceRejected) {
  Trace t(5, Sample{0.0, 0.0, 0.0});
  t[2].y = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(settling_samples(t, 0.02).has_value());
}

// ------------------------------------------------ Paper anchored numbers --

TEST(PaperNumbers, SettlingTimeOfKtIsAbout018s) {
  // Paper Sec. 3.1: settling time for KT is 0.18 s (9 samples).
  const casestudy::App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const SettlingSpec spec{kSettlingTol, 2000};
  // Pure-TT response: wait 0, dwell "forever".
  const auto j = loop.settling_of_pattern(0, spec.horizon, spec);
  ASSERT_TRUE(j.has_value());
  EXPECT_NEAR(*j * kSamplingPeriod, 0.18, 0.03);
}

TEST(PaperNumbers, SettlingTimeOfKsEIsAbout068s) {
  // Paper Sec. 3.1: settling time for KsE (pure ET) is 0.68 s.
  const casestudy::App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const SettlingSpec spec{kSettlingTol, 2000};
  const auto j = loop.settling_of_pattern(0, 0, spec);  // never enter MT
  ASSERT_TRUE(j.has_value());
  EXPECT_NEAR(*j * kSamplingPeriod, 0.68, 0.06);
}

TEST(PaperNumbers, StablePairBeatsUnstablePairOn4Plus4Pattern) {
  // Paper Sec. 3.1 / Fig. 2: 4 ME samples, 4 MT samples, then ME. The
  // switching-stable pair settles near 0.28 s, the unstable pair near
  // 0.58 s.
  const DiscreteLti plant = casestudy::dc_motor_position_plant();
  const Matrix kt = casestudy::c1().kt;
  const SettlingSpec spec{kSettlingTol, 2000};

  const SwitchedLoop stable(plant, kt, casestudy::ke_stable());
  const SwitchedLoop unstable(plant, kt, casestudy::ke_unstable());
  const auto j_s = stable.settling_of_pattern(4, 4, spec);
  const auto j_u = unstable.settling_of_pattern(4, 4, spec);
  ASSERT_TRUE(j_s.has_value());
  ASSERT_TRUE(j_u.has_value());
  EXPECT_LT(*j_s, *j_u);
  EXPECT_NEAR(*j_s * kSamplingPeriod, 0.28, 0.08);
  EXPECT_NEAR(*j_u * kSamplingPeriod, 0.58, 0.12);
}

TEST(PaperNumbers, AllCaseStudyModePairsAreIndividuallyStable) {
  for (const casestudy::App& app : casestudy::all_apps()) {
    const SwitchedModes m = switched_modes(app.plant, app.kt, app.ke);
    EXPECT_TRUE(linalg::is_schur_stable(closed_loop(app.plant, app.kt)))
        << app.name << " MT";
    EXPECT_TRUE(linalg::is_schur_stable(m.a_et)) << app.name << " ME";
  }
}

TEST(PaperNumbers, CaseStudyPairsHaveCommonLyapunov) {
  // The exact LMI decision certifies C1-C5. C6's margin (t* ~ 1e-9) sits
  // at the certifies_decrease tolerance, so its outcome is not pinned.
  for (const casestudy::App& app : casestudy::all_apps()) {
    if (app.name == "C6") continue;
    const SwitchingStability s =
        check_switching_stability(app.plant, app.kt, app.ke);
    EXPECT_TRUE(s.common_lyapunov) << app.name;
  }
}

TEST(PaperNumbers, KsEIsSwitchingStableWithKT) {
  const DiscreteLti plant = casestudy::dc_motor_position_plant();
  const SwitchingStability s =
      check_switching_stability(plant, casestudy::c1().kt,
                                casestudy::ke_stable());
  EXPECT_TRUE(s.tt_stable);
  EXPECT_TRUE(s.et_stable);
  EXPECT_TRUE(s.switching_stable());
}

TEST(PaperNumbers, KuEIsNotCertifiedSwitchingStableWithKT) {
  const DiscreteLti plant = casestudy::dc_motor_position_plant();
  const SwitchingStability s =
      check_switching_stability(plant, casestudy::c1().kt,
                                casestudy::ke_unstable());
  // Both modes are stable on their own ...
  EXPECT_TRUE(s.tt_stable);
  EXPECT_TRUE(s.et_stable);
  // ... but no common Lyapunov certificate exists for the pair.
  EXPECT_FALSE(s.switching_stable());
}

// ---------------------------------------------------------------- Design --

TEST(Design, ControllabilityOfCaseStudyPlants) {
  for (const casestudy::App& app : casestudy::all_apps())
    EXPECT_TRUE(is_controllable(app.plant)) << app.name;
}

TEST(Design, UncontrollablePlantDetected) {
  // Second state unreachable.
  const DiscreteLti p(Matrix{{0.5, 0.0}, {0.0, 0.7}}, Matrix{{1.0}, {0.0}},
                      Matrix{{1.0, 0.0}}, 0.01);
  EXPECT_FALSE(is_controllable(p));
  EXPECT_THROW(ackermann(p, {{0.1, 0.0}, {0.2, 0.0}}), std::domain_error);
}

TEST(Design, AckermannPlacesRealPoles) {
  const DiscreteLti p = double_integrator();
  const std::vector<std::complex<double>> poles{{0.5, 0.0}, {0.6, 0.0}};
  const Matrix k = ackermann(p, poles);
  const auto ev = linalg::eigenvalues(closed_loop(p, k));
  double e = 1e9;
  for (const auto& l : ev)
    e = std::min(e, std::abs(l - std::complex<double>{0.5, 0.0}));
  EXPECT_LT(e, 1e-8);
  EXPECT_NEAR(linalg::spectral_radius(closed_loop(p, k)), 0.6, 1e-8);
}

TEST(Design, AckermannPlacesComplexPairOnPaperPlant) {
  const DiscreteLti p = casestudy::dc_motor_position_plant();
  const std::vector<std::complex<double>> poles{
      {0.6, 0.2}, {0.6, -0.2}, {0.3, 0.0}};
  const Matrix k = ackermann(p, poles);
  auto ev = linalg::eigenvalues(closed_loop(p, k));
  // All desired poles matched.
  for (const auto& want : poles) {
    double best = 1e9;
    for (const auto& got : ev) best = std::min(best, std::abs(got - want));
    EXPECT_LT(best, 1e-7);
  }
}

TEST(Design, AckermannArityChecked) {
  EXPECT_THROW(ackermann(double_integrator(), {{0.5, 0.0}}),
               std::domain_error);
}

TEST(Design, DlqrStabilizesAndIsOptimalish) {
  const DiscreteLti p = double_integrator();
  const LqrWeights w{Matrix::identity(2), Matrix{{1.0}}};
  const Matrix k = dlqr(p, w);
  EXPECT_TRUE(linalg::is_schur_stable(closed_loop(p, k)));
  // LQR of a double integrator has positive position and velocity gains.
  EXPECT_GT(k(0, 0), 0.0);
  EXPECT_GT(k(0, 1), 0.0);
}

TEST(Design, DlqrOnCaseStudyPlantsStabilizes) {
  for (const casestudy::App& app : casestudy::all_apps()) {
    const Index n = app.plant.n_states();
    const LqrWeights w{Matrix::identity(n), Matrix{{1.0}}};
    const Matrix k = dlqr(app.plant, w);
    EXPECT_TRUE(linalg::is_schur_stable(closed_loop(app.plant, k)))
        << app.name;
  }
}

TEST(Design, ObservabilityOfCaseStudyPlants) {
  for (const casestudy::App& app : casestudy::all_apps())
    EXPECT_TRUE(is_observable(app.plant)) << app.name;
}

TEST(Design, UnobservablePlantDetected) {
  // Second state invisible and decoupled from the output.
  const DiscreteLti p(Matrix{{0.5, 0.0}, {0.0, 0.7}}, Matrix{{1.0}, {1.0}},
                      Matrix{{1.0, 0.0}}, 0.01);
  EXPECT_FALSE(is_observable(p));
  EXPECT_THROW(static_cast<void>(luenberger(p, {{0.1, 0.0}, {0.2, 0.0}})),
               std::domain_error);
}

TEST(Design, LuenbergerPlacesObserverPoles) {
  const DiscreteLti p = double_integrator();
  const std::vector<std::complex<double>> poles{{0.2, 0.0}, {0.3, 0.0}};
  const Matrix l = luenberger(p, poles);
  ASSERT_EQ(l.rows(), 2);
  ASSERT_EQ(l.cols(), 1);
  const Matrix a_obs = p.phi() - l * p.c();
  EXPECT_NEAR(linalg::spectral_radius(a_obs), 0.3, 1e-8);
}

TEST(Design, ObserverConvergesInSimulation) {
  // Estimation error e[k+1] = (phi - l c) e[k] must die out quickly with
  // deadbeat-ish observer poles.
  const casestudy::App app = casestudy::c5();
  const Matrix l = luenberger(app.plant, {{0.05, 0.0}, {0.1, 0.0}});
  Matrix e = Matrix::column({1.0, -1.0});
  const Matrix a_obs = app.plant.phi() - l * app.plant.c();
  for (int k = 0; k < 12; ++k) e = a_obs * e;
  EXPECT_LT(e.max_abs(), 1e-6);
}

// ------------------------------------------------------------ Simulation --

TEST(Simulation, TtModeMatchesClosedLoopIteration) {
  const casestudy::App app = casestudy::c5();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const Matrix acl = closed_loop(app.plant, app.kt);
  const Trace direct = simulate_autonomous(
      acl, app.plant.c(), app.plant.unit_output_state(), app.plant.h(), 50);
  const Trace via_loop = loop.simulate_pattern(0, 50, SettlingSpec{0.02, 50});
  ASSERT_EQ(direct.size(), via_loop.size());
  for (size_t k = 0; k < direct.size(); ++k)
    EXPECT_NEAR(direct[k].y, via_loop[k].y, 1e-10) << "k=" << k;
}

TEST(Simulation, EtModeHoldsInputOneSample) {
  // First applied ET input must be the pre-disturbance held value (0), so
  // x[1] = phi x[0] exactly.
  const casestudy::App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  LoopState s = loop.disturbed_state();
  const Matrix x0 = s.x;
  const double applied = loop.step_et(s);
  EXPECT_DOUBLE_EQ(applied, 0.0);
  EXPECT_TRUE(s.x.approx_equal(app.plant.phi() * x0, 1e-14));
}

TEST(Simulation, ScheduleEquivalentToPattern) {
  const casestudy::App app = casestudy::c3();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  std::vector<bool> modes(10, false);
  for (int k = 4; k < 8; ++k) modes[static_cast<size_t>(k)] = true;
  const Trace a = loop.simulate_schedule(modes, 300);
  const Trace b = loop.simulate_pattern(4, 4, SettlingSpec{0.02, 300});
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k].y, b[k].y, 1e-12);
}

TEST(Simulation, FastSettlingPathBitIdenticalToTraceScan) {
  // settling_of_pattern runs on flattened dynamics; it must agree exactly
  // (not approximately) with scanning the materialized Trace, for every
  // app and a grid of patterns including the degenerate ones.
  for (const casestudy::App& app : casestudy::all_apps()) {
    const SwitchedLoop loop(app.plant, app.kt, app.ke);
    const SettlingSpec spec{kSettlingTol, 600};
    for (int wait : {0, 1, 3, 7, 20}) {
      for (int dwell : {0, 1, 2, 5, 11}) {
        const auto via_trace = settling_samples(
            loop.simulate_pattern(wait, dwell, spec), spec.abs_tol);
        const auto fast = loop.settling_of_pattern(wait, dwell, spec);
        EXPECT_EQ(fast, via_trace)
            << app.name << " wait=" << wait << " dwell=" << dwell;
      }
    }
    // Full-horizon TT pattern (wait + dwell == horizon boundary).
    const SettlingSpec tight{kSettlingTol, 64};
    EXPECT_EQ(loop.settling_of_pattern(0, 64, tight),
              settling_samples(loop.simulate_pattern(0, 64, tight),
                               tight.abs_tol));
  }
}

TEST(Simulation, MoreDwellNeverWorseForStablePair) {
  // With a switching-stable pair, growing the TT dwell cannot increase the
  // settling time by more than jitter; specifically the minimum over all
  // dwell values is attained and the pure-TT response is the floor.
  const casestudy::App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const SettlingSpec spec{kSettlingTol, 1500};
  const int j_floor = loop.settling_of_pattern(0, 1500, spec).value();
  for (int dwell : {2, 4, 6, 8, 12}) {
    const auto j = loop.settling_of_pattern(0, dwell, spec);
    ASSERT_TRUE(j.has_value()) << "dwell " << dwell;
    EXPECT_GE(*j, j_floor) << "dwell " << dwell;
  }
}

class AllAppsSim : public ::testing::TestWithParam<int> {};

TEST_P(AllAppsSim, PureTtMeetsRequirementPureEtDoesNot) {
  // Table 1 reports JT < J* < JE for every application; that ordering is
  // the reason the switching strategy exists.
  const casestudy::App app =
      casestudy::all_apps()[static_cast<size_t>(GetParam())];
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const SettlingSpec spec{kSettlingTol, 3000};
  const auto jt = loop.settling_of_pattern(0, 3000, spec);
  const auto je = loop.settling_of_pattern(0, 0, spec);
  ASSERT_TRUE(jt.has_value()) << app.name;
  ASSERT_TRUE(je.has_value()) << app.name;
  EXPECT_LE(*jt, app.settling_requirement) << app.name;
  EXPECT_GT(*je, app.settling_requirement) << app.name;
  EXPECT_LT(*jt, *je) << app.name;
}

INSTANTIATE_TEST_SUITE_P(CaseStudy, AllAppsSim, ::testing::Range(0, 6));

}  // namespace
}  // namespace ttdim::control
