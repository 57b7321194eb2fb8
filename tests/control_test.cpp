// Tests for the control substrate: LTI models, simulation, settling-time
// measurement, pole placement, LQR and switching stability — anchored on
// the paper's numbers wherever the paper states them.
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(PaperNumbers, KuEWorstPatternSettlesIn46Samples) {
  // Sec. 3.1: with KuE some switching pattern settles later than staying
  // in ME (JE = 35). The grid maximum is 46 samples, at wait 16, dwell 1.
  const DiscreteLti plant = casestudy::dc_motor_position_plant();
  const SwitchingStability s =
      check_switching_stability(plant, casestudy::c1().kt,
                                casestudy::ke_unstable());
  EXPECT_EQ(s.settling_et, 35);
  EXPECT_EQ(s.worst_settling, 46);
  EXPECT_FALSE(s.degradation_free);
  const SwitchedLoop loop(plant, casestudy::c1().kt, casestudy::ke_unstable());
  EXPECT_EQ(loop.settling_of_pattern(16, 1, SettlingSpec{}), 46);
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

// settling_of_pattern runs on flattened dynamics and stops once the ME
// tail provably stays in the band; it must agree exactly (not
// approximately) with scanning the materialized full-horizon Trace.
void expect_fast_path_matches_trace(const SwitchedLoop& loop, int wait,
                                    int dwell, const SettlingSpec& spec,
                                    const std::string& label) {
  EXPECT_EQ(loop.settling_of_pattern(wait, dwell, spec),
            settling_samples(loop.simulate_pattern(wait, dwell, spec),
                             spec.abs_tol))
      << label << " wait=" << wait << " dwell=" << dwell
      << " horizon=" << spec.horizon;
}

TEST(Simulation, FastSettlingPathBitIdenticalToTraceScan) {
  // The whole grid check_switching_stability walks (wait <= JE + 5,
  // dwell <= 12) at the solve's two horizons: 4000 for the stability grid
  // and 3000 for the dwell tables. The causal simulation makes the first
  // 3000 samples of a 4000-sample trace the 3000-horizon trace.
  struct Pair {
    std::string name;
    SwitchedLoop loop;
  };
  std::vector<Pair> pairs;
  for (const casestudy::App& app : casestudy::all_apps())
    pairs.push_back({app.name, SwitchedLoop(app.plant, app.kt, app.ke)});
  const DiscreteLti motor = casestudy::dc_motor_position_plant();
  pairs.push_back(
      {"KsE", SwitchedLoop(motor, casestudy::c1().kt, casestudy::ke_stable())});
  pairs.push_back({"KuE", SwitchedLoop(motor, casestudy::c1().kt,
                                       casestudy::ke_unstable())});
  const SettlingSpec grid{kSettlingTol, 4000};
  const SettlingSpec tables{kSettlingTol, 3000};
  for (const Pair& pair : pairs) {
    EXPECT_TRUE(std::isfinite(pair.loop.tail_gain())) << pair.name;
    const int je = settling_samples(pair.loop.simulate_pattern(0, 0, grid),
                                    grid.abs_tol)
                       .value();
    for (int wait = 0; wait <= je + 5; ++wait) {
      for (int dwell = 0; dwell <= 12; ++dwell) {
        Trace trace = pair.loop.simulate_pattern(wait, dwell, grid);
        EXPECT_EQ(pair.loop.settling_of_pattern(wait, dwell, grid),
                  settling_samples(trace, grid.abs_tol))
            << pair.name << " wait=" << wait << " dwell=" << dwell;
        trace.resize(static_cast<size_t>(tables.horizon));
        EXPECT_EQ(pair.loop.settling_of_pattern(wait, dwell, tables),
                  settling_samples(trace, tables.abs_tol))
            << pair.name << " wait=" << wait << " dwell=" << dwell;
      }
    }
    // wait + dwell == horizon: the ME tail never starts.
    expect_fast_path_matches_trace(pair.loop, 0, tables.horizon, tables,
                                   pair.name);
    expect_fast_path_matches_trace(pair.loop, 10, grid.horizon - 10, grid,
                                   pair.name);
    // Last violation on the last sample: nullopt, one sample more settles.
    const SettlingSpec at_je{kSettlingTol, je};
    const SettlingSpec past_je{kSettlingTol, je + 1};
    EXPECT_EQ(pair.loop.settling_of_pattern(0, 0, at_je), std::nullopt)
        << pair.name;
    expect_fast_path_matches_trace(pair.loop, 0, 0, at_je, pair.name);
    EXPECT_EQ(pair.loop.settling_of_pattern(0, 0, past_je), je) << pair.name;
    expect_fast_path_matches_trace(pair.loop, 0, 0, past_je, pair.name);
  }
}

TEST(Simulation, FastSettlingPathMatchesTraceOnPerturbedGains) {
  // Seeded property: +-20 % perturbations of every gain entry (a pair
  // left ME Schur-unstable gets tail gain +infinity and a full scan).
  std::mt19937 rng(20190602);
  std::uniform_real_distribution<double> scale(0.8, 1.2);
  const std::vector<casestudy::App> apps = casestudy::all_apps();
  const SettlingSpec spec{kSettlingTol, 3000};
  for (int trial = 0; trial < 12; ++trial) {
    const casestudy::App& app = apps[static_cast<size_t>(trial) % apps.size()];
    Matrix kt = app.kt;
    Matrix ke = app.ke;
    for (Index j = 0; j < kt.cols(); ++j) kt(0, j) *= scale(rng);
    for (Index j = 0; j < ke.cols(); ++j) ke(0, j) *= scale(rng);
    const SwitchedLoop loop(app.plant, kt, ke);
    const std::string label = app.name + " trial " + std::to_string(trial);
    for (int wait = 0; wait <= 24; wait += 2)
      for (int dwell : {0, 1, 2, 3, 5, 8, 12})
        expect_fast_path_matches_trace(loop, wait, dwell, spec, label);
  }
}

// Scalar plant x+ = a x + gamma u, y = x, with MT gain kt and a zero ME
// gain: ME's matrix is [[a, gamma], [0, 0]], spectral radius a.
SwitchedLoop scalar_loop(double a, double gamma, double kt) {
  return SwitchedLoop(
      DiscreteLti(Matrix{{a}}, Matrix{{gamma}}, Matrix{{1.0}}, 0.02),
      Matrix{{kt}}, Matrix{{0.0, 0.0}});
}

TEST(Simulation, FastSettlingPathWithoutTailBoundScansFullHorizon) {
  const SettlingSpec spec{kSettlingTol, 4000};

  // Schur-stable but contracting too slowly for the 10 000-power cap
  // (2 a^10000 > 1/2): no exit, yet a TT burst still settles the loop.
  const SwitchedLoop slow = scalar_loop(0.99995, 1.0, 0.5);
  EXPECT_EQ(slow.tail_gain(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(slow.settling_of_pattern(0, 0, spec), std::nullopt);
  const std::optional<int> j_slow = slow.settling_of_pattern(0, 10, spec);
  ASSERT_TRUE(j_slow.has_value());
  EXPECT_LT(*j_slow, 10);
  for (int wait : {0, 3})
    for (int dwell : {0, 1, 10})
      expect_fast_path_matches_trace(slow, wait, dwell, spec, "slow");

  // Schur-unstable ME: after a TT burst the residue grows back out of the
  // band, so the violation reaches the last sample.
  const SwitchedLoop unstable = scalar_loop(1.01, 1.0, 0.9);
  EXPECT_EQ(unstable.tail_gain(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(unstable.settling_of_pattern(0, 5, spec), std::nullopt);
  for (int wait : {0, 3})
    for (int dwell : {0, 5, 40})
      expect_fast_path_matches_trace(unstable, wait, dwell, spec, "unstable");
}

TEST(Simulation, FastSettlingPathKeepsScanningWhileTheTailCanLeaveTheBand) {
  // x+ = 0.5 x + 10 u_prev in ME, so the held input re-excites the
  // output one sample after MT ends (tail gain 10.5).
  const SettlingSpec spec{kSettlingTol, 3000};
  // Deadbeat MT (x -> 0) leaves u_prev = -0.05 x: at (3, 1) the state is
  // x = 0, |u_prev| = 0.00625 < abs_tol / 2, and y = -0.0625 follows.
  const SwitchedLoop deadbeat = scalar_loop(0.5, 10.0, 0.05);
  EXPECT_DOUBLE_EQ(deadbeat.tail_gain(), 10.5);
  EXPECT_EQ(deadbeat.settling_of_pattern(3, 1, spec), 7);
  for (int wait : {3, 4})
    expect_fast_path_matches_trace(deadbeat, wait, 1, spec, "deadbeat");
  // Expanding MT (x -> 10.5 x): the settled-looking ME wait is followed
  // by a burst, so no exit before wait + dwell.
  const SwitchedLoop expanding = scalar_loop(0.5, 10.0, -1.0);
  for (int dwell : {1, 3})
    expect_fast_path_matches_trace(expanding, 12, dwell, spec, "expanding");
  EXPECT_GT(expanding.settling_of_pattern(12, 3, spec).value(), 15);
}

TEST(Simulation, TailGainBoundsEveryMeOutput) {
  // |[c 0] A^j z| <= tail_gain() |z|_inf over a long ME run, for the unit
  // vectors z (which make the bound tight in the 1-norm sense).
  for (const casestudy::App& app : casestudy::all_apps()) {
    const SwitchedLoop loop(app.plant, app.kt, app.ke);
    const double g = loop.tail_gain();
    ASSERT_TRUE(std::isfinite(g)) << app.name;
    EXPECT_GE(g, 1.0) << app.name;  // r = 0 term: |c|_1 for c = e1
    const Matrix a = switched_modes(app.plant, app.kt, app.ke).a_et;
    const Index n = a.rows();
    for (Index e = 0; e < n; ++e) {
      Matrix z(n, 1);
      z(e, 0) = 1.0;
      for (int j = 0; j < 500; ++j) {
        double y = 0.0;
        for (Index r = 0; r + 1 < n; ++r) y += app.plant.c()(0, r) * z(r, 0);
        EXPECT_LE(std::abs(y), g * (1.0 + 1e-12))
            << app.name << " e=" << e << " j=" << j;
        z = a * z;
      }
    }
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
