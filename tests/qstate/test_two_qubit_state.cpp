#include "qstate/two_qubit_state.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbase/rng.hpp"
#include "qbase/stats.hpp"

namespace qnetp::qstate {
namespace {

TEST(TwoQubitState, DefaultIsMaximallyMixed) {
  const TwoQubitState s;
  for (BellIndex b : all_bell_indices())
    EXPECT_NEAR(s.fidelity(b), 0.25, 1e-12);
  EXPECT_TRUE(s.valid_density());
  EXPECT_TRUE(s.is_bell_diagonal());
}

TEST(TwoQubitState, BellStatesHaveUnitFidelity) {
  for (BellIndex b : all_bell_indices()) {
    const TwoQubitState s = TwoQubitState::bell(b);
    EXPECT_NEAR(s.fidelity(b), 1.0, 1e-12);
    for (BellIndex other : all_bell_indices()) {
      if (other != b) {
        EXPECT_NEAR(s.fidelity(other), 0.0, 1e-12);
      }
    }
    EXPECT_TRUE(s.valid_density());
    EXPECT_TRUE(s.is_bell_diagonal());
  }
}

class WernerParam : public ::testing::TestWithParam<double> {};

TEST_P(WernerParam, WernerStateProperties) {
  const double f = GetParam();
  const TwoQubitState s = TwoQubitState::werner(f, BellIndex::psi_plus());
  EXPECT_NEAR(s.fidelity(BellIndex::psi_plus()), f, 1e-12);
  EXPECT_NEAR(s.fidelity(BellIndex::phi_plus()), (1 - f) / 3.0, 1e-12);
  EXPECT_TRUE(s.valid_density());
  EXPECT_TRUE(s.is_bell_diagonal());
  const auto [best, bf] = s.best_bell();
  if (f > 0.25) {
    EXPECT_EQ(best, BellIndex::psi_plus());
    EXPECT_NEAR(bf, f, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(FidelitySweep, WernerParam,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85, 0.95, 1.0));

TEST(TwoQubitState, ComputationalStates) {
  const TwoQubitState s = TwoQubitState::computational(1, 0);
  // |10> has overlap 1/2 with Psi+ and Psi-.
  EXPECT_NEAR(s.fidelity(BellIndex::psi_plus()), 0.5, 1e-12);
  EXPECT_NEAR(s.fidelity(BellIndex::psi_minus()), 0.5, 1e-12);
  EXPECT_NEAR(s.fidelity(BellIndex::phi_plus()), 0.0, 1e-12);
  EXPECT_FALSE(s.is_bell_diagonal());
}

TEST(TwoQubitState, PauliCorrectionRestoresFrame) {
  for (BellIndex from : all_bell_indices()) {
    for (BellIndex to : all_bell_indices()) {
      TwoQubitState s = TwoQubitState::bell(from);
      s.apply_correction(0, from, to);
      EXPECT_NEAR(s.fidelity(to), 1.0, 1e-12)
          << from.to_string() << "->" << to.to_string();
    }
  }
}

TEST(TwoQubitState, CorrectionOnRightSideAlsoWorks) {
  // For Bell states, correcting on either qubit moves the frame, though
  // the Pauli needed on the right side can differ by a sign for Y-type
  // corrections. Verify the frame lands where expected for X and Z.
  TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
  s.apply_pauli(1, pauli_x());
  EXPECT_NEAR(s.fidelity(BellIndex::psi_plus()), 1.0, 1e-12);
  TwoQubitState s2 = TwoQubitState::bell(BellIndex::phi_plus());
  s2.apply_pauli(1, pauli_z());
  EXPECT_NEAR(s2.fidelity(BellIndex::phi_minus()), 1.0, 1e-12);
}

// Bell-diagonal closed forms (Appendix C) checked against the exact
// density-matrix evolution. A Pauli mixture with probabilities q indexed
// by the Bell-index delta it applies (I: 0, X: 1, Z: 2, Y: 3) maps the
// Bell coefficients c to out[k] = sum_d q[d] * c[k ^ d], whichever qubit
// it acts on.

BellDiagonal random_coeffs(Rng& rng) {
  BellDiagonal c;
  double total = 0.0;
  for (double& x : c) {
    x = rng.uniform();
    total += x;
  }
  for (double& x : c) x /= total;
  return c;
}

BellDiagonal pauli_mix(const BellDiagonal& c, const BellDiagonal& q) {
  BellDiagonal out{};
  for (unsigned k = 0; k < 4; ++k)
    for (unsigned d = 0; d < 4; ++d) out[k] += q[d] * c[k ^ d];
  return out;
}

void expect_coeffs(const TwoQubitState& s, const BellDiagonal& c,
                   double tol = 1e-12) {
  for (BellIndex b : all_bell_indices())
    EXPECT_NEAR(s.fidelity(b), c[b.code()], tol) << b.to_string();
}

TEST(TwoQubitState, BellDiagonalConstructorsMatchCoefficients) {
  for (BellIndex b : all_bell_indices()) {
    BellDiagonal pure{};
    pure[b.code()] = 1.0;
    expect_coeffs(TwoQubitState::bell(b), pure);
    BellDiagonal werner{};
    for (double& x : werner) x = (1.0 - 0.83) / 3.0;
    werner[b.code()] = 0.83;
    const TwoQubitState w = TwoQubitState::werner(0.83, b);
    expect_coeffs(w, werner);
    EXPECT_TRUE(w.is_bell_diagonal());
  }
  expect_coeffs(TwoQubitState::maximally_mixed(), {0.25, 0.25, 0.25, 0.25});
  Rng rng(31001);
  for (int i = 0; i < 20; ++i) {
    const BellDiagonal c = random_coeffs(rng);
    const TwoQubitState s = TwoQubitState::bell_diagonal(c);
    expect_coeffs(s, c);
    EXPECT_TRUE(s.is_bell_diagonal());
    EXPECT_TRUE(s.valid_density());
  }
}

TEST(TwoQubitState, PauliChannelXorConvolvesBellCoefficients) {
  Rng rng(31002);
  for (int i = 0; i < 50; ++i) {
    const BellDiagonal c = random_coeffs(rng);
    const BellDiagonal p = random_coeffs(rng);  // (pi, px, py, pz)
    const Channel ch = Channel::pauli_channel(p[0], p[1], p[2], p[3]);
    const BellDiagonal q{p[0], p[1], p[3], p[2]};
    for (int side : {0, 1}) {
      TwoQubitState s = TwoQubitState::bell_diagonal(c);
      s.apply_channel(side, ch);
      expect_coeffs(s, pauli_mix(c, q), 1e-9);
      EXPECT_TRUE(s.is_bell_diagonal()) << "side " << side;
    }
  }
}

TEST(TwoQubitState, DephasingAndDepolarizingClosedForms) {
  Rng rng(31003);
  for (double p : {0.0, 0.05, 0.4, 0.9, 1.0}) {
    const BellDiagonal c = random_coeffs(rng);

    TwoQubitState deph = TwoQubitState::bell_diagonal(c);
    deph.apply_channel(0, Channel::dephasing(p));
    expect_coeffs(deph, pauli_mix(c, {1.0 - p / 2, 0.0, p / 2, 0.0}), 1e-9);

    TwoQubitState inline_deph = TwoQubitState::bell_diagonal(c);
    inline_deph.apply_dephasing(1, p);
    expect_coeffs(inline_deph, pauli_mix(c, {1.0 - p / 2, 0.0, p / 2, 0.0}),
                  1e-9);

    TwoQubitState depol = TwoQubitState::bell_diagonal(c);
    depol.apply_channel(1, Channel::depolarizing(p));
    expect_coeffs(depol,
                  pauli_mix(c, {1.0 - 3 * p / 4, p / 4, p / 4, p / 4}), 1e-9);
  }
}

TEST(TwoQubitState, CorrectionShiftsBellCoefficientsByXor) {
  Rng rng(31004);
  for (BellIndex from : all_bell_indices()) {
    for (BellIndex to : all_bell_indices()) {
      const BellDiagonal c = random_coeffs(rng);
      const unsigned shift = (from ^ to).code();
      BellDiagonal expected{};
      for (unsigned k = 0; k < 4; ++k) expected[k] = c[k ^ shift];
      for (int side : {0, 1}) {
        TwoQubitState s = TwoQubitState::bell_diagonal(c);
        s.apply_correction(side, from, to);
        expect_coeffs(s, expected, 1e-9);
      }
    }
  }
}

TEST(TwoQubitState, BellDiagonalPreservingOpsKeepFamily) {
  TwoQubitState s = TwoQubitState::werner(0.85, BellIndex::psi_plus());
  s.apply_channel(0, Channel::depolarizing(0.1));
  s.apply_channel(1, Channel::dephasing(0.2));
  s.apply_channel(0, Channel::bit_flip(0.05));
  s.apply_correction(1, BellIndex::psi_plus(), BellIndex::phi_plus());
  s.apply_dephasing(0, 0.3);
  const MemoryDecay pure_dephasing{Duration::max(), Duration::seconds(2)};
  s.apply_decay(1, pure_dephasing.params_for(Duration::ms(10)));
  EXPECT_TRUE(s.is_bell_diagonal());
  EXPECT_NEAR(s.rho().trace().real(), 1.0, 1e-12);
  // A non-Pauli unitary rotates the pair out of the family.
  s.apply_pauli(0, Mat2{Cplx{0.8, 0}, Cplx{-0.6, 0}, Cplx{0.6, 0},
                        Cplx{0.8, 0}});
  EXPECT_FALSE(s.is_bell_diagonal());
  EXPECT_TRUE(s.valid_density());
}

TEST(TwoQubitState, FiniteT1DecayMatchesChannelAndLeavesFamily) {
  // The closed-form decay must equal the explicit Kraus channel for the
  // same interval; amplitude damping has no Bell-diagonal closed form.
  Rng rng(42002);
  for (int trial = 0; trial < 40; ++trial) {
    const BellDiagonal c = random_coeffs(rng);
    const MemoryDecay decay{Duration::seconds(rng.uniform(1.0, 10.0)),
                            Duration::seconds(rng.uniform(0.5, 1.5))};
    const Duration dt = Duration::ms(rng.uniform(1.0, 2000.0));
    const int side = static_cast<int>(rng.uniform_int(2));
    TwoQubitState closed = TwoQubitState::bell_diagonal(c);
    TwoQubitState kraus = TwoQubitState::bell_diagonal(c);
    closed.apply_decay(side, decay.params_for(dt));
    kraus.apply_channel(side, decay.for_interval(dt));
    EXPECT_TRUE(closed.rho().approx_equal(kraus.rho(), 1e-9))
        << "trial " << trial;
    EXPECT_FALSE(closed.is_bell_diagonal()) << "trial " << trial;
    EXPECT_TRUE(closed.valid_density());
  }
}

TEST(TwoQubitState, ArbitraryAxisMeasurementLeavesFamily) {
  Rng rng(42003);
  TwoQubitState s = TwoQubitState::werner(0.9, BellIndex::phi_plus());
  ASSERT_TRUE(s.is_bell_diagonal());
  const BlochAxis tilted = BlochAxis::xz_plane(0.7);
  s.measure_both_along(tilted, tilted, rng);
  EXPECT_FALSE(s.is_bell_diagonal());
  EXPECT_TRUE(s.valid_density());
}

TEST(Measurement, ZBasisOnBellPairIsCorrelated) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
    const auto [a, b] = s.measure_both(Basis::z, Basis::z, rng);
    EXPECT_EQ(a, b);  // Phi+ is perfectly correlated in Z
  }
  for (int trial = 0; trial < 200; ++trial) {
    TwoQubitState s = TwoQubitState::bell(BellIndex::psi_plus());
    const auto [a, b] = s.measure_both(Basis::z, Basis::z, rng);
    EXPECT_NE(a, b);  // Psi+ anti-correlated in Z
  }
}

TEST(Measurement, XBasisCorrelations) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
    const auto [a, b] = s.measure_both(Basis::x, Basis::x, rng);
    EXPECT_EQ(a, b);  // Phi+ correlated in X
  }
  for (int trial = 0; trial < 200; ++trial) {
    TwoQubitState s = TwoQubitState::bell(BellIndex::phi_minus());
    const auto [a, b] = s.measure_both(Basis::x, Basis::x, rng);
    EXPECT_NE(a, b);  // Phi- anti-correlated in X
  }
}

TEST(Measurement, OutcomeFrequenciesUniformForBell) {
  Rng rng(11);
  int zeros = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
    Mat2 partner;
    const int o = s.measure_side(0, Basis::z, rng, &partner);
    zeros += (o == 0) ? 1 : 0;
    // Partner collapses to the same computational state.
    EXPECT_NEAR(partner(o, o).real(), 1.0, 1e-9);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / n, 0.5, 0.05);
}

TEST(Measurement, CollapseIsConsistentOnSecondMeasurement) {
  Rng rng(13);
  TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
  const int first = s.measure_side(0, Basis::z, rng);
  // After measuring side 0 in Z, side 1 must give the same outcome with
  // certainty.
  const int second = s.measure_side(1, Basis::z, rng);
  EXPECT_EQ(first, second);
}

TEST(Measurement, CorrelatorValues) {
  const TwoQubitState phi_plus = TwoQubitState::bell(BellIndex::phi_plus());
  EXPECT_NEAR(phi_plus.correlator(Basis::z), 1.0, 1e-12);
  EXPECT_NEAR(phi_plus.correlator(Basis::x), 1.0, 1e-12);
  EXPECT_NEAR(phi_plus.correlator(Basis::y), -1.0, 1e-12);
  const TwoQubitState psi_minus = TwoQubitState::bell(BellIndex::psi_minus());
  EXPECT_NEAR(psi_minus.correlator(Basis::z), -1.0, 1e-12);
  EXPECT_NEAR(psi_minus.correlator(Basis::x), -1.0, 1e-12);
  EXPECT_NEAR(psi_minus.correlator(Basis::y), -1.0, 1e-12);
}

TEST(Measurement, WernerCorrelatorScalesWithFidelity) {
  const double f = 0.85;
  const TwoQubitState s = TwoQubitState::werner(f, BellIndex::phi_plus());
  // For Werner: <ZZ> = (4F-1)/3.
  EXPECT_NEAR(s.correlator(Basis::z), (4 * f - 1) / 3.0, 1e-12);
}

TEST(Renormalize, FixesDriftedTrace) {
  Mat4 rho = bell_projector(BellIndex::phi_plus()) * Cplx{0.98, 0};
  TwoQubitState s(rho);
  s.renormalize();
  EXPECT_NEAR(s.rho().trace().real(), 1.0, 1e-12);
  EXPECT_NEAR(s.fidelity(BellIndex::phi_plus()), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Teleportation.
// ---------------------------------------------------------------------------

Mat2 pure_state_dm(Cplx a, Cplx b) {
  // |psi> = a|0> + b|1>
  return Mat2{a * std::conj(a), a * std::conj(b), b * std::conj(a),
              b * std::conj(b)};
}

TEST(Teleport, PerfectResourceReproducesInput) {
  Rng rng(17);
  const Mat2 psi = pure_state_dm(Cplx{0.6, 0}, Cplx{0, 0.8});
  for (int i = 0; i < 50; ++i) {
    const auto [out, m] =
        teleport(psi, TwoQubitState::bell(BellIndex::phi_plus()), rng);
    EXPECT_TRUE(out.approx_equal(psi, 1e-9)) << "outcome " << m.to_string();
  }
}

TEST(Teleport, AllFourOutcomesOccur) {
  Rng rng(19);
  const Mat2 psi = pure_state_dm(Cplx{1 / std::sqrt(2.0), 0},
                                 Cplx{0.5, 0.5});
  int seen[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i) {
    const auto [out, m] =
        teleport(psi, TwoQubitState::bell(BellIndex::phi_plus()), rng);
    seen[m.code()]++;
  }
  for (int c = 0; c < 4; ++c) EXPECT_GT(seen[c], 50);
}

TEST(Teleport, WernerResourceDegradesOutput) {
  Rng rng(23);
  const Mat2 psi = pure_state_dm(Cplx{1, 0}, Cplx{0, 0});
  const double f = 0.75;
  RunningStats fid;
  for (int i = 0; i < 200; ++i) {
    const auto [out, m] =
        teleport(psi, TwoQubitState::werner(f, BellIndex::phi_plus()), rng);
    // Output fidelity <0|out|0>.
    fid.add(out(0, 0).real());
  }
  // Teleportation fidelity through Werner F: (2F+1)/3 on average.
  EXPECT_NEAR(fid.mean(), (2 * f + 1) / 3.0, 0.02);
}

TEST(Teleport, MixedMaximallyMixedResourceGivesMixedOutput) {
  Rng rng(29);
  const Mat2 psi = pure_state_dm(Cplx{1, 0}, Cplx{0, 0});
  const auto [out, m] = teleport(psi, TwoQubitState::maximally_mixed(), rng);
  EXPECT_NEAR(out(0, 0).real(), 0.5, 1e-9);
  EXPECT_NEAR(out(1, 1).real(), 0.5, 1e-9);
}

}  // namespace
}  // namespace qnetp::qstate
