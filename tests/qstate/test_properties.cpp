// Property-based seeded tests for the qstate layer: swap and distill
// must preserve the density-matrix invariants (unit trace, fidelity in
// [0,1]) across randomized input states, and DEJMPS success must deliver
// at least the closed-form (analytic) output fidelity. Randomized inputs
// come from seeded Rng streams, so failures reproduce exactly.
#include <gtest/gtest.h>

#include "qstate/distill.hpp"
#include "qstate/swap.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::qstate {
namespace {

/// A random Bell-diagonal state (the family produced by the link layer
/// and swaps): random normalized coefficients, optionally biased toward
/// a dominant Phi+ component so distillable inputs are common.
TwoQubitState random_bell_diagonal(Rng& rng, bool dominant_phi_plus) {
  BellDiagonal coeffs;
  double total = 0.0;
  for (double& c : coeffs) {
    c = rng.uniform();
    total += c;
  }
  for (double& c : coeffs) c /= total;
  if (dominant_phi_plus) {
    // Mix with a pure Phi+ so coeffs[0] lands in (0.5, 1).
    const double f = rng.uniform(0.55, 0.95);
    for (int i = 0; i < 4; ++i) {
      coeffs[i] = coeffs[i] * (1.0 - f);
    }
    coeffs[0] += f;
  }
  return TwoQubitState::bell_diagonal(coeffs);
}

/// A random Werner-like pair with a random dominant Bell index.
TwoQubitState random_werner(Rng& rng) {
  const BellIndex idx{static_cast<std::uint8_t>(rng.uniform_int(4))};
  return TwoQubitState::werner(rng.uniform(0.3, 1.0), idx);
}

TEST(SwapProperties, PreservesTraceAndFidelityRange) {
  Rng rng(20240001);
  for (int i = 0; i < 200; ++i) {
    const TwoQubitState left =
        (i % 2 == 0) ? random_bell_diagonal(rng, false) : random_werner(rng);
    const TwoQubitState right =
        (i % 3 == 0) ? random_bell_diagonal(rng, false) : random_werner(rng);
    SwapNoise noise;
    noise.gate_depolarizing = rng.uniform(0.0, 0.2);
    noise.readout_flip_prob = rng.uniform(0.0, 0.1);
    const SwapOutcome out = entanglement_swap(left, right, noise, rng);

    EXPECT_TRUE(out.state.valid_density())
        << "iteration " << i << ": post-swap state is not a density matrix";
    EXPECT_NEAR(out.state.rho().trace().real(), 1.0, 1e-7);
    EXPECT_NEAR(out.state.rho().trace().imag(), 0.0, 1e-9);
    EXPECT_GT(out.probability, 0.0);
    EXPECT_LE(out.probability, 1.0 + 1e-12);
    for (int b = 0; b < 4; ++b) {
      const double f = out.state.fidelity(BellIndex{static_cast<std::uint8_t>(b)});
      EXPECT_GE(f, -1e-9) << "iteration " << i;
      EXPECT_LE(f, 1.0 + 1e-9) << "iteration " << i;
    }
  }
}

TEST(SwapProperties, IdealSwapOfPerfectPairsIsPerfect) {
  Rng rng(20240002);
  for (int i = 0; i < 50; ++i) {
    const SwapOutcome out = entanglement_swap(
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::phi_plus()), SwapNoise::ideal(), rng);
    // After correcting for the announced outcome, the outer pair is a
    // perfect Bell pair.
    EXPECT_NEAR(out.state.fidelity(out.true_outcome), 1.0, 1e-9);
    EXPECT_EQ(out.announced_outcome, out.true_outcome);  // no readout noise
  }
}

TEST(DistillProperties, PreservesTraceAndFidelityRange) {
  Rng rng(20240003);
  for (int i = 0; i < 200; ++i) {
    const TwoQubitState a = random_bell_diagonal(rng, i % 2 == 0);
    const TwoQubitState b = random_bell_diagonal(rng, i % 2 == 0);
    const double gate_noise = (i % 4 == 0) ? rng.uniform(0.0, 0.1) : 0.0;
    const DistillResult r = dejmps(a, b, gate_noise, rng);

    EXPECT_GE(r.success_probability, 0.0) << "iteration " << i;
    EXPECT_LE(r.success_probability, 1.0 + 1e-12) << "iteration " << i;
    if (!r.success) continue;
    EXPECT_TRUE(r.state.valid_density())
        << "iteration " << i << ": distilled state is not a density matrix";
    EXPECT_NEAR(r.state.rho().trace().real(), 1.0, 1e-7);
    for (int bell = 0; bell < 4; ++bell) {
      const double f = r.state.fidelity(BellIndex{static_cast<std::uint8_t>(bell)});
      EXPECT_GE(f, -1e-9) << "iteration " << i;
      EXPECT_LE(f, 1.0 + 1e-9) << "iteration " << i;
    }
  }
}

TEST(DistillProperties, SuccessMeetsAnalyticBound) {
  // With noiseless gates, the surviving pair of a successful DEJMPS round
  // must realise exactly the closed-form output map on the twirled
  // inputs — in particular its Phi+ fidelity may not fall below the
  // analytic value.
  Rng rng(20240004);
  for (int i = 0; i < 200; ++i) {
    const TwoQubitState a = random_bell_diagonal(rng, true);
    const TwoQubitState b = random_bell_diagonal(rng, true);
    BellDiagonal analytic{};
    dejmps_map(bell_diagonal_of(a), bell_diagonal_of(b), &analytic);
    const DistillResult r = dejmps(a, b, /*gate_depolarizing=*/0.0, rng);
    if (!r.success) continue;
    const double achieved = r.state.fidelity(BellIndex::phi_plus());
    EXPECT_GE(achieved, analytic[0] - 1e-9)
        << "iteration " << i
        << ": successful distillation fell below the analytic bound";
  }
}

TEST(DistillProperties, ImprovesDistillableWernerPairs) {
  // For identical Werner inputs above F = 0.5 the round must not reduce
  // fidelity (the recurrence is strictly improving there).
  Rng rng(20240005);
  for (int i = 0; i < 100; ++i) {
    const double f = rng.uniform(0.55, 0.95);
    const TwoQubitState w =
        TwoQubitState::werner(f, BellIndex::phi_plus());
    const DistillResult r = dejmps(w, w, 0.0, rng);
    if (!r.success) continue;
    EXPECT_GE(r.state.fidelity(BellIndex::phi_plus()), f - 1e-9)
        << "F=" << f;
  }
}

}  // namespace
}  // namespace qnetp::qstate
