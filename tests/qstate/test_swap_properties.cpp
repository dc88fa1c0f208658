// Parameterized property sweeps binding the exact density-matrix swap to
// the analytic algebra the control plane plans with.
#include <gtest/gtest.h>

#include <tuple>

#include "qbase/stats.hpp"
#include "qhw/photonic_link.hpp"
#include "qstate/analytic.hpp"
#include "qstate/swap.hpp"

namespace qnetp::qstate {
namespace {

// (f1, f2, gate_depolarizing)
using SwapCase = std::tuple<double, double, double>;

class SwapNoiseSweep : public ::testing::TestWithParam<SwapCase> {};

TEST_P(SwapNoiseSweep, MeanFidelityMatchesAnalyticPrediction) {
  const auto [f1, f2, gate] = GetParam();
  Rng rng(42);
  RunningStats fid;
  for (int i = 0; i < 96; ++i) {
    SwapNoise noise;
    noise.gate_depolarizing = gate;
    const auto out = entanglement_swap(
        TwoQubitState::werner(f1, BellIndex::phi_plus()),
        TwoQubitState::werner(f2, BellIndex::phi_plus()), noise, rng);
    const BellIndex expected = out.true_outcome;  // phi+^phi+ = identity
    fid.add(out.state.fidelity(expected));
  }
  // Analytic: depolarize each input once (the implementation applies the
  // channel to one qubit of each pair), then the perfect-swap formula.
  const double predicted = werner_swap_fidelity(
      werner_after_depolarizing(f1, gate),
      werner_after_depolarizing(f2, gate));
  EXPECT_NEAR(fid.mean(), predicted, 0.015)
      << "f1=" << f1 << " f2=" << f2 << " gate=" << gate;
}

TEST_P(SwapNoiseSweep, OutputAlwaysPhysical) {
  const auto [f1, f2, gate] = GetParam();
  Rng rng(77);
  SwapNoise noise;
  noise.gate_depolarizing = gate;
  noise.readout_flip_prob = 0.01;
  for (int i = 0; i < 16; ++i) {
    const auto out = entanglement_swap(
        TwoQubitState::werner(f1, BellIndex::psi_plus()),
        TwoQubitState::werner(f2, BellIndex::phi_minus()), noise, rng);
    EXPECT_TRUE(out.state.valid_density(1e-6));
    EXPECT_GT(out.probability, 0.0);
    EXPECT_LE(out.probability, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FidelityGateGrid, SwapNoiseSweep,
    ::testing::Combine(::testing::Values(0.7, 0.85, 0.95, 1.0),
                       ::testing::Values(0.6, 0.9, 1.0),
                       ::testing::Values(0.0, 0.01, 0.05)));

// Photonic link properties across fibre lengths and both hardware
// presets (the paper's simulation and near-term parameters).
using LinkCase = std::tuple<double, bool>;  // (length_m, near_term)

qhw::PhotonicLinkModel make_link(double length_m, bool near_term) {
  return qhw::PhotonicLinkModel(
      near_term ? qhw::near_term_preset() : qhw::simulation_preset(),
      length_m > 100.0 ? qhw::FiberParams::telecom(length_m)
                       : qhw::FiberParams::lab(length_m));
}

class LinkSweep : public ::testing::TestWithParam<LinkCase> {};

TEST_P(LinkSweep, ModelInvariantsHold) {
  const auto [length_m, near_term] = GetParam();
  const qhw::PhotonicLinkModel link = make_link(length_m, near_term);
  EXPECT_GT(link.eta(), 0.0);
  EXPECT_LE(link.eta(), 1.0);
  EXPECT_GT(link.attempt_cycle(), Duration::zero());
  // The heralded state at the optimum is physical and dominated by the
  // announced Bell state whenever the link is usable at all.
  const auto state = link.produced_state(link.optimal_alpha());
  EXPECT_TRUE(state.valid_density(1e-7));
  if (link.max_fidelity() > 0.5) {
    EXPECT_EQ(state.best_bell().first, link.announced_bell());
  }
  // Quantiles are ordered and bracket the mean.
  double alpha = 0.0;
  if (link.solve_alpha(std::min(0.9, link.max_fidelity() - 0.01), &alpha)) {
    const auto q25 = link.generation_time_quantile(alpha, 0.25);
    const auto q50 = link.generation_time_quantile(alpha, 0.50);
    const auto q95 = link.generation_time_quantile(alpha, 0.95);
    EXPECT_LE(q25, q50);
    EXPECT_LE(q50, q95);
    EXPECT_LE(q50, link.mean_generation_time(alpha) * 1.01);
    EXPECT_GE(q95, link.mean_generation_time(alpha));
  }
}

TEST_P(LinkSweep, LongerFibreIsSlower) {
  const auto [length_m, near_term] = GetParam();
  const auto here = make_link(length_m, near_term);
  const auto longer = make_link(length_m * 2.0, near_term);
  EXPECT_LE(longer.eta(), here.eta());
  EXPECT_GE(longer.attempt_cycle(), here.attempt_cycle());
}

TEST_P(LinkSweep, SolvedAlphaHeraldsTheRequestedState) {
  // solve_alpha's answer, fed back through produced_state, must give a
  // single-click pair whose exact fidelity to the announced Bell state is
  // the model's fidelity(alpha) and meets the request.
  const auto [length_m, near_term] = GetParam();
  const qhw::PhotonicLinkModel link = make_link(length_m, near_term);
  const double f_max = link.max_fidelity();
  for (double frac : {0.25, 0.5, 0.75, 0.99}) {
    const double f_min = 0.5 + frac * (f_max - 0.5);
    double alpha = 0.0;
    if (f_max <= 0.5) {
      EXPECT_FALSE(link.solve_alpha(0.5 + 1e-6, &alpha));
      continue;
    }
    ASSERT_TRUE(link.solve_alpha(f_min, &alpha)) << "f_min=" << f_min;
    EXPECT_GE(alpha, qhw::PhotonicLinkModel::min_alpha);
    EXPECT_LE(alpha, qhw::PhotonicLinkModel::max_alpha);
    EXPECT_GE(link.fidelity(alpha), f_min - 1e-9);
    const auto state = link.produced_state(alpha);
    EXPECT_NEAR(state.fidelity(link.announced_bell()), link.fidelity(alpha),
                1e-9);
    EXPECT_TRUE(state.valid_density(1e-7));
    // The bright |11> term keeps every heralded pair off the
    // Bell-diagonal family.
    EXPECT_FALSE(state.is_bell_diagonal()) << "alpha=" << alpha;
  }
  double alpha = 0.0;
  EXPECT_FALSE(link.solve_alpha(f_max + 1e-6, &alpha));
}

INSTANTIATE_TEST_SUITE_P(
    LengthPresetGrid, LinkSweep,
    ::testing::Combine(::testing::Values(2.0, 50.0, 1000.0, 25000.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace qnetp::qstate
