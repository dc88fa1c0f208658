#include "qstate/distill.hpp"

#include <gtest/gtest.h>

#include "qbase/assert.hpp"

namespace qnetp::qstate {
namespace {

TEST(BellDiagonal, ExtractAndReconstruct) {
  const BellDiagonal coeffs{0.7, 0.1, 0.15, 0.05};
  const TwoQubitState s = TwoQubitState::bell_diagonal(coeffs);
  const BellDiagonal back = bell_diagonal_of(s);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(back[i], coeffs[i], 1e-12);
  EXPECT_TRUE(s.valid_density());
  EXPECT_TRUE(s.is_bell_diagonal());
}

TEST(BellDiagonal, WernerExtraction) {
  const TwoQubitState s = TwoQubitState::werner(0.85, BellIndex::phi_plus());
  const BellDiagonal d = bell_diagonal_of(s);
  EXPECT_NEAR(d[0], 0.85, 1e-12);
  EXPECT_NEAR(d[1], 0.05, 1e-12);
  EXPECT_NEAR(d[2], 0.05, 1e-12);
  EXPECT_NEAR(d[3], 0.05, 1e-12);
}

TEST(BellDiagonal, ExtractionClampsAndRenormalises) {
  // Rounding negatives clamp to zero and the rest renormalise to one.
  const TwoQubitState s =
      TwoQubitState::bell_diagonal({0.6, -1e-12, 0.2, 0.2});
  const BellDiagonal d = bell_diagonal_of(s);
  EXPECT_EQ(d[1], 0.0);
  EXPECT_NEAR(d[0] + d[1] + d[2] + d[3], 1.0, 1e-15);
  // A state with no Bell-basis mass cannot be normalised.
  EXPECT_THROW((void)bell_diagonal_of(TwoQubitState::bell_diagonal({})),
               AssertionError);
}

TEST(Dejmps, WernerRecurrenceKnownValue) {
  // For two identical Werner pairs with F = 0.7 the distilled fidelity is
  // (F^2 + ((1-F)/3)^2) / (F^2 + 2F(1-F)/3 + 5((1-F)/3)^2) ~= 0.7353.
  const BellDiagonal w{0.7, 0.1, 0.1, 0.1};
  BellDiagonal out{};
  const double p = dejmps_map(w, w, &out);
  EXPECT_NEAR(p, 0.68, 1e-12);
  EXPECT_NEAR(out[0], 0.5 / 0.68, 1e-12);
}

class DejmpsImproves : public ::testing::TestWithParam<double> {};

TEST_P(DejmpsImproves, FidelityIncreasesAboveHalf) {
  const double f = GetParam();
  const BellDiagonal w{f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3};
  BellDiagonal out{};
  dejmps_map(w, w, &out);
  EXPECT_GT(out[0], f) << "DEJMPS must improve fidelity for F > 0.5";
}

INSTANTIATE_TEST_SUITE_P(WernerSweep, DejmpsImproves,
                         ::testing::Values(0.55, 0.6, 0.7, 0.8, 0.9, 0.95));

TEST(Dejmps, OutputNormalised) {
  const BellDiagonal a{0.6, 0.2, 0.1, 0.1};
  const BellDiagonal b{0.8, 0.05, 0.1, 0.05};
  BellDiagonal out{};
  const double p = dejmps_map(a, b, &out);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
  double total = 0;
  for (double x : out) {
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Dejmps, PerfectPairsAlwaysSucceedPerfectly) {
  Rng rng(1);
  const auto r = dejmps(TwoQubitState::bell(BellIndex::phi_plus()),
                        TwoQubitState::bell(BellIndex::phi_plus()), 0.0, rng);
  EXPECT_TRUE(r.success);
  EXPECT_NEAR(r.success_probability, 1.0, 1e-12);
  EXPECT_NEAR(r.state.fidelity(BellIndex::phi_plus()), 1.0, 1e-9);
}

TEST(Dejmps, SuccessRateMatchesProbability) {
  Rng rng(2);
  const TwoQubitState w = TwoQubitState::werner(0.7, BellIndex::phi_plus());
  int succ = 0;
  const int n = 2000;
  double expected = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto r = dejmps(w, w, 0.0, rng);
    expected = r.success_probability;
    if (r.success) ++succ;
  }
  EXPECT_NEAR(static_cast<double>(succ) / n, expected, 0.03);
}

TEST(Dejmps, GateNoiseReducesOutputFidelity) {
  Rng rng(3);
  const TwoQubitState w = TwoQubitState::werner(0.9, BellIndex::phi_plus());
  // Find a successful noiseless round and a successful noisy round.
  double clean_f = 0, noisy_f = 0;
  for (int i = 0; i < 100 && clean_f == 0; ++i) {
    const auto r = dejmps(w, w, 0.0, rng);
    if (r.success) clean_f = r.state.fidelity(BellIndex::phi_plus());
  }
  for (int i = 0; i < 100 && noisy_f == 0; ++i) {
    const auto r = dejmps(w, w, 0.05, rng);
    if (r.success) noisy_f = r.state.fidelity(BellIndex::phi_plus());
  }
  ASSERT_GT(clean_f, 0.0);
  ASSERT_GT(noisy_f, 0.0);
  EXPECT_LT(noisy_f, clean_f);
}

TEST(Dejmps, BelowHalfInputsDoNotImprove) {
  // DEJMPS cannot create entanglement from separable states.
  const BellDiagonal junk{0.25, 0.25, 0.25, 0.25};
  BellDiagonal out{};
  dejmps_map(junk, junk, &out);
  EXPECT_NEAR(out[0], 0.25, 1e-12);
}

}  // namespace
}  // namespace qnetp::qstate
