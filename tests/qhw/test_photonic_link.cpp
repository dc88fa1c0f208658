#include "qhw/photonic_link.hpp"

#include <gtest/gtest.h>

#include "qbase/stats.hpp"

namespace qnetp::qhw {
namespace {

using namespace qnetp::literals;

PhotonicLinkModel lab_link() {
  return PhotonicLinkModel(simulation_preset(), FiberParams::lab(2.0));
}

TEST(PhotonicLink, EtaComposition) {
  const PhotonicLinkModel link = lab_link();
  const HardwareParams hw = simulation_preset();
  const FiberParams f = FiberParams::lab(2.0);
  const double expected = hw.phys.p_zero_phonon *
                          hw.phys.collection_efficiency *
                          f.transmission(0.5) * hw.phys.p_detection;
  EXPECT_NEAR(link.eta(), expected, 1e-12);
  EXPECT_NEAR(link.eta(), 0.012, 1e-4);
}

TEST(PhotonicLink, FidelityDecreasesBeyondOptimum) {
  const PhotonicLinkModel link = lab_link();
  double prev = link.max_fidelity();
  for (double a : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    ASSERT_GT(a, link.optimal_alpha());
    const double f = link.fidelity(a);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(PhotonicLink, DarkCountsDepressFidelityAtTinyAlpha) {
  // Physically: at vanishing bright-state population almost every herald
  // is a dark count, so the fidelity optimum sits at alpha > min_alpha.
  const PhotonicLinkModel link = lab_link();
  EXPECT_GT(link.optimal_alpha(), PhotonicLinkModel::min_alpha);
  EXPECT_LT(link.fidelity(PhotonicLinkModel::min_alpha),
            link.max_fidelity());
  EXPECT_GE(link.max_fidelity(),
            link.fidelity(link.optimal_alpha() * 2.0));
}

TEST(PhotonicLink, SuccessProbIncreasesWithAlpha) {
  const PhotonicLinkModel link = lab_link();
  double prev = 0.0;
  for (double a : {0.001, 0.01, 0.05, 0.1, 0.2, 0.4}) {
    const double p = link.success_prob(a);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(PhotonicLink, ProducedStateIsPhysical) {
  const PhotonicLinkModel link = lab_link();
  for (double a : {0.001, 0.05, 0.3, 0.5}) {
    const auto state = link.produced_state(a);
    EXPECT_TRUE(state.valid_density(1e-7)) << "alpha=" << a;
    EXPECT_NEAR(state.rho().trace().real(), 1.0, 1e-9);
    // The bright |11> admixture leaves the Bell-diagonal family.
    EXPECT_FALSE(state.is_bell_diagonal()) << "alpha=" << a;
  }
}

TEST(PhotonicLink, AnnouncedBellIsBestGuess) {
  const PhotonicLinkModel link = lab_link();
  const auto state = link.produced_state(0.05);
  const auto [best, f] = state.best_bell();
  EXPECT_EQ(best, link.announced_bell());
  EXPECT_GT(f, 0.9);
}

TEST(PhotonicLink, SolveAlphaMeetsRequestedFidelity) {
  const PhotonicLinkModel link = lab_link();
  for (double f_min : {0.8, 0.9, 0.95, 0.98}) {
    double alpha = 0.0;
    ASSERT_TRUE(link.solve_alpha(f_min, &alpha)) << f_min;
    EXPECT_GE(link.fidelity(alpha), f_min - 1e-9);
    // The solution is tight: 1% more alpha would violate (unless clamped
    // at max_alpha).
    if (alpha < PhotonicLinkModel::max_alpha - 1e-9) {
      EXPECT_LT(link.fidelity(alpha * 1.05), f_min + 2e-3);
    }
  }
}

TEST(PhotonicLink, SolveAlphaFailsAboveMaxFidelity) {
  const PhotonicLinkModel link = lab_link();
  double alpha = 0.0;
  EXPECT_FALSE(link.solve_alpha(0.99999, &alpha));
  EXPECT_TRUE(link.solve_alpha(link.max_fidelity() - 1e-6, &alpha));
}

TEST(PhotonicLink, Fig5CalibrationAnchor) {
  // The paper's Fig. 5: mean ~10 ms per F=0.95 pair over 2 m, 95% of pairs
  // within ~30 ms. Verify the model reproduces this within tolerance.
  const PhotonicLinkModel link = lab_link();
  double alpha = 0.0;
  ASSERT_TRUE(link.solve_alpha(0.95, &alpha));
  const double mean_ms = link.mean_generation_time(alpha).as_ms();
  EXPECT_GT(mean_ms, 6.0);
  EXPECT_LT(mean_ms, 14.0);
  const double p95_ms = link.generation_time_quantile(alpha, 0.95).as_ms();
  EXPECT_GT(p95_ms, 2.0 * mean_ms);
  EXPECT_LT(p95_ms, 3.5 * mean_ms);
  EXPECT_LT(p95_ms, 40.0);
}

TEST(PhotonicLink, SampleGenerationMatchesMean) {
  const PhotonicLinkModel link = lab_link();
  Rng rng(3);
  double alpha = 0.0;
  ASSERT_TRUE(link.solve_alpha(0.9, &alpha));
  RunningStats elapsed_ms;
  for (int i = 0; i < 4000; ++i) {
    const auto s = link.sample_generation(alpha, rng);
    EXPECT_GE(s.attempts, 1u);
    elapsed_ms.add(s.elapsed.as_ms());
  }
  const double expect_ms = link.mean_generation_time(alpha).as_ms();
  EXPECT_NEAR(elapsed_ms.mean(), expect_ms, expect_ms * 0.1);
}

TEST(PhotonicLink, QuantileInvertsGeometricCdf) {
  const PhotonicLinkModel link = lab_link();
  Rng rng(5);
  double alpha = 0.0;
  ASSERT_TRUE(link.solve_alpha(0.95, &alpha));
  const Duration q85 = link.generation_time_quantile(alpha, 0.85);
  int within = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (link.sample_generation(alpha, rng).elapsed <= q85) ++within;
  }
  EXPECT_NEAR(static_cast<double>(within) / n, 0.85, 0.03);
}

TEST(PhotonicLink, NearTermLinkIsMuchSlowerAndNoisier) {
  const PhotonicLinkModel lab = lab_link();
  const PhotonicLinkModel nt(near_term_preset(),
                             FiberParams::telecom(25000.0));
  EXPECT_LT(nt.eta(), lab.eta() / 10.0);
  EXPECT_LT(nt.max_fidelity(), lab.max_fidelity());
  EXPECT_GT(nt.max_fidelity(), 0.8);  // still usable for F=0.5 end-to-end
  // Attempt cycle dominated by 12.5 km midpoint round trip (125 us).
  EXPECT_GT(nt.attempt_cycle().as_us(), 125.0);
  double alpha = 0.0;
  ASSERT_TRUE(nt.solve_alpha(0.75, &alpha));
  EXPECT_GT(nt.mean_generation_time(alpha).as_ms(), 100.0);
}

TEST(PhotonicLink, DarkCountsPolluteLongLinks) {
  // At 25 km the signal is weak enough that dark counts contribute a
  // visible fraction of heralds.
  const PhotonicLinkModel nt(near_term_preset(),
                             FiberParams::telecom(25000.0));
  EXPECT_GT(nt.dark_fraction(0.05), 0.0);
  const PhotonicLinkModel lab = lab_link();
  EXPECT_LT(lab.dark_fraction(0.05), nt.dark_fraction(0.05));
}

TEST(PhotonicLink, AttemptCycleComposition) {
  const PhotonicLinkModel link = lab_link();
  const HardwareParams hw = simulation_preset();
  const Duration expected = hw.gates.electron_init.duration +
                            hw.phys.tau_e +
                            FiberParams::lab(2.0).propagation_delay(0.5) * 2.0 +
                            hw.phys.attempt_overhead;
  EXPECT_EQ(link.attempt_cycle(), expected);
  EXPECT_NEAR(link.attempt_cycle().as_us(), 11.9, 0.2);
}

}  // namespace
}  // namespace qnetp::qhw
