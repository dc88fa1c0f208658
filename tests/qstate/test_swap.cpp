#include "qstate/swap.hpp"

#include <gtest/gtest.h>

#include "qbase/stats.hpp"
#include "qstate/analytic.hpp"

namespace qnetp::qstate {
namespace {

TEST(Swap, PureBellInputsFollowXorAlgebra) {
  // Property: swapping |B_a> and |B_b> with outcome m yields |B_{a^b^m}>.
  Rng rng(1);
  for (BellIndex a : all_bell_indices()) {
    for (BellIndex b : all_bell_indices()) {
      for (int trial = 0; trial < 16; ++trial) {
        const auto out = entanglement_swap(TwoQubitState::bell(a),
                                           TwoQubitState::bell(b),
                                           SwapNoise::ideal(), rng);
        const BellIndex expected = a ^ b ^ out.true_outcome;
        EXPECT_NEAR(out.state.fidelity(expected), 1.0, 1e-9)
            << a.to_string() << " x " << b.to_string() << " -> outcome "
            << out.true_outcome.to_string();
        EXPECT_EQ(out.announced_outcome, out.true_outcome);  // no noise
      }
    }
  }
}

TEST(Swap, OutcomesUniformForPureBellInputs) {
  Rng rng(2);
  int counts[4] = {0, 0, 0, 0};
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto out = entanglement_swap(
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::phi_plus()), SwapNoise::ideal(), rng);
    counts[out.true_outcome.code()]++;
    EXPECT_NEAR(out.probability, 0.25, 1e-9);
  }
  for (int c = 0; c < 4; ++c)
    EXPECT_NEAR(static_cast<double>(counts[c]) / n, 0.25, 0.03);
}

TEST(Swap, BellDiagonalInputsComposeByXorConvolution) {
  // Appendix C: for Bell-diagonal inputs l and r every outcome m has
  // probability 1/4 and the outer pair is Bell-diagonal with
  //   out[k] = sum_j l[j] * r[j ^ k ^ m].
  Rng coeff_rng(31004);
  Rng rng(31005);
  const auto random_coeffs = [&coeff_rng] {
    BellDiagonal c;
    double total = 0.0;
    for (double& x : c) {
      x = coeff_rng.uniform();
      total += x;
    }
    for (double& x : c) x /= total;
    return c;
  };
  int seen[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40; ++i) {
    const BellDiagonal l = random_coeffs();
    const BellDiagonal r = random_coeffs();
    const auto out =
        entanglement_swap(TwoQubitState::bell_diagonal(l),
                          TwoQubitState::bell_diagonal(r), SwapNoise::ideal(),
                          rng);
    EXPECT_NEAR(out.probability, 0.25, 1e-12);
    EXPECT_TRUE(out.state.is_bell_diagonal());
    const unsigned m = out.true_outcome.code();
    ++seen[m];
    for (unsigned k = 0; k < 4; ++k) {
      double expected = 0.0;
      for (unsigned j = 0; j < 4; ++j) expected += l[j] * r[j ^ k ^ m];
      EXPECT_NEAR(out.state.fidelity(BellIndex(static_cast<std::uint8_t>(k))),
                  expected, 1e-12)
          << "iteration " << i << " component " << k;
    }
  }
  for (int c = 0; c < 4; ++c) EXPECT_GT(seen[c], 0) << "outcome " << c;
}

TEST(Swap, RandomBellDiagonalSequencesMatchClosedForms) {
  // Random chains of the operations that keep a pair Bell-diagonal —
  // pure-dephasing memory decay, Pauli channels, frame corrections and
  // ideal swaps with fresh Bell-diagonal partners — must track the
  // Appendix C coefficient algebra at every step. A Pauli mixture with
  // probabilities q indexed by Bell-index delta (I: 0, X: 1, Z: 2, Y: 3)
  // maps c to out[k] = sum_d q[d] * c[k ^ d].
  Rng seq_rng(42001);
  const auto random_coeffs = [&seq_rng] {
    BellDiagonal c;
    double total = 0.0;
    for (double& x : c) {
      x = seq_rng.uniform();
      total += x;
    }
    for (double& x : c) x /= total;
    return c;
  };
  const auto pauli_mix = [](const BellDiagonal& c, const BellDiagonal& q) {
    BellDiagonal out{};
    for (unsigned k = 0; k < 4; ++k)
      for (unsigned d = 0; d < 4; ++d) out[k] += q[d] * c[k ^ d];
    return out;
  };
  for (int trial = 0; trial < 60; ++trial) {
    BellDiagonal c = random_coeffs();
    TwoQubitState s = TwoQubitState::bell_diagonal(c);
    for (int step = 0; step < 25; ++step) {
      const int op = static_cast<int>(seq_rng.uniform_int(4));
      const int side = static_cast<int>(seq_rng.uniform_int(2));
      switch (op) {
        case 0: {  // pure-dephasing memory decay (T1 = inf)
          const MemoryDecay decay{Duration::max(),
                                  Duration::seconds(seq_rng.uniform(0.5, 5))};
          const DecayParams params =
              decay.params_for(Duration::ms(seq_rng.uniform(0.1, 400)));
          s.apply_decay(side, params);
          c = pauli_mix(c, {1.0 - params.lambda / 2, 0.0, params.lambda / 2,
                            0.0});
          break;
        }
        case 1: {  // random Pauli channel (pi, px, py, pz)
          const BellDiagonal p = random_coeffs();
          s.apply_channel(side, Channel::pauli_channel(p[0], p[1], p[2], p[3]));
          c = pauli_mix(c, {p[0], p[1], p[3], p[2]});
          break;
        }
        case 2: {  // frame correction
          const BellIndex from{
              static_cast<std::uint8_t>(seq_rng.uniform_int(4))};
          const BellIndex to{static_cast<std::uint8_t>(seq_rng.uniform_int(4))};
          s.apply_correction(side, from, to);
          BellDiagonal q{};
          q[(from ^ to).code()] = 1.0;
          c = pauli_mix(c, q);
          break;
        }
        case 3: {  // ideal swap with a fresh random partner
          const BellDiagonal r = random_coeffs();
          Rng rng(seq_rng.next());
          const SwapOutcome out =
              entanglement_swap(s, TwoQubitState::bell_diagonal(r),
                                SwapNoise::ideal(), rng);
          ASSERT_NEAR(out.probability, 0.25, 1e-9) << "step " << step;
          const unsigned m = out.true_outcome.code();
          BellDiagonal next{};
          for (unsigned k = 0; k < 4; ++k)
            for (unsigned j = 0; j < 4; ++j) next[k] += c[j] * r[j ^ k ^ m];
          c = next;
          s = out.state;
          break;
        }
      }
      ASSERT_TRUE(s.is_bell_diagonal())
          << "trial " << trial << " step " << step << " op " << op;
      for (BellIndex b : all_bell_indices()) {
        ASSERT_NEAR(s.fidelity(b), c[b.code()], 1e-9)
            << "trial " << trial << " step " << step << " op " << op << " on "
            << b.to_string();
      }
    }
  }
}

TEST(Swap, WernerInputsMatchAnalyticFormula) {
  Rng rng(3);
  for (double f1 : {0.7, 0.85, 0.95}) {
    for (double f2 : {0.6, 0.9}) {
      RunningStats fid;
      for (int i = 0; i < 64; ++i) {
        const auto out = entanglement_swap(
            TwoQubitState::werner(f1, BellIndex::phi_plus()),
            TwoQubitState::werner(f2, BellIndex::phi_plus()),
            SwapNoise::ideal(), rng);
        const BellIndex expected =
            BellIndex::phi_plus() ^ BellIndex::phi_plus() ^ out.true_outcome;
        fid.add(out.state.fidelity(expected));
      }
      EXPECT_NEAR(fid.mean(), werner_swap_fidelity(f1, f2), 1e-6)
          << "f1=" << f1 << " f2=" << f2;
    }
  }
}

TEST(Swap, OutputIsValidDensityMatrix) {
  Rng rng(4);
  for (int i = 0; i < 32; ++i) {
    SwapNoise noise;
    noise.gate_depolarizing = 0.05;
    const auto out = entanglement_swap(
        TwoQubitState::werner(0.9, BellIndex::psi_plus()),
        TwoQubitState::werner(0.8, BellIndex::phi_minus()), noise, rng);
    EXPECT_TRUE(out.state.valid_density(1e-6));
  }
}

TEST(Swap, GateNoiseLowersFidelity) {
  Rng rng(5);
  RunningStats noiseless, noisy;
  for (int i = 0; i < 128; ++i) {
    const auto clean = entanglement_swap(
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::phi_plus()), SwapNoise::ideal(), rng);
    noiseless.add(clean.state.fidelity(clean.true_outcome));
    SwapNoise n;
    n.gate_depolarizing = 0.1;
    const auto dirty = entanglement_swap(
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::phi_plus()), n, rng);
    noisy.add(dirty.state.fidelity(dirty.true_outcome));
  }
  EXPECT_NEAR(noiseless.mean(), 1.0, 1e-9);
  EXPECT_LT(noisy.mean(), 0.95);
  EXPECT_GT(noisy.mean(), 0.75);
}

TEST(Swap, ReadoutErrorFlipsAnnouncementNotState) {
  Rng rng(6);
  SwapNoise n;
  n.readout_flip_prob = 0.5;
  int mismatches = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const auto out = entanglement_swap(
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::phi_plus()), n, rng);
    // The physical state still matches the TRUE outcome exactly.
    EXPECT_NEAR(out.state.fidelity(out.true_outcome), 1.0, 1e-9);
    if (out.announced_outcome != out.true_outcome) ++mismatches;
  }
  // With q=0.5 per bit, 3/4 of announcements differ.
  EXPECT_NEAR(static_cast<double>(mismatches) / trials, 0.75, 0.07);
}

TEST(Swap, ChainOfSwapsTracksBellFrame) {
  // Simulate a 4-link chain: swap pairwise and track the frame by XOR;
  // final state must match the tracked Bell index.
  Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    TwoQubitState pairs[4] = {
        TwoQubitState::bell(BellIndex::phi_plus()),
        TwoQubitState::bell(BellIndex::psi_plus()),
        TwoQubitState::bell(BellIndex::phi_minus()),
        TwoQubitState::bell(BellIndex::psi_minus()),
    };
    BellIndex tracked = BellIndex::phi_plus() ^ BellIndex::psi_plus() ^
                        BellIndex::phi_minus() ^ BellIndex::psi_minus();
    TwoQubitState acc = pairs[0];
    for (int k = 1; k < 4; ++k) {
      const auto out =
          entanglement_swap(acc, pairs[k], SwapNoise::ideal(), rng);
      tracked = tracked ^ out.true_outcome;
      acc = out.state;
    }
    EXPECT_NEAR(acc.fidelity(tracked), 1.0, 1e-9);
  }
}

TEST(Swap, MixedStateInputsGiveHalfFidelity) {
  Rng rng(8);
  const auto out = entanglement_swap(
      TwoQubitState::maximally_mixed(),
      TwoQubitState::bell(BellIndex::phi_plus()), SwapNoise::ideal(), rng);
  // Swapping junk with anything yields junk.
  for (BellIndex b : all_bell_indices())
    EXPECT_NEAR(out.state.fidelity(b), 0.25, 1e-9);
}

}  // namespace
}  // namespace qnetp::qstate
