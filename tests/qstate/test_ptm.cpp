// The Pauli-transfer-matrix superoperators must reproduce the naive
// kron-expanded Kraus application exactly (they replace it on the hot
// path), for every factory channel and for random states.
#include "qstate/ptm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qbase/rng.hpp"
#include "qstate/bell.hpp"
#include "qstate/channels.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::qstate {
namespace {

using namespace qnetp::literals;

/// Reference implementation: per-Kraus kron expansion (the pre-PTM path).
Mat4 naive_apply_to_side(const Mat4& rho, std::span<const Mat2> kraus,
                         int side) {
  Mat4 out = Mat4::zero();
  const Mat2 id = Mat2::identity();
  for (const auto& k : kraus) {
    const Mat4 big = (side == 0) ? kron(k, id) : kron(id, k);
    out += big * rho * big.adjoint();
  }
  return out;
}

Mat2 naive_apply(const Mat2& rho, std::span<const Mat2> kraus) {
  Mat2 out = Mat2::zero();
  for (const auto& k : kraus) out = out + k * rho * k.adjoint();
  return out;
}

/// A random two-qubit density matrix: rho = A A^dag / Tr.
Mat4 random_density(Rng& rng) {
  Mat4 a;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      a(i, j) = Cplx{rng.normal(), rng.normal()};
  Mat4 rho = a * a.adjoint();
  const double tr = rho.trace().real();
  return rho * Cplx{1.0 / tr, 0};
}

std::vector<Channel> factory_channels(double p) {
  return {
      Channel::identity(),
      Channel::dephasing(p),
      Channel::amplitude_damping(p),
      Channel::depolarizing(p),
      Channel::bit_flip(p),
      Channel::pauli_channel(1.0 - p, p / 2, p / 3, p / 6),
      Channel::unitary(pauli_y()),
      // Non-Pauli unitary: a rotation mixing all Pauli axes.
      Channel::unitary(Mat2{Cplx{std::cos(0.3), 0},
                            Cplx{-std::sin(0.3) * 0.6, -std::sin(0.3) * 0.8},
                            Cplx{std::sin(0.3) * 0.6, -std::sin(0.3) * 0.8},
                            Cplx{std::cos(0.3), 0}}),
  };
}

TEST(Ptm, MatchesNaiveKrausOnBothSides) {
  Rng rng(77001);
  for (double p : {0.0, 0.05, 0.3, 0.8, 1.0}) {
    for (const Channel& ch : factory_channels(p)) {
      for (int side : {0, 1}) {
        for (int i = 0; i < 10; ++i) {
          const Mat4 rho = random_density(rng);
          const Mat4 expect = naive_apply_to_side(rho, ch.kraus(), side);
          const Mat4 got = ch.apply_to_side(rho, side);
          EXPECT_TRUE(got.approx_equal(expect, 1e-12))
              << "p=" << p << " side=" << side;
        }
      }
    }
  }
}

TEST(Ptm, SingleQubitApplyMatchesNaive) {
  Rng rng(77002);
  for (double p : {0.1, 0.6}) {
    for (const Channel& ch : factory_channels(p)) {
      Mat2 sigma{Cplx{rng.uniform(), 0}, Cplx{rng.normal(), rng.normal()},
                 Cplx{rng.normal(), rng.normal()}, Cplx{rng.uniform(), 0}};
      // Hermitize so it is a (subnormalised) physical operator.
      sigma = (sigma + sigma.adjoint()) * Cplx{0.5, 0};
      const Mat2 expect = naive_apply(sigma, ch.kraus());
      const Mat2 got = ch.apply(sigma);
      EXPECT_TRUE(got.approx_equal(expect, 1e-12)) << "p=" << p;
    }
  }
}

TEST(Ptm, DecayClosedFormMatchesKrausComposition) {
  // Ptm4::decay(gamma, lambda) must equal the PTM of the amplitude-damping
  // + dephasing Kraus composition MemoryDecay builds.
  const MemoryDecay decay{2_s, 1.5_s};
  for (Duration dt : {Duration::ms(1), Duration::ms(400), Duration::seconds(3)}) {
    const DecayParams params = decay.params_for(dt);
    const Channel ch = decay.for_interval(dt);
    const Ptm4 closed = Ptm4::decay(params.gamma, params.lambda);
    EXPECT_TRUE(closed.approx_equal(ch.ptm(), 1e-12)) << dt.to_string();
  }
}

TEST(Ptm, DephasingClosedForm) {
  const double lambda = 0.37;
  EXPECT_TRUE(Ptm4::dephasing(lambda).approx_equal(
      Channel::dephasing(lambda).ptm(), 1e-12));
}

TEST(Ptm, CompositionMatchesSequentialApplication) {
  Rng rng(77003);
  const Ptm4 a = Channel::dephasing(0.3).ptm();
  const Ptm4 b = Channel::amplitude_damping(0.2).ptm();
  const Ptm4 ba = b * a;
  for (int i = 0; i < 5; ++i) {
    Mat4 rho = random_density(rng);
    Mat4 seq = rho;
    apply_ptm_to_side(seq, a, 0);
    apply_ptm_to_side(seq, b, 0);
    Mat4 comp = rho;
    apply_ptm_to_side(comp, ba, 0);
    EXPECT_TRUE(comp.approx_equal(seq, 1e-12));
  }
}

TEST(Channels, InlineKrausCapacityAndMetadata) {
  // The T1+T2 composition fills the inline capacity exactly.
  const MemoryDecay decay{1_s, 1_s};
  const Channel full = decay.for_interval(0.5_s);
  EXPECT_EQ(full.kraus().size(), Channel::kMaxKraus);
  EXPECT_TRUE(full.is_trace_preserving(1e-9));
}

TEST(Channels, OversizedCompositionRecompressesExactly) {
  Rng rng(77004);
  // 4 x 2 and 2 x 4 raw operator products: both exceed the inline
  // capacity and must be recompressed through the Choi matrix into an
  // equivalent (trace-preserving) <= 4 operator set.
  const std::vector<std::pair<Channel, Channel>> cases = {
      {Channel::depolarizing(0.3), Channel::dephasing(0.5)},
      {Channel::amplitude_damping(0.2), Channel::depolarizing(0.4)},
      {Channel::depolarizing(0.25),
       Channel::pauli_channel(0.6, 0.2, 0.15, 0.05)},
  };
  for (const auto& [outer, inner] : cases) {
    const Channel composed = outer.after(inner);
    EXPECT_LE(composed.kraus().size(), Channel::kMaxKraus);
    EXPECT_TRUE(composed.is_trace_preserving(1e-9));
    for (int side : {0, 1}) {
      for (int i = 0; i < 5; ++i) {
        const Mat4 rho = random_density(rng);
        const Mat4 seq =
            outer.apply_to_side(inner.apply_to_side(rho, side), side);
        const Mat4 got = composed.apply_to_side(rho, side);
        EXPECT_TRUE(got.approx_equal(seq, 1e-9));
      }
    }
  }
}

}  // namespace
}  // namespace qnetp::qstate
