#include "qdevice/entangled_pair.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qnetp::qdevice {
namespace {

using namespace qnetp::literals;
using qstate::Basis;
using qstate::BellIndex;
using qstate::MemoryDecay;
using qstate::TwoQubitState;

EntangledPair::Side side(std::uint64_t node, std::uint64_t qubit,
                         MemoryDecay decay = MemoryDecay{}) {
  return EntangledPair::Side{NodeId{node}, QubitId{qubit}, decay};
}

TEST(EntangledPair, ConstructionAndLookup) {
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::psi_plus()),
                  BellIndex::psi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin());
  EXPECT_EQ(p.id(), PairId{1});
  EXPECT_EQ(p.announced_bell(), BellIndex::psi_plus());
  EXPECT_EQ(p.side_of(NodeId{1}, QubitId{10}), 0);
  EXPECT_EQ(p.side_of(NodeId{2}, QubitId{20}), 1);
  EXPECT_EQ(p.side_of(NodeId{3}, QubitId{10}), -1);
  EXPECT_FALSE(p.broken());
}

TEST(EntangledPair, LazyDecoherenceAdvances) {
  const MemoryDecay decay{Duration::max(), 1_s};
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10, decay),
                  side(2, 20, decay), TimePoint::origin());
  // After 1 s on both sides, coherence drops by e^-2.
  const double f = p.oracle_fidelity(TimePoint::origin() + 1_s);
  EXPECT_NEAR(f, 0.5 * (1.0 + std::exp(-2.0)), 1e-9);
  // Pure dephasing keeps the pair Bell-diagonal.
  EXPECT_TRUE(p.state_at(TimePoint::origin() + 1_s).is_bell_diagonal());
}

TEST(EntangledPair, AdvanceIsIdempotentAtSameInstant) {
  const MemoryDecay decay{Duration::max(), 1_s};
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10, decay),
                  side(2, 20, decay), TimePoint::origin());
  const TimePoint t = TimePoint::origin() + 500_ms;
  const double f1 = p.oracle_fidelity(t);
  const double f2 = p.oracle_fidelity(t);
  EXPECT_DOUBLE_EQ(f1, f2);
}

TEST(EntangledPair, IncrementalAdvanceEqualsOneShot) {
  const MemoryDecay decay{Duration::max(), 2_s};
  EntangledPair a(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10, decay),
                  side(2, 20, decay), TimePoint::origin());
  EntangledPair b(PairId{2}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 11, decay),
                  side(2, 21, decay), TimePoint::origin());
  // a: advance in 10 steps; b: advance once.
  for (int i = 1; i <= 10; ++i) {
    a.advance_to(TimePoint::origin() + Duration::ms(100 * i));
  }
  const double fa = a.oracle_fidelity(TimePoint::origin() + 1_s);
  const double fb = b.oracle_fidelity(TimePoint::origin() + 1_s);
  EXPECT_NEAR(fa, fb, 1e-9);
}

TEST(EntangledPair, TimeBackwardsAsserts) {
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin() + 1_s);
  EXPECT_THROW(p.advance_to(TimePoint::origin()), AssertionError);
}

TEST(EntangledPair, RehomeChangesDecayModel) {
  const MemoryDecay fast{Duration::max(), 10_ms};
  const MemoryDecay slow{Duration::max(), 60_s};
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10, fast),
                  side(2, 20, MemoryDecay{}), TimePoint::origin());
  // Move side 0 into slow storage at t=0: decay should now be slow.
  p.rehome_side(0, QubitId{99}, slow, TimePoint::origin());
  EXPECT_EQ(p.side_of(NodeId{1}, QubitId{99}), 0);
  EXPECT_EQ(p.side_of(NodeId{1}, QubitId{10}), -1);
  const double f = p.oracle_fidelity(TimePoint::origin() + 1_s);
  EXPECT_GT(f, 0.98);  // 1 s on a 60 s memory barely hurts
}

TEST(EntangledPair, MeasurementCorrelationsSurviveAcrossSides) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::psi_plus()),
                    BellIndex::psi_plus(), side(1, 10), side(2, 20),
                    TimePoint::origin());
    const int a = p.measure_side(0, Basis::z, TimePoint::origin(), rng);
    const int b = p.measure_side(1, Basis::z, TimePoint::origin(), rng);
    EXPECT_NE(a, b);  // Psi+ anti-correlated in Z
  }
}

TEST(EntangledPair, PauliCorrectToChangesFrameAndState) {
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::psi_plus()),
                  BellIndex::psi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin());
  p.pauli_correct_to(0, BellIndex::phi_plus(), TimePoint::origin());
  EXPECT_EQ(p.announced_bell(), BellIndex::phi_plus());
  EXPECT_NEAR(p.oracle_fidelity(TimePoint::origin()), 1.0, 1e-9);
}

TEST(EntangledPair, BreakSideLeavesUncorrelatedReducedState) {
  Rng rng(11);
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin());
  p.break_side(0, TimePoint::origin());
  EXPECT_TRUE(p.broken());
  // Fidelity to any Bell state is now 0.25 (junk).
  for (BellIndex b : qstate::all_bell_indices()) {
    EXPECT_NEAR(p.oracle_fidelity(b, TimePoint::origin()), 0.25, 1e-9);
  }
  // Surviving side measures 0/1 with equal probability.
  int zeros = 0;
  for (int i = 0; i < 400; ++i) {
    EntangledPair q(PairId{2}, TwoQubitState::bell(BellIndex::phi_plus()),
                    BellIndex::phi_plus(), side(1, 10), side(2, 20),
                    TimePoint::origin());
    q.break_side(0, TimePoint::origin());
    zeros +=
        (q.measure_side(1, Basis::z, TimePoint::origin(), rng) == 0) ? 1 : 0;
  }
  EXPECT_NEAR(zeros / 400.0, 0.5, 0.08);
}

TEST(EntangledPair, NoDecaySidesStayOnFastPathAndLoseNothing) {
  // Both sides T1 = T2 = infinity: advance must be a pure bookkeeping
  // update — no channel application, so the Werner state is untouched.
  EntangledPair p(PairId{1}, TwoQubitState::werner(0.9, BellIndex::psi_plus()),
                  BellIndex::psi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin());
  for (int i = 1; i <= 50; ++i) {
    p.advance_to(TimePoint::origin() + Duration::seconds(i));
  }
  EXPECT_TRUE(p.state_at(TimePoint::origin() + 51_s).is_bell_diagonal());
  EXPECT_NEAR(p.oracle_fidelity(TimePoint::origin() + 60_s), 0.9, 1e-12);
}

TEST(EntangledPair, FiniteT1AdvanceMatchesLegacyChannelPipeline) {
  // The allocation-free decay application must agree with building the
  // explicit Kraus channel for the same interval; finite T1 takes the
  // state out of the Bell-diagonal family.
  const MemoryDecay electron{3600_s, 60_s};
  const MemoryDecay carbon{360_s, 60_s};
  EntangledPair p(PairId{1}, TwoQubitState::werner(0.93, BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10, electron),
                  side(2, 20, carbon), TimePoint::origin());
  TwoQubitState reference =
      TwoQubitState::werner(0.93, BellIndex::phi_plus());
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 20; ++i) {
    const Duration dt = Duration::ms(37 * (i + 1));
    t += dt;
    reference.apply_channel(0, electron.for_interval(dt));
    reference.apply_channel(1, carbon.for_interval(dt));
    const double f = p.oracle_fidelity(t);
    EXPECT_NEAR(f, reference.fidelity(BellIndex::phi_plus()), 1e-9)
        << "step " << i;
  }
  EXPECT_FALSE(p.state_at(t).is_bell_diagonal());
}

TEST(EntangledPair, ExtraDephasingReducesCoherence) {
  EntangledPair p(PairId{1}, TwoQubitState::bell(BellIndex::phi_plus()),
                  BellIndex::phi_plus(), side(1, 10), side(2, 20),
                  TimePoint::origin());
  p.apply_extra_dephasing(0, 0.5);
  const double f = p.oracle_fidelity(TimePoint::origin());
  EXPECT_NEAR(f, 0.75, 1e-9);  // off-diagonal halved
  EXPECT_TRUE(p.state_at(TimePoint::origin()).is_bell_diagonal());
}

}  // namespace
}  // namespace qnetp::qdevice
