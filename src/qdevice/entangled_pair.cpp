#include "qdevice/entangled_pair.hpp"

#include <algorithm>

#include "qbase/assert.hpp"
#include "qstate/distill.hpp"

namespace qnetp::qdevice {

using qstate::Basis;
using qstate::BellIndex;
using qstate::Channel;
using qstate::Cplx;
using qstate::Mat2;
using qstate::Mat4;
using qstate::TwoQubitState;

EntangledPair::EntangledPair(PairId id, TwoQubitState state,
                             BellIndex announced, Side side0, Side side1,
                             TimePoint now)
    : id_(id), state_(std::move(state)), announced_(announced) {
  QNETP_ASSERT(id.valid());
  sides_[0] = SideState{side0, now};
  sides_[1] = SideState{side1, now};
}

const EntangledPair::Side& EntangledPair::side(int i) const {
  QNETP_ASSERT(i == 0 || i == 1);
  return sides_[i].info;
}

int EntangledPair::side_of(NodeId node, QubitId qubit) const {
  for (int i = 0; i < 2; ++i) {
    if (sides_[i].info.node == node && sides_[i].info.qubit == qubit)
      return i;
  }
  return -1;
}

void EntangledPair::rehome_side(int side, QubitId new_qubit,
                                qstate::MemoryDecay decay, TimePoint now) {
  QNETP_ASSERT(side == 0 || side == 1);
  advance_to(now);
  sides_[side].info.qubit = new_qubit;
  sides_[side].info.decay = decay;
}

void EntangledPair::advance_to(TimePoint now) {
  for (int i = 0; i < 2; ++i) {
    auto& s = sides_[i];
    QNETP_ASSERT_MSG(now >= s.last_advance, "time went backwards");
    const Duration dt = now - s.last_advance;
    if (dt.is_zero()) continue;
    s.last_advance = now;
    // No-decay sides (T1 = T2 = infinity, e.g. frozen or ideal storage
    // qubits) skip the decay pipeline entirely; everything else gets the
    // closed-form allocation-free application — no Channel is built.
    if (s.info.decay.trivial()) continue;
    state_.apply_decay(i, s.info.decay.params_for(dt));
  }
}

void EntangledPair::apply_extra_dephasing(int side, double lambda) {
  QNETP_ASSERT(side == 0 || side == 1);
  if (lambda <= 0.0) return;
  state_.apply_dephasing(side, std::min(1.0, lambda));
}

void EntangledPair::apply_channel(int side, const Channel& ch,
                                  TimePoint now) {
  advance_to(now);
  state_.apply_channel(side, ch);
}

double EntangledPair::oracle_fidelity(TimePoint now) {
  return oracle_fidelity(announced_, now);
}

double EntangledPair::oracle_fidelity(BellIndex idx, TimePoint now) {
  advance_to(now);
  return state_.fidelity(idx);
}

int EntangledPair::measure_side(int side, Basis basis, TimePoint now,
                                Rng& rng) {
  advance_to(now);
  return state_.measure_side(side, basis, rng);
}

void EntangledPair::pauli_correct_to(int side, BellIndex target,
                                     TimePoint now) {
  advance_to(now);
  state_.apply_correction(side, announced_, target);
  announced_ = target;
}

void EntangledPair::break_side(int discarded_side, TimePoint now) {
  QNETP_ASSERT(discarded_side == 0 || discarded_side == 1);
  advance_to(now);
  // Trace out the discarded qubit; rebuild the joint state as
  // (I/2) (x) reduced so later contractions involving the survivor remain
  // well-defined and correctly uncorrelated.
  const Mat4& rho = state_.rho();
  Mat2 reduced = Mat2::zero();
  if (discarded_side == 0) {
    for (std::size_t b = 0; b < 2; ++b)
      for (std::size_t bp = 0; bp < 2; ++bp) {
        Cplx acc = 0;
        for (std::size_t a = 0; a < 2; ++a) acc += rho(a * 2 + b, a * 2 + bp);
        reduced(b, bp) = acc;
      }
  } else {
    for (std::size_t a = 0; a < 2; ++a)
      for (std::size_t ap = 0; ap < 2; ++ap) {
        Cplx acc = 0;
        for (std::size_t b = 0; b < 2; ++b) acc += rho(a * 2 + b, ap * 2 + b);
        reduced(a, ap) = acc;
      }
  }
  Mat4 rebuilt = Mat4::zero();
  const Mat2 mixed{0.5, 0, 0, 0.5};
  const Mat2& left = (discarded_side == 0) ? mixed : reduced;
  const Mat2& right = (discarded_side == 0) ? reduced : mixed;
  rebuilt = qstate::kron(left, right);
  state_ = TwoQubitState(rebuilt);
  state_.renormalize();
  broken_ = true;
}

void EntangledPair::freeze_side(int side, TimePoint now) {
  QNETP_ASSERT(side == 0 || side == 1);
  advance_to(now);
  sides_[side].info.decay = qstate::MemoryDecay{};  // no further decay
}

bool EntangledPair::distill_with(EntangledPair& other,
                                 double gate_depolarizing, Rng& rng,
                                 TimePoint now) {
  QNETP_ASSERT_MSG(!broken_ && !other.broken_,
                   "cannot distill broken pairs");
  advance_to(now);
  other.advance_to(now);
  // Rotate both pairs into the Phi+ frame first: the DEJMPS recurrence is
  // written for Phi+-dominant Bell-diagonal states.
  const auto target = qstate::BellIndex::phi_plus();
  state_.apply_correction(0, announced_, target);
  announced_ = target;
  other.state_.apply_correction(0, other.announced_, target);
  other.announced_ = target;
  const auto result =
      qstate::dejmps(state_, other.state_, gate_depolarizing, rng);
  other.broken_ = true;  // its qubits were measured either way
  if (result.success) {
    state_ = result.state;
    return true;
  }
  broken_ = true;
  return false;
}

const TwoQubitState& EntangledPair::state_at(TimePoint now) {
  advance_to(now);
  return state_;
}

}  // namespace qnetp::qdevice
