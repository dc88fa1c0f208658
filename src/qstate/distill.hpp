// DEJMPS entanglement distillation (Deutsch et al., PRL 77, 2818 (1996)).
//
// Section 4.3 of the paper proposes layering distillation on top of the
// QNP: two pairs delivered between the same two nodes are consumed to
// produce, with some probability, one higher-fidelity pair. We implement
// the standard DEJMPS recurrence on Bell-diagonal states: inputs are
// twirled to their Bell-diagonal form (the states produced by the link
// layer and swaps are Bell-diagonal up to small corrections), the closed-
// form output coefficients are computed exactly, and success is sampled.
#pragma once

#include <array>

#include "qbase/rng.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::qstate {

/// Project a state onto its Bell-diagonal part (twirl): keeps the four
/// diagonal coefficients in the Bell basis and renormalises.
[[nodiscard]] BellDiagonal bell_diagonal_of(const TwoQubitState& state);

struct DistillResult {
  bool success = false;
  /// Probability of the success branch (reported for analysis).
  double success_probability = 0.0;
  /// The surviving pair's state; only meaningful on success.
  TwoQubitState state;
};

/// One DEJMPS round: consumes `a` and `b` (kept pair is `a`'s qubits).
/// Both pairs must be held between the same two nodes. Gate noise is
/// applied as a depolarizing probability on each qubit participating in
/// the bilateral CNOT, matching the swap noise convention.
[[nodiscard]] DistillResult dejmps(const TwoQubitState& a,
                                   const TwoQubitState& b,
                                   double gate_depolarizing, Rng& rng);

/// Closed-form DEJMPS output on Bell-diagonal inputs: returns the success
/// probability and writes the output coefficients. Used by tests and by
/// the control-plane planner.
double dejmps_map(const BellDiagonal& a, const BellDiagonal& b,
                  BellDiagonal* out);

}  // namespace qnetp::qstate
