#include "qstate/distill.hpp"

#include <algorithm>
#include <cmath>

#include "qbase/assert.hpp"

namespace qnetp::qstate {

BellDiagonal bell_diagonal_of(const TwoQubitState& state) {
  // Keep the Bell-basis diagonal, clamp rounding negatives to zero and
  // renormalise.
  BellDiagonal c{};
  for (BellIndex b : all_bell_indices())
    c[b.code()] = std::max(0.0, state.fidelity(b));
  const double sum = c[0] + c[1] + c[2] + c[3];
  QNETP_ASSERT_MSG(sum > 1e-12, "Bell-diagonal coefficients sum to zero");
  for (double& x : c) x /= sum;
  return c;
}

double dejmps_map(const BellDiagonal& a, const BellDiagonal& b,
                  BellDiagonal* out) {
  // Deutsch et al. use the letter order (A, B, C, D) =
  // (Phi+, Psi-, Psi+, Phi-); our code order is (Phi+, Psi+, Phi-, Psi-).
  const double a1 = a[0], b1 = a[3], c1 = a[1], d1 = a[2];
  const double a2 = b[0], b2 = b[3], c2 = b[1], d2 = b[2];

  const double n = (a1 + b1) * (a2 + b2) + (c1 + d1) * (c2 + d2);
  QNETP_ASSERT(n > 0.0);
  if (out != nullptr) {
    const double ap = (a1 * a2 + b1 * b2) / n;  // Phi+
    const double bp = (c1 * d2 + d1 * c2) / n;  // Psi-
    const double cp = (c1 * c2 + d1 * d2) / n;  // Psi+
    const double dp = (a1 * b2 + b1 * a2) / n;  // Phi-
    (*out)[0] = ap;
    (*out)[1] = cp;
    (*out)[2] = dp;
    (*out)[3] = bp;
  }
  return n;
}

DistillResult dejmps(const TwoQubitState& a, const TwoQubitState& b,
                     double gate_depolarizing, Rng& rng) {
  TwoQubitState na = a;
  TwoQubitState nb = b;
  if (gate_depolarizing > 0.0) {
    const Channel depol = Channel::depolarizing(gate_depolarizing);
    na.apply_channel(0, depol);
    na.apply_channel(1, depol);
    nb.apply_channel(0, depol);
    nb.apply_channel(1, depol);
  }
  const BellDiagonal da = bell_diagonal_of(na);
  const BellDiagonal db = bell_diagonal_of(nb);
  BellDiagonal out{};
  const double p_succ = dejmps_map(da, db, &out);

  DistillResult result;
  result.success_probability = p_succ;
  result.success = rng.bernoulli(std::clamp(p_succ, 0.0, 1.0));
  if (result.success) result.state = TwoQubitState::bell_diagonal(out);
  return result;
}

}  // namespace qnetp::qstate
