#include "qstate/two_qubit_state.hpp"

#include <algorithm>
#include <cmath>

#include "qbase/assert.hpp"

namespace qnetp::qstate {

TwoQubitState::TwoQubitState()
    : TwoQubitState(bell_diagonal({0.25, 0.25, 0.25, 0.25})) {}

TwoQubitState::TwoQubitState(const Mat4& rho) : rho_(rho) {}

TwoQubitState TwoQubitState::bell(BellIndex idx) {
  BellDiagonal c{};
  c[idx.code()] = 1.0;
  return bell_diagonal(c);
}

TwoQubitState TwoQubitState::werner(double fidelity, BellIndex idx) {
  QNETP_ASSERT(fidelity >= 0.0 && fidelity <= 1.0);
  const double rest = (1.0 - fidelity) / 3.0;
  BellDiagonal c{rest, rest, rest, rest};
  c[idx.code()] = fidelity;
  return bell_diagonal(c);
}

TwoQubitState TwoQubitState::maximally_mixed() { return TwoQubitState(); }

TwoQubitState TwoQubitState::bell_diagonal(const BellDiagonal& c) {
  // rho = sum_i c_i |B_i><B_i| written out: the Phi states live on the
  // {|00>, |11>} block, the Psi states on {|01>, |10>}.
  Mat4 rho = Mat4::zero();
  rho(0, 0) = rho(3, 3) = 0.5 * (c[0] + c[2]);
  rho(0, 3) = rho(3, 0) = 0.5 * (c[0] - c[2]);
  rho(1, 1) = rho(2, 2) = 0.5 * (c[1] + c[3]);
  rho(1, 2) = rho(2, 1) = 0.5 * (c[1] - c[3]);
  return TwoQubitState(rho);
}

TwoQubitState TwoQubitState::computational(int b1, int b2) {
  QNETP_ASSERT((b1 == 0 || b1 == 1) && (b2 == 0 || b2 == 1));
  Mat4 rho = Mat4::zero();
  const std::size_t idx = static_cast<std::size_t>(b1 * 2 + b2);
  rho(idx, idx) = 1;
  return TwoQubitState(rho);
}

bool TwoQubitState::is_bell_diagonal() const {
  // Exactly the matrices of bell_diagonal(): equal diagonals and a real
  // anti-diagonal within each block, nothing coupling the two blocks.
  constexpr double tol = 1e-12;
  const auto near = [](Cplx a, Cplx b) { return std::abs(a - b) <= tol; };
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      const bool same_block = ((i ^ j) == 0) || ((i ^ j) == 3);
      if (!same_block && !near(rho_(i, j), 0.0)) return false;
    }
  return near(rho_(0, 0), rho_(3, 3)) && near(rho_(1, 1), rho_(2, 2)) &&
         std::abs(rho_(0, 3).imag()) <= tol &&
         std::abs(rho_(1, 2).imag()) <= tol;
}

double TwoQubitState::fidelity(BellIndex idx) const {
  return expectation(rho_, bell_vector(idx));
}

std::pair<BellIndex, double> TwoQubitState::best_bell() const {
  BellIndex best;
  double best_f = -1.0;
  for (BellIndex b : all_bell_indices()) {
    const double f = fidelity(b);
    if (f > best_f) {
      best_f = f;
      best = b;
    }
  }
  return {best, best_f};
}

void TwoQubitState::apply_channel(int side, const Channel& ch) {
  QNETP_ASSERT(side == 0 || side == 1);
  apply_ptm_to_side(rho_, ch.ptm(), side);
}

void TwoQubitState::apply_pauli(int side, const Mat2& pauli) {
  apply_channel(side, Channel::unitary(pauli));
}

void TwoQubitState::apply_correction(int side, BellIndex from, BellIndex to) {
  apply_pauli(side, pauli_correction(from, to));
}

void TwoQubitState::apply_decay(int side, const DecayParams& params) {
  QNETP_ASSERT(side == 0 || side == 1);
  if (params.is_identity()) return;
  if (params.gamma <= 0.0) {
    apply_dephasing(side, params.lambda);
    return;
  }
  apply_ptm_to_side(rho_, Ptm4::decay(params.gamma, params.lambda), side);
}

void TwoQubitState::apply_dephasing(int side, double lambda) {
  QNETP_ASSERT(side == 0 || side == 1);
  if (lambda <= 0.0) return;
  apply_ptm_to_side(rho_, Ptm4::dephasing(lambda), side);
}

BlochAxis BlochAxis::xz_plane(double theta_rad) {
  return BlochAxis{std::sin(theta_rad), 0.0, std::cos(theta_rad)};
}

BlochAxis BlochAxis::normalized() const {
  const double n = std::sqrt(x * x + y * y + z * z);
  QNETP_ASSERT_MSG(n > 1e-12, "zero Bloch axis");
  return BlochAxis{x / n, y / n, z / n};
}

Mat2 BlochAxis::observable() const {
  const BlochAxis n = normalized();
  // n.sigma = nx X + ny Y + nz Z
  return Mat2{Cplx{n.z, 0}, Cplx{n.x, -n.y}, Cplx{n.x, n.y}, Cplx{-n.z, 0}};
}

Mat2 BlochAxis::projector(int outcome) const {
  QNETP_ASSERT(outcome == 0 || outcome == 1);
  const double s = (outcome == 0) ? 1.0 : -1.0;
  // (I + s n.sigma) / 2
  const Mat2 obs = observable();
  return (Mat2::identity() + obs * Cplx{s, 0}) * Cplx{0.5, 0};
}

Mat2 basis_projector(Basis basis, int outcome) {
  QNETP_ASSERT(outcome == 0 || outcome == 1);
  const double s = (outcome == 0) ? 1.0 : -1.0;
  switch (basis) {
    case Basis::z:
      // (I + s Z)/2
      return Mat2{(1.0 + s) / 2, 0, 0, (1.0 - s) / 2};
    case Basis::x:
      // (I + s X)/2
      return Mat2{0.5, s * 0.5, s * 0.5, 0.5};
    case Basis::y:
      // (I + s Y)/2
      return Mat2{0.5, Cplx{0, -s * 0.5}, Cplx{0, s * 0.5}, 0.5};
  }
  QNETP_ASSERT_MSG(false, "invalid basis");
  return Mat2{};
}

int TwoQubitState::measure_side(int side, Basis basis, Rng& rng,
                                Mat2* partner) {
  QNETP_ASSERT(side == 0 || side == 1);
  const Mat2 id = Mat2::identity();
  const Mat2 p0 = basis_projector(basis, 0);
  const Mat4 big0 = (side == 0) ? kron(p0, id) : kron(id, p0);
  const double prob0 = ((big0 * rho_).trace()).real();
  const int outcome = rng.bernoulli(std::clamp(prob0, 0.0, 1.0)) ? 0 : 1;

  const Mat2 po = basis_projector(basis, outcome);
  const Mat4 big = (side == 0) ? kron(po, id) : kron(id, po);
  const Mat4 m = big * rho_ * big;
  const double p = std::max(m.trace().real(), 1e-300);

  if (partner != nullptr) {
    Mat2 red = Mat2::zero();
    if (side == 0) {
      for (std::size_t b = 0; b < 2; ++b)
        for (std::size_t bp = 0; bp < 2; ++bp) {
          Cplx acc = 0;
          for (std::size_t a = 0; a < 2; ++a) acc += m(a * 2 + b, a * 2 + bp);
          red(b, bp) = acc / p;
        }
    } else {
      for (std::size_t a = 0; a < 2; ++a)
        for (std::size_t ap = 0; ap < 2; ++ap) {
          Cplx acc = 0;
          for (std::size_t b = 0; b < 2; ++b) acc += m(a * 2 + b, ap * 2 + b);
          red(a, ap) = acc / p;
        }
    }
    *partner = red;
  }

  rho_ = m * Cplx{1.0 / p, 0};
  return outcome;
}

std::pair<int, int> TwoQubitState::measure_both(Basis left, Basis right,
                                                Rng& rng) {
  double probs[4];
  double total = 0.0;
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const Mat4 proj =
          kron(basis_projector(left, a), basis_projector(right, b));
      probs[a * 2 + b] = std::max(0.0, (proj * rho_).trace().real());
      total += probs[a * 2 + b];
    }
  QNETP_ASSERT_MSG(total > 0.0, "degenerate measurement distribution");
  double x = rng.uniform() * total;
  int pick = 3;
  for (int i = 0; i < 4; ++i) {
    x -= probs[i];
    if (x < 0) {
      pick = i;
      break;
    }
  }
  const int a = pick / 2;
  const int b = pick % 2;
  // Collapse.
  const Mat4 proj = kron(basis_projector(left, a), basis_projector(right, b));
  const Mat4 m = proj * rho_ * proj;
  const double p = std::max(m.trace().real(), 1e-300);
  rho_ = m * Cplx{1.0 / p, 0};
  return {a, b};
}

std::pair<int, int> TwoQubitState::measure_both_along(const BlochAxis& left,
                                                      const BlochAxis& right,
                                                      Rng& rng) {
  double probs[4];
  double total = 0.0;
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const Mat4 proj = kron(left.projector(a), right.projector(b));
      probs[a * 2 + b] = std::max(0.0, (proj * rho_).trace().real());
      total += probs[a * 2 + b];
    }
  QNETP_ASSERT_MSG(total > 0.0, "degenerate measurement distribution");
  double x = rng.uniform() * total;
  int pick = 3;
  for (int i = 0; i < 4; ++i) {
    x -= probs[i];
    if (x < 0) {
      pick = i;
      break;
    }
  }
  const int a = pick / 2;
  const int b = pick % 2;
  const Mat4 proj = kron(left.projector(a), right.projector(b));
  const Mat4 m = proj * rho_ * proj;
  const double p = std::max(m.trace().real(), 1e-300);
  rho_ = m * Cplx{1.0 / p, 0};
  return {a, b};
}

double TwoQubitState::correlator_along(const BlochAxis& left,
                                       const BlochAxis& right) const {
  return (kron(left.observable(), right.observable()) * rho_)
      .trace()
      .real();
}

double TwoQubitState::chsh_value() const {
  // For Phi+ these settings give E(a,b) = E(a,b') = E(a',b) = +1/sqrt2
  // and E(a',b') = -1/sqrt2, so S = 2*sqrt2.
  const BlochAxis a = BlochAxis::pauli_z();
  const BlochAxis ap = BlochAxis::pauli_x();
  const BlochAxis b = BlochAxis::xz_plane(M_PI / 4.0);
  const BlochAxis bp = BlochAxis::xz_plane(-M_PI / 4.0);
  return correlator_along(a, b) + correlator_along(a, bp) +
         correlator_along(ap, b) - correlator_along(ap, bp);
}

double TwoQubitState::correlator(Basis basis) const {
  Mat2 p;
  switch (basis) {
    case Basis::z: p = pauli_z(); break;
    case Basis::x: p = pauli_x(); break;
    case Basis::y: p = pauli_y(); break;
  }
  return (kron(p, p) * rho_).trace().real();
}

void TwoQubitState::renormalize() {
  // Hermitize and rescale to unit trace.
  rho_ = (rho_ + rho_.adjoint()) * Cplx{0.5, 0};
  const double tr = rho_.trace().real();
  QNETP_ASSERT_MSG(tr > 1e-12, "state trace vanished");
  rho_ = rho_ * Cplx{1.0 / tr, 0};
}

std::pair<Mat2, BellIndex> teleport(const Mat2& psi,
                                    const TwoQubitState& resource, Rng& rng) {
  // Qubits: D (data), A (resource side 0, co-located with D), B (side 1).
  // Project (D, A) onto each Bell state, collect outcome probabilities and
  // conditional output states of B.
  const Mat4& pair_rho = resource.rho();
  Mat2 outs[4];
  double probs[4];
  double total = 0.0;
  for (BellIndex m : all_bell_indices()) {
    const Vec4 chi = bell_vector(m);
    Mat2 out = Mat2::zero();
    for (std::size_t b = 0; b < 2; ++b)
      for (std::size_t bp = 0; bp < 2; ++bp) {
        Cplx acc = 0;
        for (std::size_t d = 0; d < 2; ++d)
          for (std::size_t a = 0; a < 2; ++a)
            for (std::size_t dp = 0; dp < 2; ++dp)
              for (std::size_t ap = 0; ap < 2; ++ap)
                acc += std::conj(chi[d * 2 + a]) * chi[dp * 2 + ap] *
                       psi(d, dp) * pair_rho(a * 2 + b, ap * 2 + bp);
        out(b, bp) = acc;
      }
    const double p = std::max(0.0, out.trace().real());
    outs[m.code()] = out;
    probs[m.code()] = p;
    total += p;
  }
  QNETP_ASSERT_MSG(total > 1e-12, "teleport distribution degenerate");

  double x = rng.uniform() * total;
  int pick = 3;
  for (int i = 0; i < 4; ++i) {
    x -= probs[i];
    if (x < 0) {
      pick = i;
      break;
    }
  }
  const BellIndex m{static_cast<std::uint8_t>(pick)};
  Mat2 out = outs[pick] * Cplx{1.0 / std::max(probs[pick], 1e-300), 0};
  // Standard correction for a Phi+ resource; for other resource frames the
  // caller composes with the tracked Bell index first.
  const Mat2 corr = pauli_for(m);
  out = corr * out * corr.adjoint();
  return {out, m};
}

}  // namespace qnetp::qstate
