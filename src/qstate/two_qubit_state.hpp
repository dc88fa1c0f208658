// TwoQubitState: the exact quantum state of one entangled pair.
//
// One representation: the 4x4 complex density matrix. Single-qubit
// channels and memory decay act on it through cached Pauli-transfer-matrix
// superoperators (ptm.hpp); measurements and swaps contract it exactly.
//
// Side 0 is by convention the qubit at the "left"/upstream node of the
// pair.
#pragma once

#include <utility>

#include "qbase/rng.hpp"
#include "qstate/bell.hpp"
#include "qstate/channels.hpp"
#include "qstate/complex_mat.hpp"

namespace qnetp::qstate {

/// Measurement bases for single-qubit projective measurements.
enum class Basis { z, x, y };

/// A unit vector on the Bloch sphere defining a spin observable n.sigma.
struct BlochAxis {
  double x = 0.0;
  double y = 0.0;
  double z = 1.0;

  static BlochAxis pauli_z() { return {0, 0, 1}; }
  static BlochAxis pauli_x() { return {1, 0, 0}; }
  static BlochAxis pauli_y() { return {0, 1, 0}; }
  /// In the X-Z plane at angle theta from Z.
  static BlochAxis xz_plane(double theta_rad);

  BlochAxis normalized() const;
  /// The observable n.sigma as a 2x2 matrix.
  Mat2 observable() const;
  /// Projector onto the +1 (outcome 0) or -1 (outcome 1) eigenstate.
  Mat2 projector(int outcome) const;
};

class TwoQubitState {
 public:
  /// Defaults to the maximally mixed state (useless pair).
  TwoQubitState();
  explicit TwoQubitState(const Mat4& rho);

  static TwoQubitState bell(BellIndex idx);
  /// Werner state: F * |B_idx><B_idx| + (1-F)/3 * (I - |B_idx><B_idx|).
  static TwoQubitState werner(double fidelity, BellIndex idx);
  static TwoQubitState maximally_mixed();
  /// Bell-diagonal state with the given coefficients (not renormalised).
  static TwoQubitState bell_diagonal(const BellDiagonal& coeffs);
  /// Product state |b1 b2><b1 b2| of computational basis kets.
  static TwoQubitState computational(int b1, int b2);

  const Mat4& rho() const { return rho_; }

  /// Whether rho is diagonal in the Bell basis (a classical mixture of
  /// the four Bell states), to within 1e-12 per matrix entry. Pauli
  /// channels and pure dephasing keep a state in this family; amplitude
  /// damping and the single-click |11> admixture take it out.
  bool is_bell_diagonal() const;

  /// <B_idx| rho |B_idx> — the simulation oracle for pair quality.
  double fidelity(BellIndex idx) const;
  /// The Bell state with the highest overlap and that overlap.
  std::pair<BellIndex, double> best_bell() const;

  void apply_channel(int side, const Channel& ch);
  void apply_pauli(int side, const Mat2& pauli);
  /// Rotate the pair from Bell frame `from` to Bell frame `to` by applying
  /// the appropriate Pauli to `side`.
  void apply_correction(int side, BellIndex from, BellIndex to);

  /// Closed-form memory decay over one idle interval (amplitude damping
  /// gamma then dephasing lambda) — the allocation-free hot path; no
  /// Channel object is built.
  void apply_decay(int side, const DecayParams& params);
  /// Pure dephasing with off-diagonal factor (1 - lambda).
  void apply_dephasing(int side, double lambda);

  /// Projectively measure one qubit in the given basis. Returns the
  /// outcome (0: +1 eigenstate, 1: -1 eigenstate) and leaves `partner`
  /// with the collapsed post-measurement single-qubit state of the other
  /// side. The pair state itself becomes invalid for further pair use.
  int measure_side(int side, Basis basis, Rng& rng, Mat2* partner = nullptr);

  /// Measure both qubits in (possibly different) bases; returns outcomes
  /// sampled from the exact joint distribution.
  std::pair<int, int> measure_both(Basis left, Basis right, Rng& rng);

  /// Measure both qubits along arbitrary Bloch axes (CHSH-style settings).
  std::pair<int, int> measure_both_along(const BlochAxis& left,
                                         const BlochAxis& right, Rng& rng);

  /// Two-qubit correlator <P (x) P> for the given Pauli basis.
  double correlator(Basis basis) const;

  /// Correlator <(n.sigma) (x) (m.sigma)> for arbitrary axes.
  double correlator_along(const BlochAxis& left,
                          const BlochAxis& right) const;

  /// CHSH value S for the standard optimal settings
  /// a = Z, a' = X, b = (Z+X)/sqrt2, b' = (Z-X)/sqrt2 (maximal |S| = 2*sqrt2
  /// for Phi+; |S| > 2 witnesses Bell-inequality violation).
  double chsh_value() const;

  /// Renormalise and clip tiny negative eigenvalue artifacts (no-op for
  /// well-formed states; used after long channel chains).
  void renormalize();

  bool valid_density(double tol = 1e-7) const {
    return rho().is_density_matrix(tol);
  }

 private:
  Mat4 rho_;
};

/// Basis eigenvectors as bra projectors: returns the projector onto the
/// `outcome` (0 or 1) eigenstate of the given Pauli basis.
Mat2 basis_projector(Basis basis, int outcome);

/// Teleport a single-qubit state `psi` (density matrix) through the pair
/// `resource` (side 0 held at the sender together with psi, side 1 at the
/// receiver). Performs the Bell measurement (outcome sampled), applies the
/// standard correction at the receiver, and returns the receiver's output
/// state together with the sampled Bell outcome.
std::pair<Mat2, BellIndex> teleport(const Mat2& psi,
                                    const TwoQubitState& resource, Rng& rng);

}  // namespace qnetp::qstate
