// Single-qubit CPTP noise channels and their application to pair states.
//
// All decoherence and gate noise in the simulator is expressed as Kraus
// channels applied to one side of a two-qubit density matrix. The set here
// covers the NV-centre noise processes the paper's evaluation exercises:
// pure dephasing (T2*), amplitude damping (T1), depolarizing (gate errors)
// and bit flips (readout misassignment is handled classically, see swap.hpp).
//
// A Channel is a fixed-size value type: its Kraus operators live in an
// inline array (no heap allocation) and its one-sided real Pauli-transfer
// matrix is precomputed at construction, so application is a cached
// structured matvec instead of per-call kron + complex Kraus sums.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>

#include "qbase/units.hpp"
#include "qstate/complex_mat.hpp"
#include "qstate/ptm.hpp"

namespace qnetp::qstate {

/// A CPTP map given by its Kraus operators: rho -> sum_k K rho K^dagger.
class Channel {
 public:
  /// Every channel the simulator uses (including the T1+T2 memory-decay
  /// composition) needs at most four Kraus operators.
  static constexpr std::size_t kMaxKraus = 4;

  Channel() = default;
  Channel(std::initializer_list<Mat2> kraus);
  explicit Channel(std::span<const Mat2> kraus);

  std::span<const Mat2> kraus() const { return {kraus_.data(), n_}; }
  bool empty() const { return n_ == 0; }

  /// Cached Pauli-transfer matrix of the map.
  const Ptm4& ptm() const { return ptm_; }

  /// Verify sum_k K^dagger K == I within tol (trace preservation).
  bool is_trace_preserving(double tol = 1e-9) const;

  /// Compose: this after other. When the raw operator products overflow
  /// the inline capacity the composition is recompressed through its
  /// Choi matrix (every single-qubit channel admits a <= 4 operator
  /// Kraus form), so the result is always exact.
  Channel after(const Channel& other) const;

  /// Apply to a single-qubit density matrix.
  Mat2 apply(const Mat2& rho) const;

  /// Apply to one side of a pair state: side 0 = left (first tensor
  /// factor), side 1 = right.
  Mat4 apply_to_side(const Mat4& rho, int side) const;

  // --- Factories -----------------------------------------------------------

  static Channel identity();
  /// Pure dephasing: off-diagonals shrink by (1 - lambda); lambda in [0,1].
  static Channel dephasing(double lambda);
  /// Amplitude damping toward |0> with probability gamma.
  static Channel amplitude_damping(double gamma);
  /// Depolarizing: rho -> (1-p) rho + p I/2.
  static Channel depolarizing(double p);
  /// Bit flip: X with probability p.
  static Channel bit_flip(double p);
  /// General Pauli channel with probabilities (pi, px, py, pz) summing to 1.
  static Channel pauli_channel(double pi, double px, double py, double pz);
  /// Unitary channel.
  static Channel unitary(const Mat2& u);

 private:
  std::array<Mat2, kMaxKraus> kraus_{};
  std::size_t n_ = 0;
  Ptm4 ptm_{};
};

/// Closed-form parameters of the memory-decay map over one idle interval:
/// amplitude damping with probability `gamma` followed by pure dephasing
/// with `lambda`. gamma == 0 means the map is pure dephasing.
struct DecayParams {
  double gamma = 0.0;
  double lambda = 0.0;

  bool is_identity() const { return gamma <= 0.0 && lambda <= 0.0; }
};

/// Time-dependent memory decoherence with relaxation time T1 and total
/// transverse coherence time T2 (T2 <= 2*T1). Produces the map for an
/// idle interval dt: amplitude damping with gamma = 1 - exp(-dt/T1)
/// composed with pure dephasing so the total off-diagonal decay is
/// exp(-dt/T2). T1/T2 of Duration::max() mean "no decay".
struct MemoryDecay {
  Duration t1 = Duration::max();
  Duration t2 = Duration::max();

  /// True when the model never decays (both times infinite): the decay
  /// pipeline skips such qubits entirely.
  bool trivial() const {
    return t1 == Duration::max() && t2 == Duration::max();
  }

  /// Closed-form decay parameters for an idle interval — the
  /// allocation-free path the hot loop uses.
  DecayParams params_for(Duration dt) const;

  /// The same map as an explicit Kraus channel (tests and tooling).
  Channel for_interval(Duration dt) const;

  /// Off-diagonal (coherence) decay factor over dt: exp(-dt/T2).
  double coherence_factor(Duration dt) const;
};

}  // namespace qnetp::qstate
