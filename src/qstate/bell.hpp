// Bell-state formalism.
//
// The four Bell states are indexed by two bits (x, z) such that
// |B_xz> = (Z^z X^x (x) I) |Phi+>. With this convention the entanglement
// swap algebra is plain XOR: swapping |B_a> and |B_b> with Bell-measurement
// outcome |B_m> yields |B_{a^b^m}> — exactly the "combine_state" helper of
// Appendix C. The network layer tracks states as these two classical bits.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "qstate/complex_mat.hpp"

namespace qnetp::qstate {

/// One of the four Bell states, encoded as two bits: code = x + 2z.
/// 0 = Phi+ , 1 = Psi+ , 2 = Phi- , 3 = Psi-.
class BellIndex {
 public:
  constexpr BellIndex() = default;
  constexpr explicit BellIndex(std::uint8_t code) : code_(code & 0x3) {}
  constexpr static BellIndex from_bits(bool x, bool z) {
    return BellIndex(static_cast<std::uint8_t>((x ? 1 : 0) | (z ? 2 : 0)));
  }

  constexpr static BellIndex phi_plus() { return BellIndex(0); }
  constexpr static BellIndex psi_plus() { return BellIndex(1); }
  constexpr static BellIndex phi_minus() { return BellIndex(2); }
  constexpr static BellIndex psi_minus() { return BellIndex(3); }

  constexpr std::uint8_t code() const { return code_; }
  constexpr bool x_bit() const { return (code_ & 1) != 0; }
  constexpr bool z_bit() const { return (code_ & 2) != 0; }

  /// Swap/tracking composition: XOR of the bit pairs.
  constexpr BellIndex operator^(BellIndex o) const {
    return BellIndex(static_cast<std::uint8_t>(code_ ^ o.code_));
  }
  constexpr auto operator<=>(const BellIndex&) const = default;

  std::string to_string() const {
    static constexpr const char* names[4] = {"Phi+", "Psi+", "Phi-", "Psi-"};
    return names[code_];
  }

 private:
  std::uint8_t code_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, BellIndex b) {
  return os << b.to_string();
}

/// All four Bell indices, for iteration.
constexpr std::array<BellIndex, 4> all_bell_indices() {
  return {BellIndex(0), BellIndex(1), BellIndex(2), BellIndex(3)};
}

/// Coefficients of a Bell-diagonal mixture sum_i c_i |B_i><B_i|, in
/// BellIndex code order (Phi+, Psi+, Phi-, Psi-).
using BellDiagonal = std::array<double, 4>;

/// The state vector |B_idx> in the |00>,|01>,|10>,|11> basis.
Vec4 bell_vector(BellIndex idx);

/// The projector |B_idx><B_idx|.
Mat4 bell_projector(BellIndex idx);

/// Pauli matrices (and identity) on one qubit.
Mat2 pauli_i();
Mat2 pauli_x();
Mat2 pauli_y();
Mat2 pauli_z();

/// The Pauli operator P = Z^z X^x that maps |Phi+> to |B_xz> when applied
/// to the left qubit (global phase dropped).
Mat2 pauli_for(BellIndex idx);

/// The Pauli correction that, applied to ONE qubit of a pair in state
/// |B_from>, turns it into |B_to> (up to global phase): P = Z^dz X^dx with
/// d = from ^ to.
Mat2 pauli_correction(BellIndex from, BellIndex to);

}  // namespace qnetp::qstate
