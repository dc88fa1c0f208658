// Heralded entanglement generation across one quantum link.
//
// Models the single-click (bright-state population alpha) scheme used on
// the NV platform (Humphreys et al. 2018): both nodes emit spin-photon
// entangled states with bright amplitude alpha, the photons interfere at a
// midpoint heralding station, and a single detector click heralds a
// spin-spin entangled pair.
//
// This is the physical origin of the paper's fidelity-vs-rate trade-off
// (Sec. 2.3, P1): smaller alpha -> higher heralded fidelity but lower
// success probability (p ~ 2 * alpha * eta). The link layer inverts
// fidelity(alpha) to honour a minimum-fidelity request.
//
// Generation attempts are sampled geometrically and fast-forwarded: the
// simulator sees one event per produced pair, not one per attempt, but the
// attempt count is exact (it drives nuclear dephasing of storage qubits).
#pragma once

#include <cstdint>

#include "qbase/rng.hpp"
#include "qbase/units.hpp"
#include "qhw/fiber.hpp"
#include "qhw/params.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::qhw {

struct GenerationSample {
  std::uint64_t attempts = 0;  ///< number of attempts including success
  Duration elapsed;            ///< total elapsed time until herald
};

class PhotonicLinkModel {
 public:
  PhotonicLinkModel(const HardwareParams& hw, const FiberParams& fiber);

  /// Per-photon detection efficiency: zero-phonon fraction x collection
  /// x half-length fibre transmission x detector efficiency.
  double eta() const { return eta_; }

  /// Wall-clock duration of one entanglement generation attempt.
  Duration attempt_cycle() const { return attempt_cycle_; }

  /// Herald (success) probability of one attempt at the given alpha.
  double success_prob(double alpha) const;

  /// Probability that a herald was caused by a detector dark count rather
  /// than a photon, conditioned on a click at the given alpha.
  double dark_fraction(double alpha) const;

  /// The Bell state the scheme announces on success (Psi+).
  qstate::BellIndex announced_bell() const {
    return qstate::BellIndex::psi_plus();
  }

  /// The heralded pair state for the given alpha. For alpha > 0 the
  /// bright |11> admixture puts it outside the Bell-diagonal family.
  qstate::TwoQubitState produced_state(double alpha) const;

  /// Fidelity of produced_state(alpha) to the announced Bell state.
  /// Note: NOT monotone near alpha -> 0 — dark counts dominate weak
  /// signals, so fidelity peaks at optimal_alpha() and decreases beyond.
  double fidelity(double alpha) const;

  /// The alpha at which fidelity(alpha) peaks (dark counts push the
  /// optimum away from zero).
  double optimal_alpha() const { return alpha_opt_; }

  /// Highest achievable fidelity: fidelity(optimal_alpha()).
  double max_fidelity() const;

  /// Smallest alpha the model allows (success probability floor).
  static constexpr double min_alpha = 1e-4;
  /// Largest alpha (beyond this the heralded state is useless).
  static constexpr double max_alpha = 0.5;

  /// Solve fidelity(alpha) >= f_min for the largest feasible alpha
  /// (fastest generation that still meets the threshold). Returns false if
  /// f_min exceeds max_fidelity().
  bool solve_alpha(double f_min, double* alpha_out) const;

  /// Mean time to herald one pair at the given alpha.
  Duration mean_generation_time(double alpha) const;
  /// Quantile of the (geometric) time-to-herald distribution.
  Duration generation_time_quantile(double alpha, double q) const;

  /// Sample attempts-until-success and the elapsed time.
  GenerationSample sample_generation(double alpha, Rng& rng) const;

  const FiberParams& fiber() const { return fiber_; }

 private:
  double signal_prob(double alpha) const;
  double dark_prob() const;
  void locate_optimum();

  HardwareParams hw_;
  FiberParams fiber_;
  double eta_ = 0.0;
  double coherence_ = 1.0;  ///< visibility x phase-noise factor
  double alpha_opt_ = min_alpha;
  Duration attempt_cycle_;
};

}  // namespace qnetp::qhw
