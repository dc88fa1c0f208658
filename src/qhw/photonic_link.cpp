#include "qhw/photonic_link.hpp"

#include <algorithm>
#include <cmath>

#include "qbase/assert.hpp"
#include "qstate/bell.hpp"

namespace qnetp::qhw {

using qstate::BellIndex;
using qstate::Cplx;
using qstate::Mat4;
using qstate::TwoQubitState;

PhotonicLinkModel::PhotonicLinkModel(const HardwareParams& hw,
                                     const FiberParams& fiber)
    : hw_(hw), fiber_(fiber) {
  hw_.validate();
  fiber_.validate();
  eta_ = hw_.phys.p_zero_phonon * hw_.phys.collection_efficiency *
         fiber_.transmission(0.5) * hw_.phys.p_detection;
  QNETP_ASSERT_MSG(eta_ > 0.0, "link has zero photon efficiency");

  const double dphi_rad = hw_.phys.delta_phi_deg * M_PI / 180.0;
  coherence_ = hw_.phys.visibility * std::exp(-dphi_rad * dphi_rad / 2.0);

  // One attempt: initialise the electron, emit, photon flies to the
  // midpoint, herald signal returns, plus fixed station overhead.
  attempt_cycle_ = hw_.gates.electron_init.duration + hw_.phys.tau_e +
                   fiber_.propagation_delay(0.5) * 2.0 +
                   hw_.phys.attempt_overhead;
  locate_optimum();
}

void PhotonicLinkModel::locate_optimum() {
  // fidelity(alpha) is unimodal: rising while signal outgrows dark counts,
  // falling once the bright-state admixture dominates. Golden-section
  // search over [min_alpha, max_alpha].
  const double gr = 0.6180339887498949;
  double lo = min_alpha, hi = max_alpha;
  double x1 = hi - gr * (hi - lo);
  double x2 = lo + gr * (hi - lo);
  double f1 = fidelity(x1), f2 = fidelity(x2);
  for (int iter = 0; iter < 80; ++iter) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + gr * (hi - lo);
      f2 = fidelity(x2);
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - gr * (hi - lo);
      f1 = fidelity(x1);
    }
  }
  alpha_opt_ = 0.5 * (lo + hi);
}

double PhotonicLinkModel::signal_prob(double alpha) const {
  QNETP_ASSERT(alpha >= 0.0 && alpha <= 1.0);
  // One of the two emitted photons is detected (each bright with
  // amplitude alpha); second-order term removes double counting.
  return 2.0 * alpha * eta_ * (1.0 - 0.5 * alpha * eta_);
}

double PhotonicLinkModel::dark_prob() const {
  // Two detectors open for the emission window each attempt.
  return 2.0 * hw_.phys.dark_count_rate_hz * hw_.phys.tau_w.as_seconds();
}

double PhotonicLinkModel::success_prob(double alpha) const {
  const double p = signal_prob(alpha) + dark_prob();
  return std::min(1.0, p);
}

double PhotonicLinkModel::dark_fraction(double alpha) const {
  const double s = signal_prob(alpha);
  const double d = dark_prob();
  if (s + d <= 0.0) return 0.0;
  return d / (s + d);
}

TwoQubitState PhotonicLinkModel::produced_state(double alpha) const {
  QNETP_ASSERT(alpha >= 0.0 && alpha <= 1.0);
  // Heralded-state mixture:
  //  * w_good: proper spin-spin entangled component; its coherence is
  //    reduced by interferometer visibility and optical phase noise,
  //    mixing Psi+ with Psi-;
  //  * w_bright: both emitters bright -> |11>;
  //  * w_dexc: double excitation -> an extra photon dephases the pair
  //    completely (maximally mixed);
  //  * w_dark: the click was a dark count (maximally mixed).
  const double w_bright = alpha;
  const double w_dexc = (1.0 - w_bright) * hw_.phys.p_double_excitation;
  const double w_good = (1.0 - w_bright) * (1.0 - hw_.phys.p_double_excitation);
  const double w_dark = dark_fraction(alpha);

  const double c = coherence_;

  Mat4 rho = Mat4::zero();
  // Good component: ((1+c)/2) Psi+ + ((1-c)/2) Psi-.
  rho += qstate::bell_projector(BellIndex::psi_plus()) *
         Cplx{(1.0 - w_dark) * w_good * (1.0 + c) / 2.0, 0};
  rho += qstate::bell_projector(BellIndex::psi_minus()) *
         Cplx{(1.0 - w_dark) * w_good * (1.0 - c) / 2.0, 0};
  // Bright component: |11><11|.
  Mat4 bright = Mat4::zero();
  bright(3, 3) = 1;
  rho += bright * Cplx{(1.0 - w_dark) * w_bright, 0};
  // Fully dephased / dark components: maximally mixed.
  rho += Mat4::identity() *
         Cplx{((1.0 - w_dark) * w_dexc + w_dark) * 0.25, 0};

  TwoQubitState state(rho);
  state.renormalize();
  return state;
}

double PhotonicLinkModel::fidelity(double alpha) const {
  return produced_state(alpha).fidelity(announced_bell());
}

double PhotonicLinkModel::max_fidelity() const { return fidelity(alpha_opt_); }

bool PhotonicLinkModel::solve_alpha(double f_min, double* alpha_out) const {
  QNETP_ASSERT(alpha_out != nullptr);
  QNETP_ASSERT(f_min >= 0.0 && f_min <= 1.0);
  if (fidelity(alpha_opt_) < f_min) return false;
  if (fidelity(max_alpha) >= f_min) {
    *alpha_out = max_alpha;
    return true;
  }
  // On [alpha_opt, max_alpha] the fidelity is monotone decreasing: bisect
  // for the largest alpha (fastest rate) still meeting the threshold.
  double lo = alpha_opt_;  // satisfies
  double hi = max_alpha;   // violates
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fidelity(mid) >= f_min) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  *alpha_out = lo;
  return true;
}

Duration PhotonicLinkModel::mean_generation_time(double alpha) const {
  const double p = success_prob(alpha);
  QNETP_ASSERT(p > 0.0);
  return attempt_cycle_ * (1.0 / p);
}

Duration PhotonicLinkModel::generation_time_quantile(double alpha,
                                                     double q) const {
  QNETP_ASSERT(q > 0.0 && q < 1.0);
  const double p = success_prob(alpha);
  QNETP_ASSERT(p > 0.0);
  // Geometric distribution: N attempts with CDF 1 - (1-p)^N.
  const double n = std::ceil(std::log1p(-q) / std::log1p(-p));
  return attempt_cycle_ * std::max(1.0, n);
}

GenerationSample PhotonicLinkModel::sample_generation(double alpha,
                                                      Rng& rng) const {
  GenerationSample s;
  s.attempts = rng.geometric_attempts(success_prob(alpha));
  s.elapsed = attempt_cycle_ * static_cast<double>(s.attempts);
  return s;
}

}  // namespace qnetp::qhw
