#include "qstate/channels.hpp"

#include <cmath>

#include "qbase/assert.hpp"
#include "qstate/bell.hpp"

namespace qnetp::qstate {

namespace {

/// Eigendecomposition of a 4x4 Hermitian matrix by cyclic complex
/// Jacobi rotations: on return `a` is (numerically) diagonal holding the
/// eigenvalues and the columns of `v` are the eigenvectors.
void hermitian_eig4(Mat4& a, Mat4& v) {
  v = Mat4::identity();
  for (int sweep = 0; sweep < 60; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < 4; ++p)
      for (std::size_t q = p + 1; q < 4; ++q) off += std::norm(a(p, q));
    if (off < 1e-28) break;
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t q = p + 1; q < 4; ++q) {
        const Cplx apq = a(p, q);
        const double aabs = std::abs(apq);
        if (aabs < 1e-18) continue;
        // Phase-rotate the pivot real, then apply the standard symmetric
        // Jacobi rotation: J has columns
        //   J[:,p] = (c, -s conj(phase)) , J[:,q] = (s, c conj(phase))
        // on rows (p, q).
        const Cplx phase = apq / aabs;
        const double tau = (a(q, q).real() - a(p, p).real()) / (2.0 * aabs);
        const double t =
            (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        const Cplx jqp = -s * std::conj(phase);
        const Cplx jqq = c * std::conj(phase);
        // a <- J^dag a J, v <- v J; J differs from identity only in
        // columns/rows p and q.
        for (std::size_t r = 0; r < 4; ++r) {  // columns: M = a J, v J
          const Cplx ap = a(r, p), aq = a(r, q);
          a(r, p) = ap * c + aq * jqp;
          a(r, q) = ap * s + aq * jqq;
          const Cplx vp = v(r, p), vq = v(r, q);
          v(r, p) = vp * c + vq * jqp;
          v(r, q) = vp * s + vq * jqq;
        }
        for (std::size_t cix = 0; cix < 4; ++cix) {  // rows: J^dag M
          const Cplx mp = a(p, cix), mq = a(q, cix);
          a(p, cix) = c * mp + std::conj(jqp) * mq;
          a(q, cix) = s * mp + std::conj(jqq) * mq;
        }
      }
    }
  }
}

}  // namespace

Channel::Channel(std::initializer_list<Mat2> kraus)
    : Channel(std::span<const Mat2>{kraus.begin(), kraus.size()}) {}

Channel::Channel(std::span<const Mat2> kraus) {
  QNETP_ASSERT_MSG(kraus.size() <= kMaxKraus,
                   "channel exceeds the inline Kraus capacity");
  n_ = kraus.size();
  for (std::size_t i = 0; i < n_; ++i) kraus_[i] = kraus[i];
  ptm_ = Ptm4::from_kraus(kraus_.data(), n_);
}

bool Channel::is_trace_preserving(double tol) const {
  Mat2 acc = Mat2::zero();
  for (const auto& k : kraus()) acc = acc + k.adjoint() * k;
  return acc.approx_equal(Mat2::identity(), tol);
}

Channel Channel::after(const Channel& other) const {
  std::array<Mat2, kMaxKraus> combined;
  std::size_t n = 0;
  if (n_ * other.n_ <= kMaxKraus) {
    for (const auto& a : kraus())
      for (const auto& b : other.kraus()) combined[n++] = a * b;
  } else {
    // More raw operator products than the inline capacity: recompress
    // through the Choi matrix C = sum_k vec(K_k) vec(K_k)^dag (row-major
    // vec), whose spectral decomposition yields an equivalent Kraus set
    // of at most four operators.
    Mat4 choi = Mat4::zero();
    for (const auto& a : kraus()) {
      for (const auto& b : other.kraus()) {
        const Mat2 k = a * b;
        const Cplx vec[4] = {k(0, 0), k(0, 1), k(1, 0), k(1, 1)};
        for (std::size_t i = 0; i < 4; ++i)
          for (std::size_t j = 0; j < 4; ++j)
            choi(i, j) += vec[i] * std::conj(vec[j]);
      }
    }
    Mat4 vecs;
    hermitian_eig4(choi, vecs);
    for (std::size_t e = 0; e < 4; ++e) {
      const double lambda = choi(e, e).real();
      if (lambda < 1e-14) continue;
      const double scale = std::sqrt(lambda);
      combined[n++] = Mat2{vecs(0, e) * scale, vecs(1, e) * scale,
                           vecs(2, e) * scale, vecs(3, e) * scale};
    }
  }
  return Channel(std::span<const Mat2>{combined.data(), n});
}

Mat2 Channel::apply(const Mat2& rho) const { return apply_ptm(rho, ptm_); }

Mat4 Channel::apply_to_side(const Mat4& rho, int side) const {
  QNETP_ASSERT(side == 0 || side == 1);
  Mat4 out = rho;
  apply_ptm_to_side(out, ptm_, side);
  return out;
}

Channel Channel::identity() {
  return Channel({Mat2::identity()});
}

Channel Channel::dephasing(double lambda) {
  QNETP_ASSERT(lambda >= 0.0 && lambda <= 1.0);
  // K0 = sqrt(1 - lambda/2) I, K1 = sqrt(lambda/2) Z: off-diagonals scale
  // by (1 - lambda).
  const double p = lambda / 2.0;
  return Channel({pauli_i() * std::sqrt(1.0 - p), pauli_z() * std::sqrt(p)});
}

Channel Channel::amplitude_damping(double gamma) {
  QNETP_ASSERT(gamma >= 0.0 && gamma <= 1.0);
  const Mat2 k0{1, 0, 0, std::sqrt(1.0 - gamma)};
  const Mat2 k1{0, std::sqrt(gamma), 0, 0};
  return Channel({k0, k1});
}

Channel Channel::depolarizing(double p) {
  QNETP_ASSERT(p >= 0.0 && p <= 1.0);
  return pauli_channel(1.0 - 0.75 * p, p / 4.0, p / 4.0, p / 4.0);
}

Channel Channel::bit_flip(double p) {
  QNETP_ASSERT(p >= 0.0 && p <= 1.0);
  return Channel({pauli_i() * std::sqrt(1.0 - p), pauli_x() * std::sqrt(p)});
}

Channel Channel::pauli_channel(double pi, double px, double py, double pz) {
  QNETP_ASSERT(pi >= -1e-12 && px >= -1e-12 && py >= -1e-12 && pz >= -1e-12);
  QNETP_ASSERT(std::abs(pi + px + py + pz - 1.0) < 1e-9);
  std::array<Mat2, kMaxKraus> kraus;
  std::size_t n = 0;
  if (pi > 0) kraus[n++] = pauli_i() * std::sqrt(pi);
  if (px > 0) kraus[n++] = pauli_x() * std::sqrt(px);
  if (py > 0) kraus[n++] = pauli_y() * std::sqrt(py);
  if (pz > 0) kraus[n++] = pauli_z() * std::sqrt(pz);
  return Channel(std::span<const Mat2>{kraus.data(), n});
}

Channel Channel::unitary(const Mat2& u) { return Channel({u}); }

DecayParams MemoryDecay::params_for(Duration dt) const {
  QNETP_ASSERT(!dt.is_negative());
  DecayParams p;
  if (dt.is_zero() || trivial()) return p;

  const double dt_s = dt.as_seconds();
  double amp_coherence = 1.0;  // off-diagonal factor contributed by T1
  if (t1 != Duration::max()) {
    p.gamma = 1.0 - std::exp(-dt_s / t1.as_seconds());
    amp_coherence = std::sqrt(1.0 - p.gamma);  // = exp(-dt/(2 T1))
  }
  if (t2 != Duration::max()) {
    // Total transverse decay must be exp(-dt/T2); amplitude damping already
    // contributes exp(-dt/(2 T1)), the rest is pure dephasing.
    const double target = std::exp(-dt_s / t2.as_seconds());
    QNETP_ASSERT_MSG(amp_coherence >= target - 1e-12,
                     "require T2 <= 2*T1 for a physical decay model");
    const double residual = std::min(1.0, target / amp_coherence);
    p.lambda = 1.0 - residual;
  }
  return p;
}

Channel MemoryDecay::for_interval(Duration dt) const {
  const DecayParams p = params_for(dt);
  Channel result = Channel::identity();
  if (p.gamma > 0.0)
    result = Channel::amplitude_damping(p.gamma).after(result);
  if (p.lambda > 0.0) result = Channel::dephasing(p.lambda).after(result);
  return result;
}

double MemoryDecay::coherence_factor(Duration dt) const {
  if (t2 == Duration::max()) return 1.0;
  return std::exp(-dt.as_seconds() / t2.as_seconds());
}

}  // namespace qnetp::qstate
