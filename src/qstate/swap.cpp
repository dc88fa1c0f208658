#include "qstate/swap.hpp"

#include <algorithm>

#include "qbase/assert.hpp"

namespace qnetp::qstate {

SwapOutcome entanglement_swap(const TwoQubitState& left,
                              const TwoQubitState& right,
                              const SwapNoise& noise, Rng& rng) {
  // Apply gate noise to the measured qubits: B = side 1 of left,
  // C = side 0 of right.
  TwoQubitState l = left;
  TwoQubitState r = right;
  if (noise.gate_depolarizing > 0.0) {
    const Channel depol = Channel::depolarizing(noise.gate_depolarizing);
    l.apply_channel(1, depol);
    r.apply_channel(0, depol);
  }
  const Mat4& lr = l.rho();
  const Mat4& rr = r.rho();

  // Contract: out_m[(a,d),(a',d')] =
  //   sum_{b,c,b',c'} conj(chi_m[b,c]) chi_m[b',c'] L[(a,b),(a',b')]
  //                   R[(c,d),(c',d')]
  Mat4 outs[4];
  double probs[4];
  double total = 0.0;
  for (BellIndex m : all_bell_indices()) {
    const Vec4 chi = bell_vector(m);
    Mat4 out = Mat4::zero();
    for (std::size_t a = 0; a < 2; ++a)
      for (std::size_t d = 0; d < 2; ++d)
        for (std::size_t ap = 0; ap < 2; ++ap)
          for (std::size_t dp = 0; dp < 2; ++dp) {
            Cplx acc = 0;
            for (std::size_t b = 0; b < 2; ++b)
              for (std::size_t c = 0; c < 2; ++c)
                for (std::size_t bp = 0; bp < 2; ++bp)
                  for (std::size_t cp = 0; cp < 2; ++cp)
                    acc += std::conj(chi[b * 2 + c]) * chi[bp * 2 + cp] *
                           lr(a * 2 + b, ap * 2 + bp) *
                           rr(c * 2 + d, cp * 2 + dp);
            out(a * 2 + d, ap * 2 + dp) = acc;
          }
    const double p = std::max(0.0, out.trace().real());
    outs[m.code()] = out;
    probs[m.code()] = p;
    total += p;
  }
  QNETP_ASSERT_MSG(total > 1e-12, "swap outcome distribution degenerate");

  double x = rng.uniform() * total;
  int pick = 3;
  for (int i = 0; i < 4; ++i) {
    x -= probs[i];
    if (x < 0) {
      pick = i;
      break;
    }
  }

  SwapOutcome result;
  result.true_outcome = BellIndex{static_cast<std::uint8_t>(pick)};
  result.probability = probs[pick] / total;
  TwoQubitState out_state(outs[pick] *
                          Cplx{1.0 / std::max(probs[pick], 1e-300), 0});
  out_state.renormalize();
  result.state = out_state;

  // Readout errors corrupt the announcement, not the state.
  std::uint8_t announced = result.true_outcome.code();
  if (noise.readout_flip_prob > 0.0) {
    if (rng.bernoulli(noise.readout_flip_prob)) announced ^= 1;  // x bit
    if (rng.bernoulli(noise.readout_flip_prob)) announced ^= 2;  // z bit
  }
  result.announced_outcome = BellIndex{announced};
  return result;
}

}  // namespace qnetp::qstate
