// Quantum-substrate hot-path benchmark: the per-event advance-to +
// oracle-fidelity loop that dominates the fig9/fig10 scenarios.
//
// Compares the legacy pipeline (heap-allocated Kraus channels built per
// interval via kron expansion — an inline copy of the old implementation)
// against the current substrate (allocation-free decay parameters applied
// through Pauli-transfer-matrix superoperators) on the same workload, and
// records the result in BENCH_qstate.json so the perf win is auditable.
//
// Usage: qstate_hotpath [--runs=N] [--quick] [--csv] [--out=PATH]
//
// The workload, exact_decoherence, has finite T1 on both sides (the
// simulation preset's electron memory and the near-term carbon memory),
// the case the paper's figures run.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "qbase/rng.hpp"
#include "qdevice/entangled_pair.hpp"
#include "qstate/bell.hpp"
#include "qstate/channels.hpp"
#include "qstate/complex_mat.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::bench_qstate {

using namespace qnetp::literals;
using qnetp::qstate::BellIndex;
using qnetp::qstate::Cplx;
using qnetp::qstate::Mat2;
using qnetp::qstate::Mat4;
using qnetp::qstate::MemoryDecay;
using qnetp::qstate::TwoQubitState;

// ---------------------------------------------------------------------------
// Legacy substrate: verbatim copy of the per-interval Kraus implementation.
// Channels are vectors of heap-allocated Kraus operators rebuilt per
// interval; application kron-expands each operator to 4x4 and does two
// complex matrix products per Kraus term.
// ---------------------------------------------------------------------------

struct LegacyChannel {
  std::vector<Mat2> kraus;

  LegacyChannel after(const LegacyChannel& other) const {
    std::vector<Mat2> combined;
    combined.reserve(kraus.size() * other.kraus.size());
    for (const auto& a : kraus)
      for (const auto& b : other.kraus) combined.push_back(a * b);
    return LegacyChannel{std::move(combined)};
  }
};

LegacyChannel legacy_identity() { return LegacyChannel{{Mat2::identity()}}; }

LegacyChannel legacy_dephasing(double lambda) {
  const double p = lambda / 2.0;
  return LegacyChannel{{qnetp::qstate::pauli_i() * std::sqrt(1.0 - p),
                        qnetp::qstate::pauli_z() * std::sqrt(p)}};
}

LegacyChannel legacy_amplitude_damping(double gamma) {
  const Mat2 k0{1, 0, 0, std::sqrt(1.0 - gamma)};
  const Mat2 k1{0, std::sqrt(gamma), 0, 0};
  return LegacyChannel{{k0, k1}};
}

LegacyChannel legacy_for_interval(const MemoryDecay& decay, Duration dt) {
  if (dt.is_zero()) return legacy_identity();
  const double dt_s = dt.as_seconds();
  LegacyChannel result = legacy_identity();
  double amp_coherence = 1.0;
  if (decay.t1 != Duration::max()) {
    const double gamma = 1.0 - std::exp(-dt_s / decay.t1.as_seconds());
    result = legacy_amplitude_damping(gamma).after(result);
    amp_coherence = std::sqrt(1.0 - gamma);
  }
  if (decay.t2 != Duration::max()) {
    const double target = std::exp(-dt_s / decay.t2.as_seconds());
    const double residual = std::min(1.0, target / amp_coherence);
    result = legacy_dephasing(1.0 - residual).after(result);
  }
  return result;
}

Mat4 legacy_apply_to_side(const Mat4& rho, const LegacyChannel& ch,
                          int side) {
  Mat4 out = Mat4::zero();
  const Mat2 id = Mat2::identity();
  for (const auto& k : ch.kraus) {
    const Mat4 big = (side == 0) ? qnetp::qstate::kron(k, id)
                                 : qnetp::qstate::kron(id, k);
    out += big * rho * big.adjoint();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: a pool of pairs; each event advances both sides by a varying
// idle interval and reads the oracle fidelity (the per-event cost in the
// fig9/fig10 scenarios: decoherence is applied lazily at readout).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  MemoryDecay side0;
  MemoryDecay side1;
  std::size_t pairs = 64;
  std::size_t events = 4000;  // advance+readout events per pair
};

Duration event_interval(std::size_t i) {
  return Duration::ms(1.0 + static_cast<double>((i * 37) % 200));
}

struct Result {
  std::size_t ops = 0;  // advance+readout events
  double seconds = 0.0;
  double fid_sum = 0.0;  // workload checksum (paths must agree)
  double kops() const { return ops / seconds / 1e3; }
};

Result run_legacy(const Workload& w) {
  std::vector<Mat4> states(
      w.pairs, TwoQubitState::werner(0.95, BellIndex::psi_plus()).rho());
  const qnetp::qstate::Vec4 psi =
      qnetp::qstate::bell_vector(BellIndex::psi_plus());
  Result r;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < w.events; ++e) {
    const Duration dt = event_interval(e);
    for (std::size_t p = 0; p < w.pairs; ++p) {
      Mat4& rho = states[p];
      rho = legacy_apply_to_side(rho, legacy_for_interval(w.side0, dt), 0);
      rho = legacy_apply_to_side(rho, legacy_for_interval(w.side1, dt), 1);
      r.fid_sum += qnetp::qstate::expectation(rho, psi);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.ops = w.events * w.pairs;
  return r;
}

Result run_current(const Workload& w) {
  using qnetp::qdevice::EntangledPair;
  std::vector<EntangledPair> pool;
  pool.reserve(w.pairs);
  for (std::size_t p = 0; p < w.pairs; ++p) {
    pool.emplace_back(
        PairId{p + 1}, TwoQubitState::werner(0.95, BellIndex::psi_plus()),
        BellIndex::psi_plus(),
        EntangledPair::Side{NodeId{1}, QubitId{p}, w.side0},
        EntangledPair::Side{NodeId{2}, QubitId{p}, w.side1},
        TimePoint::origin());
  }
  Result r;
  TimePoint now = TimePoint::origin();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < w.events; ++e) {
    now += event_interval(e);
    for (auto& pair : pool) {
      r.fid_sum += pair.oracle_fidelity(now);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.ops = w.events * w.pairs;
  return r;
}

template <typename Fn>
Result best_of(Fn fn, const Workload& w, std::size_t runs) {
  Result best;
  for (std::size_t i = 0; i < runs; ++i) {
    const Result r = fn(w);
    if (best.seconds == 0.0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

struct Measured {
  Workload workload;
  Result legacy;
  Result current;
  double speedup() const { return current.kops() / legacy.kops(); }
};

void write_json(const std::string& path, const std::vector<Measured>& all,
                double headline) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"qstate_hotpath\",\n"
               "  \"unit\": \"advance-to + oracle-fidelity events\",\n"
               "  \"workloads\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Measured& m = all[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"pairs\": %zu, \"events\": %zu,\n"
        "     \"legacy_kraus\": {\"ops\": %zu, \"seconds\": %.6f, "
        "\"kops_per_sec\": %.2f},\n"
        "     \"current\": {\"ops\": %zu, \"seconds\": %.6f, "
        "\"kops_per_sec\": %.2f},\n"
        "     \"speedup\": %.3f}%s\n",
        m.workload.name, m.workload.pairs, m.workload.events, m.legacy.ops,
        m.legacy.seconds, m.legacy.kops(), m.current.ops, m.current.seconds,
        m.current.kops(), m.speedup(), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"speedup\": %.3f\n"
               "}\n",
               headline);
  std::fclose(f);
}

int main(int argc, char** argv) {
  std::string out = "BENCH_qstate.json";
  const auto args = qnetp::bench::BenchArgs::parse(
      argc, argv,
      [&out](const std::string& a) {
        if (a.rfind("--out=", 0) == 0) {
          out = a.substr(6);
          return true;
        }
        return false;
      },
      " [--out=PATH]");

  std::vector<Workload> workloads = {
      // Simulation-preset electron memory + near-term carbon memory.
      {"exact_decoherence", MemoryDecay{3600_s, 60_s},
       MemoryDecay{360_s, 60_s}},
  };
  if (args.quick) {
    for (auto& w : workloads) {
      w.pairs = 16;
      w.events = 500;
    }
  }
  const std::size_t runs = args.runs != 0 ? args.runs : (args.quick ? 2 : 5);
  qnetp::bench::note_quick_cut(
      args, runs, "16 pairs x 500 events per workload (full: 64 x 4000)");

  std::vector<Measured> results;
  for (const Workload& w : workloads) {
    Measured m{w, best_of(run_legacy, w, runs), best_of(run_current, w, runs)};
    // Same workload, same physics: the checksums must agree to rounding.
    const double drift =
        std::abs(m.legacy.fid_sum - m.current.fid_sum) /
        static_cast<double>(m.legacy.ops);
    if (drift > 1e-9) {
      std::fprintf(stderr,
                   "FAIL: %s fidelity checksum drifted by %.3g per op\n",
                   w.name, drift);
      return 1;
    }
    results.push_back(m);
  }

  qnetp::TablePrinter table(
      {"workload", "ops", "legacy kops/s", "current kops/s", "speedup"});
  for (const Measured& m : results) {
    table.add_row({m.workload.name, std::to_string(m.legacy.ops),
                   qnetp::TablePrinter::num(m.legacy.kops()),
                   qnetp::TablePrinter::num(m.current.kops()),
                   qnetp::TablePrinter::num(m.speedup())});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    qnetp::print_banner(std::cout,
                        "qstate hot path: advance-to + oracle readout");
    table.print(std::cout);
  }

  const double headline = results.front().speedup();
  write_json(out, results, headline);
  std::printf("wrote %s (speedup %.2fx)\n", out.c_str(), headline);
  return 0;
}

}  // namespace qnetp::bench_qstate

int main(int argc, char** argv) {
  return qnetp::bench_qstate::main(argc, argv);
}
