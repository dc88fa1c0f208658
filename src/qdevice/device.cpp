#include "qdevice/device.hpp"

#include <cmath>

#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::qdevice {

using qstate::BellIndex;

QuantumDevice::QuantumDevice(des::Simulator& sim, Rng& rng,
                             PairRegistry& registry, qhw::HardwareParams hw,
                             NodeId node)
    : sim_(sim),
      rng_(rng),
      registry_(registry),
      hw_(std::move(hw)),
      node_(node),
      memory_(node) {
  hw_.validate();
}

PairRegistry::Binding QuantumDevice::require_binding(QubitId qubit) const {
  const auto binding = registry_.find(QubitEndpoint{node_, qubit});
  QNETP_ASSERT_MSG(binding.has_value(), "qubit holds no pair side");
  return *binding;
}

void QuantumDevice::run_or_enqueue(Duration duration,
                                   des::UniqueFunction body) {
  if (serialized_) {
    op_queue_.push_back(PendingOp{duration, std::move(body)});
    if (!busy_) {
      busy_ = true;
      op_finished();  // kick the queue
    }
    return;
  }
  sim_.schedule(duration, std::move(body));
}

void QuantumDevice::op_finished() {
  if (op_queue_.empty()) {
    busy_ = false;
    // Release the last body's captures now, not when the next op runs:
    // an idle device must not retain circuit/qubit state.
    inflight_body_.reset();
    return;
  }
  busy_ = true;
  PendingOp op = std::move(op_queue_.front());
  op_queue_.pop_front();
  // The in-flight body lives in a member so the scheduled closure only
  // captures `this` and stays within the kernel's inline buffer. Safe
  // because the device serialises: nothing reassigns inflight_body_
  // until the continuation below has returned from it.
  inflight_body_ = std::move(op.body);
  sim_.schedule(op.duration, [this] {
    inflight_body_();
    op_finished();
  });
}

void QuantumDevice::entanglement_swap(
    QubitId a, QubitId b, std::function<void(const SwapCompletion&)> done) {
  QNETP_ASSERT(done != nullptr);
  const auto binding_a = require_binding(a);
  const auto binding_b = require_binding(b);
  QNETP_ASSERT_MSG(binding_a.pair->id() != binding_b.pair->id(),
                   "cannot swap a pair with itself");

  run_or_enqueue(hw_.swap_duration(), [this, a, b, done = std::move(done)] {
    const TimePoint now = sim_.now();
    // Re-resolve: the bindings could not have changed (protocol owns the
    // qubits during the operation) but re-resolving keeps this robust.
    const auto ba = require_binding(a);
    const auto bb = require_binding(b);
    PairPtr left = ba.pair;
    PairPtr right = bb.pair;
    int left_side = ba.side;    // side of `left` held locally (measured)
    int right_side = bb.side;   // side of `right` held locally (measured)

    // Orient so the contraction measures left side 1 and right side 0:
    // left pair contributes its side (1 - left_side) outer endpoint A,
    // right pair contributes its side (1 - right_side) outer endpoint D.
    const auto outer_left = left->side(1 - left_side);
    const auto outer_right = right->side(1 - right_side);

    qstate::TwoQubitState lstate = left->state_at(now);
    qstate::TwoQubitState rstate = right->state_at(now);
    // The contraction convention fixes the measured qubits as left side 1
    // and right side 0; if our local qubit is on the other side, mirror
    // the state by swapping tensor factors.
    auto mirror = [](const qstate::TwoQubitState& s) {
      qstate::Mat4 m;
      const qstate::Mat4& r = s.rho();
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
          const std::size_t mi = ((i & 1) << 1) | (i >> 1);
          const std::size_t mj = ((j & 1) << 1) | (j >> 1);
          m(mi, mj) = r(i, j);
        }
      return qstate::TwoQubitState(m);
    };
    if (left_side == 0) lstate = mirror(lstate);
    if (right_side == 1) rstate = mirror(rstate);

    const auto outcome =
        qstate::entanglement_swap(lstate, rstate, hw_.swap_noise(), rng_);

    // Build the merged pair between the outer endpoints.
    const PairId new_id{(node_.value() << 40) | 0x5A50000000ull |
                        next_pair_seq_++};
    EntangledPair::Side s0{outer_left.node, outer_left.qubit,
                           outer_left.decay};
    EntangledPair::Side s1{outer_right.node, outer_right.qubit,
                           outer_right.decay};
    // The tracked/announced frame of the merged pair is the XOR of the
    // constituents and the announced outcome; entanglement tracking
    // recomputes this from TRACK messages — we store it for the oracle.
    const BellIndex announced = left->announced_bell() ^
                                right->announced_bell() ^
                                outcome.announced_outcome;
    auto merged = std::make_shared<EntangledPair>(
        new_id, outcome.state, announced, s0, s1, now);

    // Rebind the outer endpoints — but only if each endpoint still holds
    // the constituent pair. An end-node may have measured its qubit
    // before the swap ("early measurement", Sec. 4.1): the outcome is
    // already extracted, the qubit was recycled, and the merged pair's
    // record keeps the collapsed state for the surviving side.
    const auto cur_left =
        registry_.find(QubitEndpoint{outer_left.node, outer_left.qubit});
    if (cur_left.has_value() && cur_left->pair.get() == left.get()) {
      registry_.bind(QubitEndpoint{outer_left.node, outer_left.qubit},
                     merged, 0);
    } else {
      merged->freeze_side(0, now);
    }
    const auto cur_right =
        registry_.find(QubitEndpoint{outer_right.node, outer_right.qubit});
    if (cur_right.has_value() && cur_right->pair.get() == right.get()) {
      registry_.bind(QubitEndpoint{outer_right.node, outer_right.qubit},
                     merged, 1);
    } else {
      merged->freeze_side(1, now);
    }
    registry_.unbind(QubitEndpoint{node_, a});
    registry_.unbind(QubitEndpoint{node_, b});
    memory_.free(a);
    memory_.free(b);

    SwapCompletion completion{outcome.announced_outcome, merged};
    done(completion);
  });
}

void QuantumDevice::measure(QubitId qubit, qstate::Basis basis,
                            std::function<void(int)> done) {
  QNETP_ASSERT(done != nullptr);
  require_binding(qubit);
  run_or_enqueue(hw_.readout_duration(),
                 [this, qubit, basis, done = std::move(done)] {
                   const auto binding = require_binding(qubit);
                   int outcome = binding.pair->measure_side(
                       binding.side, basis, sim_.now(), rng_);
                   // Readout misassignment.
                   if (rng_.bernoulli(hw_.readout_flip_prob())) {
                     outcome ^= 1;
                   }
                   // The measured side is a classical record from now on.
                   binding.pair->freeze_side(binding.side, sim_.now());
                   registry_.unbind(QubitEndpoint{node_, qubit});
                   memory_.free(qubit);
                   done(outcome);
                 });
}

void QuantumDevice::pauli_correct(QubitId qubit, BellIndex target,
                                  std::function<void()> done) {
  QNETP_ASSERT(done != nullptr);
  require_binding(qubit);
  run_or_enqueue(hw_.correction_duration(),
                 [this, qubit, target, done = std::move(done)] {
                   const auto binding = require_binding(qubit);
                   binding.pair->pauli_correct_to(binding.side, target,
                                                  sim_.now());
                   done();
                 });
}

void QuantumDevice::move_to_storage(QubitId comm_qubit,
                                    std::function<void(QubitId)> done) {
  QNETP_ASSERT(done != nullptr);
  require_binding(comm_qubit);
  const auto storage = memory_.try_alloc_storage(sim_.now());
  if (!storage.has_value()) {
    done(QubitId::invalid());
    return;
  }
  const QubitId storage_id = *storage;
  run_or_enqueue(
      hw_.move_duration(), [this, comm_qubit, storage_id, done = std::move(done)] {
        const auto binding = require_binding(comm_qubit);
        // Transfer gate noise, then re-home onto the carbon qubit with the
        // carbon decay model.
        binding.pair->apply_channel(
            binding.side,
            qstate::Channel::depolarizing(hw_.move_depolarizing()),
            sim_.now());
        binding.pair->rehome_side(binding.side, storage_id,
                                  hw_.carbon_memory(), sim_.now());
        registry_.bind(QubitEndpoint{node_, storage_id}, binding.pair,
                       binding.side);
        registry_.unbind(QubitEndpoint{node_, comm_qubit});
        memory_.free(comm_qubit);
        done(storage_id);
      });
}

void QuantumDevice::discard(QubitId qubit) {
  const auto binding = registry_.find(QubitEndpoint{node_, qubit});
  if (binding.has_value()) {
    binding->pair->break_side(binding->side, sim_.now());
    registry_.unbind(QubitEndpoint{node_, qubit});
  }
  memory_.free(qubit);
}

void QuantumDevice::release_unused(QubitId qubit) {
  const auto binding = registry_.find(QubitEndpoint{node_, qubit});
  QNETP_ASSERT_MSG(!binding.has_value(),
                   "release_unused on " + qubit.to_string() + " at " +
                       node_.to_string() + " still bound to pair " +
                       (binding ? binding->pair->id().to_string() : ""));
  memory_.free(qubit);
}

void QuantumDevice::apply_attempt_dephasing(std::uint64_t attempts) {
  const double lambda = hw_.nuclear_dephasing_lambda_per_attempt();
  if (lambda <= 0.0 || attempts == 0) return;
  // Survival of coherence over N attempts: (1 - lambda)^N.
  const double total =
      1.0 - std::pow(1.0 - lambda, static_cast<double>(attempts));
  const TimePoint now = sim_.now();
  registry_.for_each_at_node(
      node_, [&](const QubitEndpoint& ep, const PairRegistry::Binding& b) {
        if (memory_.slot(ep.qubit).kind == QubitKind::storage) {
          b.pair->apply_channel(b.side, qstate::Channel::dephasing(total),
                                now);
        }
      });
}

}  // namespace qnetp::qdevice
