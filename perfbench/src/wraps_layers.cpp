// Layer entry points, wrapped in the traced driver only. Only calls made
// from another object file of the library are interposed; a call inside
// the defining file (the EGP's herald handler, channel delivery closures)
// runs unwrapped and its time lands in the caller's self time.
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "ctrl/controller.hpp"
#include "des/sharded.hpp"
#include "des/simulator.hpp"
#include "linklayer/egp.hpp"
#include "netmsg/channel.hpp"
#include "netmsg/codec.hpp"
#include "qdevice/device.hpp"
#include "qhw/photonic_link.hpp"
#include "qnp/engine.hpp"
#include "qstate/swap.hpp"
#include "qstate/two_qubit_state.hpp"
#include "trace.hpp"
#include "wrap.hpp"

namespace perfbench::wraps {

using namespace qnetp;
using trace::Span;

// --- des ---------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&des::Simulator::run_until,
                    std::uint64_t (des::Simulator::*)(TimePoint));
PERFBENCH_WRAP(run_until, "_ZN5qnetp3des9Simulator9run_untilENS_9TimePointE",
               std::uint64_t, des::Simulator*, TimePoint);
std::uint64_t wrap_run_until(des::Simulator* self, TimePoint horizon) {
  const Span s(trace::des_run_until);
  return real_run_until(self, horizon);
}

PERFBENCH_SAME_TYPE(&des::ShardedSimulator::run_until,
                    std::uint64_t (des::ShardedSimulator::*)(TimePoint));
PERFBENCH_WRAP(sharded_run_until,
               "_ZN5qnetp3des16ShardedSimulator9run_untilENS_9TimePointE",
               std::uint64_t, des::ShardedSimulator*, TimePoint);
std::uint64_t wrap_sharded_run_until(des::ShardedSimulator* self,
                                     TimePoint horizon) {
  const Span s(trace::des_sharded_run_until);
  return real_sharded_run_until(self, horizon);
}

// The sharded kernel's barrier: the driver thread blocks here until every
// shard has run its window. Timed only inside a span, so a shard worker's
// idle wait for the next window (outside any span) is not counted.
PERFBENCH_WRAP(shard_wait, "_ZNSt18condition_variable4waitERSt11unique_lockISt5mutexE",
               void, std::condition_variable*, std::unique_lock<std::mutex>&);
void wrap_shard_wait(std::condition_variable* self,
                     std::unique_lock<std::mutex>& lock) {
  if (!trace::in_span()) {
    real_shard_wait(self, lock);
    return;
  }
  const Span s(trace::des_shard_wait);
  real_shard_wait(self, lock);
}

// --- qhw ---------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&qhw::PhotonicLinkModel::solve_alpha,
                    bool (qhw::PhotonicLinkModel::*)(double, double*) const);
PERFBENCH_WRAP(solve_alpha, "_ZNK5qnetp3qhw17PhotonicLinkModel11solve_alphaEdPd",
               bool, const qhw::PhotonicLinkModel*, double, double*);
bool wrap_solve_alpha(const qhw::PhotonicLinkModel* self, double f_min,
                      double* alpha_out) {
  const Span s(trace::qhw_solve_alpha);
  return real_solve_alpha(self, f_min, alpha_out);
}

PERFBENCH_SAME_TYPE(&qhw::PhotonicLinkModel::produced_state,
                    qstate::TwoQubitState (qhw::PhotonicLinkModel::*)(double) const);
PERFBENCH_WRAP(produced_state, "_ZNK5qnetp3qhw17PhotonicLinkModel14produced_stateEd",
               qstate::TwoQubitState, const qhw::PhotonicLinkModel*, double);
qstate::TwoQubitState wrap_produced_state(const qhw::PhotonicLinkModel* self,
                                          double alpha) {
  const Span s(trace::qhw_produced_state);
  return real_produced_state(self, alpha);
}

// --- qstate ------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&qstate::entanglement_swap,
                    qstate::SwapOutcome (*)(const qstate::TwoQubitState&,
                                            const qstate::TwoQubitState&,
                                            const qstate::SwapNoise&, Rng&));
PERFBENCH_WRAP(state_swap,
               "_ZN5qnetp6qstate17entanglement_swapERKNS0_13TwoQubitStateES3_RKNS0_9SwapNoiseERNS_3RngE",
               qstate::SwapOutcome, const qstate::TwoQubitState&,
               const qstate::TwoQubitState&, const qstate::SwapNoise&, Rng&);
qstate::SwapOutcome wrap_state_swap(const qstate::TwoQubitState& left,
                                    const qstate::TwoQubitState& right,
                                    const qstate::SwapNoise& noise, Rng& rng) {
  if (left.is_bell_diagonal() && right.is_bell_diagonal()) {
    ++trace::counters().swap_both_bell_diagonal;
  }
  const Span s(trace::qstate_swap);
  return real_state_swap(left, right, noise, rng);
}

PERFBENCH_SAME_TYPE(&qstate::TwoQubitState::apply_decay,
                    void (qstate::TwoQubitState::*)(int, const qstate::DecayParams&));
PERFBENCH_WRAP(apply_decay,
               "_ZN5qnetp6qstate13TwoQubitState11apply_decayEiRKNS0_11DecayParamsE",
               void, qstate::TwoQubitState*, int, const qstate::DecayParams&);
void wrap_apply_decay(qstate::TwoQubitState* self, int side,
                      const qstate::DecayParams& params) {
  const Span s(trace::qstate_decay);
  real_apply_decay(self, side, params);
}

// --- qdevice -----------------------------------------------------------------

using SwapDone = std::function<void(const qdevice::SwapCompletion&)>;
PERFBENCH_SAME_TYPE(&qdevice::QuantumDevice::entanglement_swap,
                    void (qdevice::QuantumDevice::*)(QubitId, QubitId, SwapDone));
PERFBENCH_WRAP(device_swap,
               "_ZN5qnetp7qdevice13QuantumDevice17entanglement_swapENS_8StrongIdINS_10QubitIdTagEEES4_St8functionIFvRKNS0_14SwapCompletionEEE",
               void, qdevice::QuantumDevice*, QubitId, QubitId, SwapDone);
void wrap_device_swap(qdevice::QuantumDevice* self, QubitId a, QubitId b,
                      SwapDone done) {
  const Span s(trace::qdevice_swap);
  real_device_swap(self, a, b, std::move(done));
}

// --- linklayer ---------------------------------------------------------------

PERFBENCH_SAME_TYPE(&linklayer::EgpLink::submit,
                    void (linklayer::EgpLink::*)(const linklayer::LinkRequest&));
PERFBENCH_WRAP(egp_submit, "_ZN5qnetp9linklayer7EgpLink6submitERKNS0_11LinkRequestE",
               void, linklayer::EgpLink*, const linklayer::LinkRequest&);
void wrap_egp_submit(linklayer::EgpLink* self,
                     const linklayer::LinkRequest& request) {
  const Span s(trace::linklayer_submit);
  real_egp_submit(self, request);
}

// --- qnp ---------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&qnp::QnpEngine::on_message,
                    void (qnp::QnpEngine::*)(NodeId, const netmsg::Message&));
PERFBENCH_WRAP(on_message,
               "_ZN5qnetp3qnp9QnpEngine10on_messageENS_8StrongIdINS_9NodeIdTagEEERKSt7variantIJNS_6netmsg10ForwardMsgENS6_11CompleteMsgENS6_8TrackMsgENS6_9ExpireMsgENS6_10InstallMsgENS6_13InstallAckMsgENS6_11TeardownMsgENS6_12KeepaliveMsgENS6_13TestResultMsgENS6_6LsaMsgENS6_9UpdateMsgENS6_8FrameMsgEEE",
               void, qnp::QnpEngine*, NodeId, const netmsg::Message&);
void wrap_on_message(qnp::QnpEngine* self, NodeId from,
                     const netmsg::Message& msg) {
  const Span s(trace::qnp_on_message);
  real_on_message(self, from, msg);
}

PERFBENCH_SAME_TYPE(&qnp::QnpEngine::on_link_pair,
                    void (qnp::QnpEngine::*)(const linklayer::LinkPairDelivery&));
PERFBENCH_WRAP(on_link_pair,
               "_ZN5qnetp3qnp9QnpEngine12on_link_pairERKNS_9linklayer16LinkPairDeliveryE",
               void, qnp::QnpEngine*, const linklayer::LinkPairDelivery&);
void wrap_on_link_pair(qnp::QnpEngine* self,
                       const linklayer::LinkPairDelivery& delivery) {
  const Span s(trace::qnp_on_link_pair);
  real_on_link_pair(self, delivery);
}

PERFBENCH_SAME_TYPE(&qnp::QnpEngine::submit_request,
                    bool (qnp::QnpEngine::*)(CircuitId, const qnp::AppRequest&,
                                             std::string*));
PERFBENCH_WRAP(submit_request,
               "_ZN5qnetp3qnp9QnpEngine14submit_requestENS_8StrongIdINS_12CircuitIdTagEEERKNS0_10AppRequestEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
               bool, qnp::QnpEngine*, CircuitId, const qnp::AppRequest&,
               std::string*);
bool wrap_submit_request(qnp::QnpEngine* self, CircuitId circuit,
                         const qnp::AppRequest& request, std::string* reason) {
  const Span s(trace::qnp_submit_request);
  return real_submit_request(self, circuit, request, reason);
}

PERFBENCH_SAME_TYPE(&qnp::QnpEngine::release_app_qubit,
                    void (qnp::QnpEngine::*)(QubitId));
PERFBENCH_WRAP(release_app_qubit,
               "_ZN5qnetp3qnp9QnpEngine17release_app_qubitENS_8StrongIdINS_10QubitIdTagEEE",
               void, qnp::QnpEngine*, QubitId);
void wrap_release_app_qubit(qnp::QnpEngine* self, QubitId qubit) {
  const Span s(trace::qnp_release_app_qubit);
  real_release_app_qubit(self, qubit);
}

// --- netmsg ------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&netmsg::ClassicalNetwork::send,
                    void (netmsg::ClassicalNetwork::*)(NodeId, NodeId,
                                                       const netmsg::Message&));
PERFBENCH_WRAP(net_send,
               "_ZN5qnetp6netmsg16ClassicalNetwork4sendENS_8StrongIdINS_9NodeIdTagEEES4_RKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE",
               void, netmsg::ClassicalNetwork*, NodeId, NodeId,
               const netmsg::Message&);
void wrap_net_send(netmsg::ClassicalNetwork* self, NodeId from, NodeId to,
                   const netmsg::Message& msg) {
  const Span s(trace::netmsg_send);
  real_net_send(self, from, to, msg);
}

PERFBENCH_SAME_TYPE(&netmsg::encode, Bytes (*)(const netmsg::Message&));
PERFBENCH_WRAP(encode,
               "_ZN5qnetp6netmsg6encodeERKSt7variantIJNS0_10ForwardMsgENS0_11CompleteMsgENS0_8TrackMsgENS0_9ExpireMsgENS0_10InstallMsgENS0_13InstallAckMsgENS0_11TeardownMsgENS0_12KeepaliveMsgENS0_13TestResultMsgENS0_6LsaMsgENS0_9UpdateMsgENS0_8FrameMsgEEE",
               Bytes, const netmsg::Message&);
Bytes wrap_encode(const netmsg::Message& msg) {
  const Span s(trace::netmsg_encode);
  Bytes out = real_encode(msg);
  trace::counters().encoded_bytes += out.size();
  return out;
}

PERFBENCH_SAME_TYPE(&netmsg::decode, netmsg::Message (*)(const Bytes&));
PERFBENCH_WRAP(decode, "_ZN5qnetp6netmsg6decodeERKSt6vectorIhSaIhEE",
               netmsg::Message, const Bytes&);
netmsg::Message wrap_decode(const Bytes& bytes) {
  const Span s(trace::netmsg_decode);
  return real_decode(bytes);
}

// --- ctrl --------------------------------------------------------------------

PERFBENCH_SAME_TYPE(&ctrl::Controller::plan_circuit,
                    std::optional<ctrl::CircuitPlan> (ctrl::Controller::*)(
                        NodeId, NodeId, EndpointId, EndpointId, double,
                        const ctrl::CircuitPlanOptions&, std::string*));
PERFBENCH_WRAP(plan_circuit,
               "_ZN5qnetp4ctrl10Controller12plan_circuitENS_8StrongIdINS_9NodeIdTagEEES4_NS2_INS_13EndpointIdTagEEES6_dRKNS0_18CircuitPlanOptionsEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
               std::optional<ctrl::CircuitPlan>, ctrl::Controller*, NodeId,
               NodeId, EndpointId, EndpointId, double,
               const ctrl::CircuitPlanOptions&, std::string*);
std::optional<ctrl::CircuitPlan> wrap_plan_circuit(
    ctrl::Controller* self, NodeId head, NodeId tail, EndpointId head_endpoint,
    EndpointId tail_endpoint, double fidelity,
    const ctrl::CircuitPlanOptions& options, std::string* reason) {
  const Span s(trace::ctrl_plan_circuit);
  return real_plan_circuit(self, head, tail, head_endpoint, tail_endpoint,
                           fidelity, options, reason);
}

}  // namespace perfbench::wraps
