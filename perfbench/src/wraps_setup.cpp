// Set-up entry points, wrapped in both the untraced and the traced driver:
// setup_s is the time spent inside them, and they run a few dozen times
// per trial, so timing them does not disturb the untraced measurement.
#include <memory>
#include <optional>
#include <string>

#include "netsim/network.hpp"
#include "netsim/topology_spec.hpp"
#include "trace.hpp"
#include "wrap.hpp"

namespace perfbench::wraps {

using namespace qnetp;
using trace::Span;

PERFBENCH_SAME_TYPE(&netsim::TopologySpec::build,
                    std::unique_ptr<netsim::Network> (netsim::TopologySpec::*)(
                        const netsim::NetworkConfig&) const);
PERFBENCH_WRAP(build, "_ZNK5qnetp6netsim12TopologySpec5buildERKNS0_13NetworkConfigE",
               std::unique_ptr<netsim::Network>, const netsim::TopologySpec*,
               const netsim::NetworkConfig&);
std::unique_ptr<netsim::Network> wrap_build(const netsim::TopologySpec* self,
                                            const netsim::NetworkConfig& config) {
  const Span s(trace::netsim_build);
  return real_build(self, config);
}

PERFBENCH_SAME_TYPE(&netsim::Network::establish_circuit,
                    std::optional<ctrl::CircuitPlan> (netsim::Network::*)(
                        NodeId, NodeId, EndpointId, EndpointId, double,
                        const ctrl::CircuitPlanOptions&, std::string*, Duration));
PERFBENCH_WRAP(establish,
               "_ZN5qnetp6netsim7Network17establish_circuitENS_8StrongIdINS_9NodeIdTagEEES4_NS2_INS_13EndpointIdTagEEES6_dRKNS_4ctrl18CircuitPlanOptionsEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_8DurationE",
               std::optional<ctrl::CircuitPlan>, netsim::Network*, NodeId, NodeId,
               EndpointId, EndpointId, double, const ctrl::CircuitPlanOptions&,
               std::string*, Duration);
std::optional<ctrl::CircuitPlan> wrap_establish(
    netsim::Network* self, NodeId head, NodeId tail, EndpointId head_endpoint,
    EndpointId tail_endpoint, double fidelity,
    const ctrl::CircuitPlanOptions& options, std::string* reason,
    Duration timeout) {
  const Span s(trace::netsim_establish);
  return real_establish(self, head, tail, head_endpoint, tail_endpoint,
                        fidelity, options, reason, timeout);
}

}  // namespace perfbench::wraps
