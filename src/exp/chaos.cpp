#include "exp/chaos.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/assert.hpp"

namespace qnetp::exp {

namespace {

/// Per-channel conservation with unsigned-safe comparisons:
/// sent + duplicated == delivered + dropped() + in_flight() and no
/// counter ran ahead of the copies actually put on the wire.
bool conserved(const netmsg::ChannelStats& s) {
  if (s.dropped_down + s.dropped_fault > s.sent) return false;
  return s.delivered + s.dropped_no_handler + s.decode_errors <=
         s.transmissions();
}

/// FNV-1a over the reference router's converged view, sorted by link id:
/// the comparable fingerprint behind the partition-vs-sever equivalence
/// gate in bench/chaos_soak.
std::uint64_t view_digest(ctrl::LinkStateRouter& reference) {
  auto links = reference.view_links();
  std::sort(links.begin(), links.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  for (const auto& l : links) {
    mix(l.id.value());
    mix(l.a.value());
    mix(l.b.value());
    std::uint64_t cost_bits;
    static_assert(sizeof cost_bits == sizeof l.cost);
    std::memcpy(&cost_bits, &l.cost, sizeof cost_bits);
    mix(cost_bits);
  }
  return h;
}

}  // namespace

TrialResult chaos_trial(const ChaosConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  QNETP_ASSERT(cfg.stride > Duration::zero());
  QNETP_ASSERT(cfg.establish_slot > Duration::zero());

  netsim::NetworkConfig config;
  config.seed = derive_stream_seed(seed, 0);
  config.transport = cfg.transport;
  config.faults = cfg.faults;
  // Every trial gets its own fault pattern; the per-channel streams are
  // forked from this seed inside the channel layer.
  config.faults.seed = derive_stream_seed(seed, 1);

  std::vector<std::pair<NodeId, NodeId>> endpoints;
  std::unique_ptr<netsim::Network> net;
  if (cfg.regions > 1) {
    QNETP_ASSERT_MSG(cfg.shards >= 1 && cfg.shards <= cfg.regions,
                     "shards must fold onto the regions");
    const auto hw = qhw::simulation_preset();
    std::vector<netsim::TopologySpec> parts;
    parts.reserve(cfg.regions);
    for (std::size_t r = 0; r < cfg.regions; ++r) {
      parts.push_back(netsim::TopologySpec::grid(
          cfg.region_rows, cfg.region_cols, hw, qhw::FiberParams::lab(2.0)));
    }
    auto spec = netsim::TopologySpec::compose_regions(
        parts, qhw::FiberParams::telecom(20000.0));
    spec.name = "chaos_regions";
    config.sharding.shards = cfg.shards;
    net = spec.build(config);

    const std::size_t per_region = cfg.region_rows * cfg.region_cols;
    const std::size_t span = std::min<std::size_t>(3, cfg.region_cols - 1);
    const std::size_t starts = cfg.region_cols - span;
    for (std::size_t r = 0; r < cfg.regions; ++r) {
      for (std::size_t i = 0; i < cfg.n_circuits; ++i) {
        const std::size_t row = i % cfg.region_rows;
        const std::size_t start = ((i / cfg.region_rows) * 2) % starts;
        endpoints.emplace_back(
            NodeId{r * per_region + row * cfg.region_cols + start + 1},
            NodeId{r * per_region + row * cfg.region_cols + start + span + 1});
      }
    }
  } else {
    QNETP_ASSERT_MSG(cfg.shards <= 1, "shards need a multi-region fabric");
    net = family_topology_spec(cfg.family, cfg.size, seed).build(config);
    endpoints = family_flow_endpoints(cfg.family, cfg.size, cfg.n_circuits);
  }
  des::ShardedSimulator& ssim = net->sharded_sim();

  net->enable_linkstate(cfg.linkstate);
  ssim.run_until(ssim.now() + cfg.warmup);
  net->service_control_plane();

  ctrl::CircuitPlanOptions options;
  if (cfg.short_cutoff) options.cutoff_generation_quantile = 0.85;

  struct Flow {
    std::unique_ptr<netsim::DualProbe> probe;
    CircuitId circuit;
    EndpointId head_ep, tail_ep;
    NodeId head;
    RequestId request;
  };
  std::deque<Flow> admitted;
  double rejected = 0.0;
  TimePoint slot = ssim.now();
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    ssim.run_until(slot);
    slot = slot + cfg.establish_slot;
    const EndpointId head_ep{10 + i};
    const EndpointId tail_ep{500 + i};
    const auto plan = net->establish_circuit(
        endpoints[i].first, endpoints[i].second, head_ep, tail_ep,
        cfg.fidelity, options, nullptr, cfg.establish_slot);
    if (!plan.has_value()) {
      rejected += 1.0;
      continue;
    }
    auto probe = std::make_unique<netsim::DualProbe>(
        *net, endpoints[i].first, head_ep, endpoints[i].second, tail_ep);
    admitted.push_back(Flow{std::move(probe), plan->install.circuit_id,
                            head_ep, tail_ep, endpoints[i].first,
                            RequestId{i + 1}});
  }
  ssim.run_until(slot);
  net->service_control_plane();

  const TimePoint traffic_start = ssim.now();
  const TimePoint traffic_end = traffic_start + cfg.horizon;
  for (const auto& flow : admitted) {
    qnp::AppRequest req = keep_request(flow.request.value(),
                                       cfg.pairs_per_request, flow.head_ep,
                                       flow.tail_ep);
    net->engine(flow.head).submit_request(flow.circuit, req);
  }

  // Stride loop with the (single) optional cut event at its absolute
  // time. Silent partitions surface later, through the dead-peer drain
  // inside service_control_plane at the following stride boundaries.
  const NodeId cut_a = cfg.cut_a.valid() ? cfg.cut_a : NodeId{1};
  const NodeId cut_b = cfg.cut_b.valid() ? cfg.cut_b : NodeId{2};
  bool cut_applied = !cfg.cut_link;
  TimePoint reached = traffic_start;
  while (reached < traffic_end) {
    TimePoint next_stride = reached + cfg.stride;
    if (next_stride > traffic_end) next_stride = traffic_end;
    if (!cut_applied && traffic_start + cfg.cut_at <= next_stride) {
      ssim.run_until(traffic_start + cfg.cut_at);
      net->service_control_plane();
      if (cfg.silent_partition) {
        net->partition_link(cut_a, cut_b);
      } else {
        net->sever_link(cut_a, cut_b);
      }
      cut_applied = true;
    }
    ssim.run_until(next_stride);
    net->service_control_plane();
    reached = next_stride;
  }

  double torn_down = 0.0;
  for (const auto& flow : admitted) {
    if (!net->engine(flow.head).circuit_rates(flow.circuit).has_value()) {
      torn_down += 1.0;
    }
  }
  for (const auto& flow : admitted) {
    net->teardown_circuit(flow.circuit, "end of trial");
  }
  ssim.run_until(traffic_end + cfg.drain);
  net->service_control_plane();

  double delivered = 0.0;
  double completed = 0.0;
  for (const auto& flow : admitted) {
    const double pairs = static_cast<double>(flow.probe->pair_count());
    delivered += pairs;
    result.add_sample("flow_delivered", pairs);
    if (flow.probe->head_completion(flow.request).has_value()) {
      completed += 1.0;
    }
  }

  const TrialHealth health = trial_health(*net);
  double updates_applied = 0.0;
  for (const NodeId id : net->node_ids()) {
    updates_applied +=
        static_cast<double>(net->engine(id).counters().updates_applied);
  }

  netmsg::ReliableStats transport_total;
  if (net->transport_enabled()) {
    for (const NodeId id : net->node_ids()) {
      const auto& s = net->transport(id).stats();
      transport_total.data_sent += s.data_sent;
      transport_total.retransmits += s.retransmits;
      transport_total.acks_sent += s.acks_sent;
      transport_total.delivered += s.delivered;
      transport_total.duplicates_filtered += s.duplicates_filtered;
      transport_total.buffered += s.buffered;
      transport_total.payload_decode_errors += s.payload_decode_errors;
      transport_total.dead_verdicts += s.dead_verdicts;
    }
  }

  const auto net_stats = net->classical().stats();
  double conservation_ok = conserved(net_stats.total) ? 1.0 : 0.0;
  for (const auto& [key, s] : net_stats.channels) {
    if (!conserved(s)) conservation_ok = 0.0;
  }

  const std::uint64_t view = view_digest(net->router(net->node_ids().front()));

  result.set("ok", admitted.empty() ? 0.0 : 1.0);
  result.set("admitted", static_cast<double>(admitted.size()));
  result.set("rejected", rejected);
  result.set("torn_down", torn_down);
  result.set("delivered", delivered);
  result.set("completed", completed);
  result.set("slo", admitted.empty()
                        ? 0.0
                        : completed / static_cast<double>(admitted.size()));
  result.set("updates_applied", updates_applied);
  result.set("retransmits", static_cast<double>(transport_total.retransmits));
  result.set("dead_verdicts",
             static_cast<double>(transport_total.dead_verdicts));
  result.set("duplicates_filtered",
             static_cast<double>(transport_total.duplicates_filtered));
  result.set("transport_delivered",
             static_cast<double>(transport_total.delivered));
  result.set("payload_decode_errors",
             static_cast<double>(transport_total.payload_decode_errors));
  result.set("net_sent", static_cast<double>(net_stats.total.sent));
  result.set("net_duplicated",
             static_cast<double>(net_stats.total.duplicated));
  result.set("net_delivered", static_cast<double>(net_stats.total.delivered));
  result.set("fault_dropped",
             static_cast<double>(net_stats.total.dropped_fault));
  result.set("corrupted", static_cast<double>(net_stats.total.corrupted));
  result.set("reordered", static_cast<double>(net_stats.total.reordered));
  result.set("net_decode_errors",
             static_cast<double>(net_stats.total.decode_errors));
  result.set("conservation_ok", conservation_ok);
  result.set("consistency_ok", health.consistent ? 1.0 : 0.0);
  result.set("leak_free", health.leak_free ? 1.0 : 0.0);
  result.set("quiescent", net->quiescent() ? 1.0 : 0.0);
  result.set("view_digest_lo", static_cast<double>(view & 0xffffffffull));
  result.set("view_digest_hi", static_cast<double>(view >> 32));
  result.set("events", static_cast<double>(ssim.events_executed()));
  ssim.stop();
  return result;
}

}  // namespace qnetp::exp
