#include "exp/churn.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/assert.hpp"

namespace qnetp::exp {

using namespace qnetp::literals;

std::vector<ChurnEvent> default_churn_timeline(TopologyFamily family,
                                               std::size_t size) {
  std::vector<ChurnEvent> events;
  auto sever = [&](Duration at, NodeId a, NodeId b) {
    ChurnEvent e;
    e.kind = ChurnEventKind::sever;
    e.at = at;
    e.a = a;
    e.b = b;
    events.push_back(e);
  };
  auto degrade = [&](Duration at, NodeId a, NodeId b, double factor) {
    ChurnEvent e;
    e.kind = ChurnEventKind::degrade;
    e.at = at;
    e.a = a;
    e.b = b;
    e.cost_factor = factor;
    events.push_back(e);
  };
  auto heal = [&](Duration at, NodeId a, NodeId b) {
    ChurnEvent e;
    e.kind = ChurnEventKind::heal;
    e.at = at;
    e.a = a;
    e.b = b;
    events.push_back(e);
  };
  auto fail = [&](Duration at, NodeId node) {
    ChurnEvent e;
    e.kind = ChurnEventKind::fail_node;
    e.at = at;
    e.node = node;
    events.push_back(e);
  };
  auto flash = [&](Duration at, std::size_t crowd) {
    ChurnEvent e;
    e.kind = ChurnEventKind::flash_crowd;
    e.at = at;
    e.crowd = crowd;
    events.push_back(e);
  };

  switch (family) {
    case TopologyFamily::grid: {
      QNETP_ASSERT(size >= 3);
      const auto at = [size](std::size_t r, std::size_t c) {
        return NodeId{r * size + c + 1};
      };
      sever(Duration::seconds(5), at(0, 0), at(0, 1));
      degrade(Duration::seconds(10), at(0, 0), at(1, 0), 6.0);
      heal(Duration::seconds(15), at(0, 0), at(0, 1));
      flash(Duration::seconds(20), 2);
      fail(Duration::seconds(25), at(1, 1));
      break;
    }
    case TopologyFamily::ring:
      QNETP_ASSERT(size >= 5);
      sever(Duration::seconds(5), NodeId{1}, NodeId{2});
      degrade(Duration::seconds(10), NodeId{2}, NodeId{3}, 6.0);
      heal(Duration::seconds(15), NodeId{1}, NodeId{2});
      flash(Duration::seconds(20), 2);
      fail(Duration::seconds(25), NodeId{size / 2 + 1});
      break;
    case TopologyFamily::star:
      // Hub is node 1, leaves 2..size+1.
      QNETP_ASSERT(size >= 4);
      sever(Duration::seconds(5), NodeId{1}, NodeId{2});
      degrade(Duration::seconds(10), NodeId{1}, NodeId{3}, 6.0);
      heal(Duration::seconds(15), NodeId{1}, NodeId{2});
      flash(Duration::seconds(20), 2);
      fail(Duration::seconds(25), NodeId{size + 1});
      break;
    case TopologyFamily::hetero_chain:
      // A chain has no redundancy: any sever partitions it, so the
      // timeline cuts one edge link and heals it before the crowd.
      QNETP_ASSERT(size >= 3);
      sever(Duration::seconds(5), NodeId{1}, NodeId{2});
      heal(Duration::seconds(12), NodeId{1}, NodeId{2});
      flash(Duration::seconds(20), 2);
      break;
    case TopologyFamily::waxman:
      // The edge set depends on the trial seed; only node-level and
      // load events are safe to script statically.
      flash(Duration::seconds(5), 2);
      fail(Duration::seconds(10), NodeId{size});
      break;
  }
  return events;
}

TrialResult churn_trial(const ChurnConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  QNETP_ASSERT(cfg.stride > Duration::zero());
  QNETP_ASSERT(cfg.establish_slot > Duration::zero());
  QNETP_ASSERT(cfg.n_guaranteed <= cfg.n_circuits);

  netsim::NetworkConfig config;
  config.seed = derive_stream_seed(seed, 0);
  config.admission.max_circuits_per_link = cfg.max_circuits_per_link;

  // Build the fabric and the flow endpoint list.
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
    spec.name = "churn_regions";
    config.sharding.shards = cfg.shards;
    net = spec.build(config);

    // Per-region row circuits (the shard_scaling layout): region-local,
    // so the region partition — not the worker count — decides them.
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

  // Routers first: admission happens against the routed view, so give
  // the flooding a convergence warm-up before the first circuit.
  net->enable_linkstate(cfg.linkstate);
  ssim.run_until(ssim.now() + cfg.warmup);
  net->service_control_plane();

  ctrl::CircuitPlanOptions be_options;
  if (cfg.short_cutoff) be_options.cutoff_generation_quantile = 0.85;
  ctrl::CircuitPlanOptions g_options = be_options;
  g_options.requested_eer = cfg.requested_eer;

  // Establish one flow per slot: every establishment instant is an
  // absolute simulated time, independent of --jobs and --shards.
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
    const bool guaranteed =
        cfg.n_guaranteed > 0 &&
        (i % cfg.n_circuits) >= cfg.n_circuits - cfg.n_guaranteed;
    const EndpointId head_ep{10 + i};
    const EndpointId tail_ep{500 + i};
    const auto plan = net->establish_circuit(
        endpoints[i].first, endpoints[i].second, head_ep, tail_ep,
        cfg.fidelity, guaranteed ? g_options : be_options, nullptr,
        cfg.establish_slot);
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

  // Drive the fabric on the stride grid, landing every scripted event at
  // its exact absolute time and servicing the control plane after each
  // stride (teardown releases, routed-view refresh, residual UPDATEs).
  std::vector<ChurnEvent> events = cfg.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& x, const ChurnEvent& y) {
                     return x.at < y.at;
                   });
  std::size_t next_event = 0;
  std::size_t crowd_count = 0;
  double crowd_admitted = 0.0;
  double crowd_rejected = 0.0;
  std::vector<std::pair<CircuitId, NodeId>> crowd_circuits;

  const auto apply_event = [&](const ChurnEvent& e) {
    switch (e.kind) {
      case ChurnEventKind::sever:
        net->sever_link(e.a, e.b);
        break;
      case ChurnEventKind::degrade:
        net->degrade_link(e.a, e.b, e.cost_factor);
        break;
      case ChurnEventKind::heal:
        net->heal_link(e.a, e.b);
        break;
      case ChurnEventKind::fail_node:
        net->fail_node(e.node);
        break;
      case ChurnEventKind::flash_crowd:
        for (std::size_t j = 0; j < e.crowd && !endpoints.empty(); ++j) {
          const auto& ep = endpoints[j % endpoints.size()];
          const EndpointId head_ep{3000 + crowd_count};
          const EndpointId tail_ep{4000 + crowd_count};
          ++crowd_count;
          const auto plan = net->establish_circuit(
              ep.first, ep.second, head_ep, tail_ep, cfg.fidelity,
              be_options, nullptr, cfg.establish_slot);
          if (plan.has_value()) {
            crowd_admitted += 1.0;
            crowd_circuits.emplace_back(plan->install.circuit_id, ep.first);
          } else {
            crowd_rejected += 1.0;
          }
        }
        break;
    }
  };

  TimePoint reached = traffic_start;
  while (reached < traffic_end) {
    TimePoint next_stride = reached + cfg.stride;
    if (next_stride > traffic_end) next_stride = traffic_end;
    while (next_event < events.size() &&
           traffic_start + events[next_event].at <= next_stride) {
      ssim.run_until(traffic_start + events[next_event].at);
      net->service_control_plane();
      apply_event(events[next_event]);
      ++next_event;
    }
    ssim.run_until(next_stride);
    net->service_control_plane();
    reached = next_stride;
  }

  // Audit the survivors before the cleanup teardown.
  double torn_down = 0.0;
  for (const auto& flow : admitted) {
    if (!net->engine(flow.head).circuit_rates(flow.circuit).has_value()) {
      torn_down += 1.0;
    }
  }
  for (const auto& [circuit, head] : crowd_circuits) {
    if (!net->engine(head).circuit_rates(circuit).has_value()) {
      torn_down += 1.0;
    }
  }

  for (const auto& flow : admitted) {
    net->teardown_circuit(flow.circuit, "end of trial");
  }
  for (const auto& [circuit, head] : crowd_circuits) {
    net->teardown_circuit(circuit, "end of trial");
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
  const auto ls = net->linkstate_totals();

  result.set("ok", admitted.empty() ? 0.0 : 1.0);
  result.set("admitted", static_cast<double>(admitted.size()));
  result.set("rejected", rejected);
  result.set("crowd_admitted", crowd_admitted);
  result.set("crowd_rejected", crowd_rejected);
  result.set("torn_down", torn_down);
  result.set("delivered", delivered);
  result.set("completed", completed);
  result.set("updates_applied", updates_applied);
  result.set("lsas_received", static_cast<double>(ls.lsas_received));
  result.set("lsas_aged_out", static_cast<double>(ls.lsas_aged_out));
  result.set("spf_runs", static_cast<double>(ls.spf_runs));
  result.set("consistency_ok", health.consistent ? 1.0 : 0.0);
  result.set("leak_free", health.leak_free ? 1.0 : 0.0);
  result.set("quiescent", net->quiescent() ? 1.0 : 0.0);
  result.set("events", static_cast<double>(ssim.events_executed()));
  ssim.stop();
  return result;
}

}  // namespace qnetp::exp
