#include "core/clos_wiring.h"

#include <algorithm>
#include <string>

namespace esim::core {

using net::HostId;
using net::Link;
using net::Switch;
using net::SwitchId;

std::vector<const CoreAttachment*> BuiltNetwork::attachments_of(
    std::uint32_t cluster) const {
  std::vector<const CoreAttachment*> out;
  for (const auto& a : core_links) {
    if (a.cluster == cluster) out.push_back(&a);
  }
  return out;
}

std::vector<sim::Simulator*> partition_sims(sim::ParallelEngine& engine) {
  std::vector<sim::Simulator*> sims;
  for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
    sims.push_back(&engine.partition(p).sim());
  }
  return sims;
}

void wire_clos(const std::vector<sim::Simulator*>& sims,
               sim::ParallelEngine* engine, const NetworkConfig& config,
               const std::vector<ClusterFidelity>& fidelity,
               BuiltNetwork& out) {
  const net::ClosSpec& spec = config.spec;
  const std::uint32_t C = spec.clusters;
  const std::uint32_t T = spec.tors_per_cluster;
  const std::uint32_t A = spec.aggs_per_cluster;
  const std::uint32_t K = spec.cores;
  const auto P = static_cast<std::uint32_t>(sims.size());
  std::vector<bool> packet(C, true);
  for (std::uint32_t c = 0; c < C && c < fidelity.size(); ++c) {
    packet[c] = fidelity[c].approx == nullptr;
  }

  out.spec = spec;
  out.hosts.assign(spec.total_hosts(), nullptr);
  out.switches.assign(spec.total_switches(), nullptr);
  out.clusters.assign(C, nullptr);
  out.host_uplinks.assign(spec.total_hosts(), nullptr);
  out.host_downlinks.assign(spec.total_hosts(), nullptr);
  out.partition_of_switch.resize(spec.total_switches());
  out.partition_of_host.resize(spec.total_hosts());
  out.partition_of_cluster.resize(C);
  const auto& part_of_switch = out.partition_of_switch;
  const auto& part_of_host = out.partition_of_host;
  const auto& part_of_cluster = out.partition_of_cluster;

  // --- components, in the canonical creation order (see header) ---
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    out.hosts[h] = sims[part_of_host[h]]->add_component<tcp::Host>(
        spec.host_name(h), h, config.tcp);
  }
  auto add_switch = [&](SwitchId id, std::string name) {
    Switch* sw = sims[part_of_switch[id]]->add_component<Switch>(
        std::move(name), id, config.switch_processing);
    if (!config.ecmp_port_sensitive) sw->set_port_sensitive_ecmp(false);
    out.switches[id] = sw;
  };
  for (std::uint32_t c = 0; c < C; ++c) {
    if (!packet[c]) continue;
    for (std::uint32_t t = 0; t < T; ++t) {
      add_switch(spec.tor_id(c, t), spec.tor_name(c, t));
    }
    for (std::uint32_t a = 0; a < A; ++a) {
      add_switch(spec.agg_id(c, a), spec.agg_name(c, a));
    }
  }
  for (std::uint32_t k = 0; k < K; ++k) {
    add_switch(spec.core_id(k), spec.core_name(k));
  }
  for (std::uint32_t c = 0; c < C; ++c) {
    if (packet[c]) continue;
    const ClusterFidelity& backend = fidelity[c];
    ApproxCluster::Config acfg = *backend.approx;
    acfg.spec = spec;
    acfg.cluster = c;
    out.clusters[c] = sims[part_of_cluster[c]]->add_component<ApproxCluster>(
        "approx.c" + std::to_string(c), acfg, *backend.ingress_model,
        *backend.egress_model);
  }

  // --- links & ports ---
  auto cross = [engine](std::uint32_t from,
                        std::uint32_t to) -> net::RemoteScheduler {
    return [engine, from, to](sim::SimTime at, std::uint64_t key,
                              sim::EventFn fn) {
      engine->send_cross(from, to, at, key, std::move(fn));
    };
  };
  // Minimum propagation over the cross links of each (from, to) pair.
  std::vector<sim::SimTime> pair_lookahead(
      static_cast<std::size_t>(P) * P,
      sim::ParallelEngine::infinite_lookahead());
  // A link from `src` (in partition `from`) to `dst` (in `to`), owned by
  // the sender's partition.
  auto make_link = [&](const auto* src, std::uint32_t from, auto* dst,
                       std::uint32_t to, const Link::Config& lcfg) {
    Link* link = sims[from]->add_component<Link>(
        src->name() + "->" + dst->name(), lcfg, dst);
    if (from != to) {
      link->set_remote_scheduler(cross(from, to));
      ++out.cross_partition_links;
      sim::SimTime& slot =
          pair_lookahead[static_cast<std::size_t>(from) * P + to];
      slot = std::min(slot, lcfg.propagation);
    }
    return link;
  };

  // FIB candidate sets, collected as ports are added. Candidate order is
  // the port insertion order — hosts by id, aggs, cores and clusters by
  // index — which is what net::compute_path's ECMP replay assumes.
  std::vector<std::uint32_t> host_port(spec.total_hosts());  // ToR -> host
  // ToR -> its cluster's aggs; Agg -> every core.
  std::vector<std::vector<std::uint32_t>> up_ports(spec.total_switches());
  // Agg (c, a) -> ToR t of its cluster, at [(c * A + a) * T + t].
  std::vector<std::uint32_t> agg_down(static_cast<std::size_t>(C) * A * T);
  // Core k -> cluster c, at [k * C + c]: the cluster's aggs, or the single
  // link into its ApproxCluster.
  std::vector<std::vector<std::uint32_t>> core_down(
      static_cast<std::size_t>(K) * C);

  // Host <-> ToR, or host -> ApproxCluster (hosts share their backend's
  // partition, so these never cross).
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const std::uint32_t c = spec.cluster_of_host(h);
    const std::uint32_t ph = part_of_host[h];
    tcp::Host* host = out.hosts[h];
    if (packet[c]) {
      const SwitchId tor = spec.tor_of_host(h);
      Switch* tor_sw = out.switches[tor];
      const std::uint32_t pt = part_of_switch[tor];
      Link* up = make_link(host, ph, tor_sw, pt, config.host_uplink);
      Link* down = make_link(tor_sw, pt, host, ph, config.fabric_link);
      host->set_uplink(up);
      out.host_uplinks[h] = up;
      out.host_downlinks[h] = down;
      host_port[h] = tor_sw->add_port(down);
    } else {
      ApproxCluster* cluster = out.clusters[c];
      Link* up = make_link(host, ph, cluster, part_of_cluster[c],
                           config.host_uplink);
      host->set_uplink(up);
      out.host_uplinks[h] = up;
      cluster->attach_host(h, host);
    }
  }

  // ToR <-> Agg (every ToR to every Agg of its cluster, aggs ascending).
  for (std::uint32_t c = 0; c < C; ++c) {
    if (!packet[c]) continue;
    for (std::uint32_t t = 0; t < T; ++t) {
      const SwitchId tor = spec.tor_id(c, t);
      Switch* tor_sw = out.switches[tor];
      const std::uint32_t pt = part_of_switch[tor];
      for (std::uint32_t a = 0; a < A; ++a) {
        const SwitchId agg = spec.agg_id(c, a);
        Switch* agg_sw = out.switches[agg];
        const std::uint32_t pa = part_of_switch[agg];
        Link* up = make_link(tor_sw, pt, agg_sw, pa, config.fabric_link);
        Link* down = make_link(agg_sw, pa, tor_sw, pt, config.fabric_link);
        up_ports[tor].push_back(tor_sw->add_port(up));
        agg_down[(static_cast<std::size_t>(c) * A + a) * T + t] =
            agg_sw->add_port(down);
        out.intra_fabric_links.emplace_back(c, up);
        out.intra_fabric_links.emplace_back(c, down);
      }
    }
  }

  // Agg <-> Core (every Agg to every Core, cores ascending; core ports
  // are added cluster-major then agg-major).
  const Link::Config& core_cfg = config.core_link_config();
  for (std::uint32_t c = 0; c < C; ++c) {
    if (!packet[c]) continue;
    for (std::uint32_t a = 0; a < A; ++a) {
      const SwitchId agg = spec.agg_id(c, a);
      Switch* agg_sw = out.switches[agg];
      const std::uint32_t pa = part_of_switch[agg];
      for (std::uint32_t k = 0; k < K; ++k) {
        Switch* core_sw = out.switches[spec.core_id(k)];
        const std::uint32_t pk = part_of_switch[spec.core_id(k)];
        Link* up = make_link(agg_sw, pa, core_sw, pk, core_cfg);
        Link* down = make_link(core_sw, pk, agg_sw, pa, core_cfg);
        up_ports[agg].push_back(agg_sw->add_port(up));
        core_down[static_cast<std::size_t>(k) * C + c].push_back(
            core_sw->add_port(down));
        out.core_links.push_back(CoreAttachment{c, a, k, up, down});
      }
    }
  }

  // Core -> ApproxCluster. The reverse direction is no link: the model
  // injects egress packets straight into the core switch, through a
  // cross-partition scheduler when the core lives elsewhere.
  for (std::uint32_t k = 0; k < K; ++k) {
    Switch* core_sw = out.switches[spec.core_id(k)];
    const std::uint32_t pk = part_of_switch[spec.core_id(k)];
    for (std::uint32_t c = 0; c < C; ++c) {
      if (packet[c]) continue;
      ApproxCluster* cluster = out.clusters[c];
      const std::uint32_t pc = part_of_cluster[c];
      Link* down = make_link(core_sw, pk, cluster, pc, core_cfg);
      core_down[static_cast<std::size_t>(k) * C + c].push_back(
          core_sw->add_port(down));
      cluster->attach_core(k, core_sw);
      if (pc != pk) cluster->set_core_remote(k, cross(pc, pk));
    }
  }

  // --- per-pair lookahead ---
  // Connected pairs are bounded by their fastest link; unconnected pairs
  // never exchange a packet over a link, so they do not constrain the
  // window at all (and any send over them is rejected).
  if (engine != nullptr) {
    for (std::uint32_t a = 0; a < P; ++a) {
      for (std::uint32_t b = 0; b < P; ++b) {
        if (a != b) {
          engine->set_pair_lookahead(
              a, b, pair_lookahead[static_cast<std::size_t>(a) * P + b]);
        }
      }
    }
  }

  // --- FIBs ---
  for (HostId dst = 0; dst < spec.total_hosts(); ++dst) {
    const std::uint32_t dst_cluster = spec.cluster_of_host(dst);
    const SwitchId dst_tor = spec.tor_of_host(dst);
    const std::uint32_t dst_tor_index = spec.tor_index_of_host(dst);

    // ToRs: down to the host, else ECMP up across the cluster's aggs.
    // Aggs: down to the destination ToR inside its cluster, else ECMP up
    // across every core.
    for (std::uint32_t c = 0; c < C; ++c) {
      if (!packet[c]) continue;
      for (std::uint32_t t = 0; t < T; ++t) {
        const SwitchId tor = spec.tor_id(c, t);
        out.switches[tor]->set_route(
            dst, tor == dst_tor ? std::vector<std::uint32_t>{host_port[dst]}
                                : up_ports[tor]);
      }
      for (std::uint32_t a = 0; a < A; ++a) {
        const SwitchId agg = spec.agg_id(c, a);
        out.switches[agg]->set_route(
            dst,
            c == dst_cluster
                ? std::vector<std::uint32_t>{agg_down
                      [(static_cast<std::size_t>(c) * A + a) * T +
                       dst_tor_index]}
                : up_ports[agg]);
      }
    }

    // Cores: ECMP across the destination cluster's aggs (ascending), or
    // its single ApproxCluster link.
    for (std::uint32_t k = 0; k < K; ++k) {
      out.switches[spec.core_id(k)]->set_route(
          dst, core_down[static_cast<std::size_t>(k) * C + dst_cluster]);
    }
  }

  // Start macro-state windows.
  for (auto* cluster : out.clusters) {
    if (cluster != nullptr) cluster->start();
  }
}

}  // namespace esim::core
