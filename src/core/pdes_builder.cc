#include "core/pdes_builder.h"

#include <stdexcept>

#include "core/clos_wiring.h"

namespace esim::core {

PdesNetwork build_clos_partitioned(sim::ParallelEngine& engine,
                                   const NetworkConfig& config,
                                   PlacementPolicy policy) {
  const net::ClosSpec& spec = config.spec;
  spec.validate();
  if (engine.lookahead() > config.fabric_link.propagation ||
      engine.lookahead() > config.host_uplink.propagation ||
      engine.lookahead() > config.core_link_config().propagation) {
    throw std::invalid_argument(
        "build_clos_partitioned: engine lookahead exceeds link "
        "propagation (causality would break)");
  }

  PdesNetwork out;
  out.plan = make_partition_plan(spec, engine.num_partitions(), policy);
  out.partition_of_switch = out.plan.partition_of_switch;
  out.partition_of_host.resize(spec.total_hosts());
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    out.partition_of_host[h] = out.plan.partition_of_host(spec, h);
  }
  wire_clos(partition_sims(engine), &engine, config, {}, out);
  return out;
}

}  // namespace esim::core
