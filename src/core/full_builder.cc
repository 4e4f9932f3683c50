#include "core/full_builder.h"

#include "core/clos_wiring.h"

namespace esim::core {

BuiltNetwork build_full_network(sim::Simulator& sim,
                                const NetworkConfig& config) {
  config.spec.validate();
  BuiltNetwork out;
  wire_clos({&sim}, nullptr, config, {}, out);
  return out;
}

}  // namespace esim::core
