#include "check/scenario.h"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace esim::check {
namespace {

constexpr const char* kHeader = "# esim_diffcheck scenario v1";

std::uint64_t parse_u64(const std::string& value, const std::string& key) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario: bad value for " + key + ": '" +
                                value + "'");
  }
}

}  // namespace

const char* tcp_variant_name(TcpVariant v) {
  switch (v) {
    case TcpVariant::NewReno: return "newreno";
    case TcpVariant::DelayedAck: return "delayed_ack";
    case TcpVariant::Dctcp: return "dctcp";
  }
  return "?";
}

net::ClosSpec Scenario::clos() const {
  net::ClosSpec spec;
  spec.clusters = 1;
  spec.tors_per_cluster = tors;
  spec.aggs_per_cluster = spines;
  spec.hosts_per_tor = hosts_per_tor;
  spec.cores = 0;
  return spec;
}

core::NetworkConfig Scenario::network_config() const {
  core::NetworkConfig cfg;
  cfg.spec = clos();
  cfg.fabric_link.queue_capacity_bytes = queue_bytes;
  cfg.fabric_link.ecn_threshold_bytes = ecn_threshold;
  cfg.tcp.delayed_ack = tcp == TcpVariant::DelayedAck;
  cfg.tcp.dctcp = tcp == TcpVariant::Dctcp;
  cfg.ecmp_port_sensitive = ecmp_port_sensitive;
  return cfg;
}

std::string Scenario::summary() const {
  std::ostringstream os;
  os << tors << "x" << spines << " spines, " << total_hosts() << " hosts, "
     << flows.size() << " flows, " << tcp_variant_name(tcp) << ", "
     << duration_ns / 1'000'000.0 << "ms, seed=" << seed;
  return os.str();
}

std::string Scenario::serialize() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "seed=" << seed << "\n";
  os << "tors=" << tors << "\n";
  os << "spines=" << spines << "\n";
  os << "hosts_per_tor=" << hosts_per_tor << "\n";
  os << "queue_bytes=" << queue_bytes << "\n";
  os << "ecn_threshold=" << ecn_threshold << "\n";
  os << "tcp=" << tcp_variant_name(tcp) << "\n";
  os << "duration_ns=" << duration_ns << "\n";
  os << "ecmp_port_sensitive=" << (ecmp_port_sensitive ? 1 : 0) << "\n";
  for (const FlowSpec& f : flows) {
    os << "flow=" << f.src << "," << f.dst << "," << f.bytes << ","
       << f.start_ns << "," << f.flow_id << "\n";
  }
  return os.str();
}

Scenario Scenario::parse(const std::string& text) {
  Scenario sc;
  sc.flows.clear();
  std::istringstream is{text};
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == kHeader) saw_header = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario: malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "seed") {
      sc.seed = parse_u64(value, key);
    } else if (key == "tors") {
      sc.tors = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "spines") {
      sc.spines = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "hosts_per_tor") {
      sc.hosts_per_tor = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "queue_bytes") {
      sc.queue_bytes = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "ecn_threshold") {
      sc.ecn_threshold = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "tcp") {
      if (value == "newreno") {
        sc.tcp = TcpVariant::NewReno;
      } else if (value == "delayed_ack") {
        sc.tcp = TcpVariant::DelayedAck;
      } else if (value == "dctcp") {
        sc.tcp = TcpVariant::Dctcp;
      } else {
        throw std::invalid_argument("scenario: unknown tcp variant '" +
                                    value + "'");
      }
    } else if (key == "duration_ns") {
      sc.duration_ns = static_cast<std::int64_t>(parse_u64(value, key));
    } else if (key == "ecmp_port_sensitive") {
      // Absent in pre-memo files (defaults to true), so old scenario
      // files keep parsing.
      sc.ecmp_port_sensitive = parse_u64(value, key) != 0;
    } else if (key == "flow") {
      FlowSpec f;
      std::istringstream fs{value};
      std::string part;
      std::vector<std::uint64_t> parts;
      while (std::getline(fs, part, ',')) {
        parts.push_back(parse_u64(part, "flow"));
      }
      if (parts.size() != 5) {
        throw std::invalid_argument("scenario: flow needs 5 fields, got '" +
                                    value + "'");
      }
      f.src = static_cast<net::HostId>(parts[0]);
      f.dst = static_cast<net::HostId>(parts[1]);
      f.bytes = parts[2];
      f.start_ns = static_cast<std::int64_t>(parts[3]);
      f.flow_id = parts[4];
      sc.flows.push_back(f);
    } else {
      throw std::invalid_argument("scenario: unknown key '" + key + "'");
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("scenario: missing header line '" +
                                std::string(kHeader) + "'");
  }
  sc.validate();
  return sc;
}

void Scenario::validate() const {
  clos().validate();
  if (duration_ns <= 0) {
    throw std::invalid_argument("scenario: duration must be positive");
  }
  if (queue_bytes < 2000) {
    throw std::invalid_argument(
        "scenario: queue_bytes must hold at least one full packet");
  }
  std::set<std::pair<net::HostId, std::int64_t>> starts;
  std::set<std::uint64_t> ids;
  for (const FlowSpec& f : flows) {
    if (f.src >= total_hosts() || f.dst >= total_hosts()) {
      throw std::invalid_argument("scenario: flow endpoint out of range");
    }
    if (f.src == f.dst) {
      throw std::invalid_argument("scenario: flow src == dst");
    }
    if (f.bytes == 0) {
      throw std::invalid_argument("scenario: flow bytes must be positive");
    }
    if (f.start_ns < 0 || f.start_ns >= duration_ns) {
      throw std::invalid_argument("scenario: flow start outside [0, duration)");
    }
    if (f.flow_id == 0 || !ids.insert(f.flow_id).second) {
      throw std::invalid_argument("scenario: flow ids must be unique and > 0");
    }
    if (!starts.insert({f.src, f.start_ns}).second) {
      throw std::invalid_argument(
          "scenario: per-host flow start times must be unique (two "
          "same-instant open_flow calls on one host would leave port "
          "assignment order-dependent)");
    }
  }
}

void save_scenario(const Scenario& sc, const std::string& path) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error("save_scenario: cannot open " + path);
  }
  out << sc.serialize();
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("load_scenario: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return Scenario::parse(ss.str());
}

}  // namespace esim::check
