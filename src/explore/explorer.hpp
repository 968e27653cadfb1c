// Symbolic packet-path explorer (the semantic layer above the DV-H/D/
// P/L/R structural verifier): executes the deployed program — merged
// parser graph, installed table rules with exact/LPM/ternary key
// semantics, branching/resubmission/recirculation — over packets whose
// classification fields (IPv4 addresses, TTL, L4 ports) are symbolic,
// forking at every match and guard to enumerate each reachable
// equivalence class of packet paths. Per path it checks the DV-S
// properties (bounded recirculation, service-index monotonicity, no
// metadata on the wire, header validity, parallel-branch overlap,
// dead rules) and concretizes a witness packet that is replayed
// through a clone of the concrete sim::DataPlane; any disagreement is
// itself a finding (DV-S7) — the differential gate that keeps the
// symbolic model honest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/symbolic.hpp"
#include "net/packet.hpp"
#include "sfc/chain.hpp"
#include "sim/dataplane.hpp"
#include "verify/finding.hpp"

namespace dejavu::explore {

struct ExploreOptions {
  /// Safety valve on the number of completed symbolic paths; paths
  /// beyond it are counted in stats.truncated, not analyzed.
  std::size_t max_paths = 20000;
  /// Replay every witness through a cloned concrete dataplane and
  /// report disagreements as DV-S7.
  bool differential = true;
  /// Emit DV-S6 dead-rule / unreachable-parser-state warnings.
  bool coverage = true;
  /// Ingress ports to explore from; defaults to the union of the
  /// policies' in_ports (external ports only).
  std::optional<std::vector<std::uint16_t>> in_ports;
  /// Chain generation to explore: symbolic lookups only see entries
  /// whose epoch window contains it (default: the dataplane's current
  /// epoch). Mid-update, exploring `e` proves the retiring generation
  /// and `e+1` the shadowed one — DV-S8 fires if any path would mix
  /// them, or if the requested generation is already drained.
  std::optional<std::uint32_t> epoch;
};

/// What the symbolic engine predicts the switch does with one
/// equivalence class of packets (mirror of sim::SwitchOutput).
struct PredictedOutcome {
  bool dropped = false;
  /// Canonical drop code (sim::DropCode vocabulary); the string keeps
  /// the human-readable detail. The differential replay (DV-S7)
  /// requires the concrete dataplane to agree on the code.
  sim::DropCode drop_code = sim::DropCode::kNone;
  std::string drop_reason;
  std::uint32_t to_cpu = 0;
  std::vector<std::uint16_t> out_ports;
  std::vector<std::uint16_t> recirc_ports;
  std::uint32_t resubmissions = 0;
  /// The final emit still carried the SFC EtherType (DV-S3).
  bool sfc_on_final_emit = false;
};

/// One completed symbolic path, concretized.
struct PathSummary {
  std::string shape;  // "tcp" or "udp"
  std::uint16_t in_port = 0;
  /// Solved values of the symbolic input fields.
  std::uint32_t src_addr = 0;
  std::uint32_t dst_addr = 0;
  std::uint8_t ttl = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  net::Packet witness;
  PredictedOutcome outcome;
  std::vector<asic::PipeletId> pipelets;

  /// Snapshot of one symbolic variable's accumulated constraints at
  /// path completion: the reduced product of forced bits, value
  /// interval, and negated ternary patterns that defines this path's
  /// equivalence class. The cost certifier seeds its abstract domains
  /// from these slices.
  struct VarSlice {
    VarDef def;
    VarConstraints cons;
  };
  std::vector<VarSlice> constraints;

  /// The witness as a synthesizable spec (for replay harnesses).
  net::PacketSpec spec() const;
  std::string to_string() const;
};

struct ExploreStats {
  std::size_t paths = 0;       // completed symbolic paths
  std::size_t infeasible = 0;  // forks pruned as unsatisfiable
  std::size_t truncated = 0;   // paths beyond the max_paths valve
  std::size_t replays = 0;     // differential replays executed
};

struct ExploreResult {
  verify::Report report;
  std::vector<PathSummary> paths;
  ExploreStats stats;
};

/// Explore `dp` (with its currently installed rules) from the ingress
/// ports of `policies`. The dataplane is not mutated: lookups are
/// modelled, not executed, and differential replays run on a clone
/// with fresh registers.
ExploreResult run(sim::DataPlane& dp, const sfc::PolicySet& policies,
                  const ExploreOptions& options = {});

}  // namespace dejavu::explore
