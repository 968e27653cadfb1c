// The traffic manager of Fig. 1, written once: which ports admit a
// packet, what happens between the ingress and the egress pipe, and
// what happens after the egress pipe. The interpreter
// (DataPlane::process), the compiled fast path (CompiledPipeline), the
// symbolic explorer and the cost certifier all ask these steps and
// apply the answer with their own effects (counters, punt ledger,
// emission, forking).
//
// Rule order:
//   admission:     invalid port > recirc port used externally >
//                  loopback port used externally > port down
//   after ingress: toCpu > drop > resubmit > no egress > invalid port >
//                  port down > egress (with the mirror copy, if any)
//   after egress:  toCpu > drop > recirculate (loopback port) > emit
// The pass cap stays with each walker's loop.
//
// Inputs are three-valued so an abstract walker can pass undecided
// flags and egress_spec as they are: a step whose answer depends on an
// undecided input reports the first such input, in rule order, and the
// walker decides it (forks) and asks again.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sfc/header.hpp"
#include "sim/dataplane.hpp"
#include "sim/drop_reason.hpp"
#include "sim/fields.hpp"

namespace dejavu::sim {

/// Three-valued truth: does every / no / some member of an abstract
/// value satisfy a predicate? Concrete values are kAlways or kNever.
enum class Tri : std::uint8_t { kAlways, kNever, kMaybe };

inline constexpr Tri tri(bool b) { return b ? Tri::kAlways : Tri::kNever; }

/// The per-pass decision flags the traffic manager reads.
struct TmFlags {
  Tri to_cpu = Tri::kNever;
  Tri drop = Tri::kNever;
  Tri resubmit = Tri::kNever;
  /// Never reported as needed: a mirror copy does not change where the
  /// packet goes, so only a certainly raised flag yields a copy.
  Tri mirror = Tri::kNever;
};

inline TmFlags tm_flags(const StandardMetadata& m) {
  return {tri(m.to_cpu_flag), tri(m.drop_flag), tri(m.resubmit_flag),
          tri(m.mirror_flag)};
}

/// A disposition input, in rule order.
enum class TmInput : std::uint8_t { kToCpu, kDrop, kResubmit, kEgressSpec };

/// One traffic-manager decision.
struct Step {
  enum class Kind : std::uint8_t {
    kNeed,         ///< `need` is undecided: decide it and ask again
    kPunt,         ///< hand the packet to the control plane
    kDrop,         ///< drop with `code`
    kResubmit,     ///< run the same ingress pipe again
    kEgress,       ///< run egress pipe `pipeline` for `port`
    kRecirculate,  ///< `port` loops back into ingress pipe `pipeline`
    kEmit,         ///< transmit on `port`
  };
  Kind kind = Kind::kNeed;
  TmInput need = TmInput::kToCpu;
  DropCode code = DropCode::kNone;
  /// The egress port (kEgress, kRecirculate, kEmit, and the port a
  /// kInvalidEgressSpec / kPortDown drop names).
  std::uint16_t port = 0;
  /// kEgress and kRecirculate: the pipe the packet goes to next.
  std::uint32_t pipeline = 0;
  /// kEgress: copy the packet to this port before the egress pipe.
  std::optional<std::uint16_t> mirror;

  /// The step a raised (`raised`, with `drop`) or undecided (needs
  /// `input`) flag leads to.
  Step& flag(Tri t, TmInput input, Kind raised,
             DropCode drop = DropCode::kNone) {
    if (t == Tri::kMaybe) {
      need = input;
    } else {
      kind = raised;
      code = drop;
    }
    return *this;
  }
};

/// May a packet enter on `in_port`? kNone when admitted. `from_cpu`
/// (control-plane reinjection) may use loopback and recirculation
/// ports.
inline DropCode admit_ingress(const DataPlane& dp, std::uint16_t in_port,
                              bool from_cpu) {
  const asic::TargetSpec& spec = dp.config().spec();
  if (in_port >= spec.total_ports() + spec.pipelines) {
    return DropCode::kInvalidIngressPort;
  }
  if (!from_cpu && in_port >= spec.total_ports()) {
    return DropCode::kRecircPortExternal;
  }
  if (!from_cpu && dp.config().is_loopback(in_port)) {
    return DropCode::kLoopbackPortExternal;
  }
  return dp.is_port_down(in_port) ? DropCode::kPortDown : DropCode::kNone;
}

/// The decision at the end of an ingress pass. `egress_spec` is
/// nullopt when undecided.
inline Step after_ingress(const DataPlane& dp, const TmFlags& flags,
                          std::optional<std::uint16_t> egress_spec) {
  // toCpu outranks drop: a packet the data plane wants the control
  // plane to see (an LB session miss) must reach it even if a later
  // table of the same pass flagged a drop for the in-between state.
  Step s;
  if (flags.to_cpu != Tri::kNever) {
    return s.flag(flags.to_cpu, TmInput::kToCpu, Step::Kind::kPunt);
  }
  if (flags.drop != Tri::kNever) {
    return s.flag(flags.drop, TmInput::kDrop, Step::Kind::kDrop,
                  DropCode::kIngressDrop);
  }
  if (flags.resubmit != Tri::kNever) {
    return s.flag(flags.resubmit, TmInput::kResubmit, Step::Kind::kResubmit);
  }
  if (!egress_spec) {
    s.need = TmInput::kEgressSpec;
    return s;
  }
  const asic::TargetSpec& spec = dp.config().spec();
  s.port = *egress_spec;
  s.kind = Step::Kind::kDrop;
  if (s.port == sfc::kPortUnset) {
    s.code = DropCode::kNoEgressDecision;
  } else if (s.port >= spec.total_ports() + spec.pipelines) {
    s.code = DropCode::kInvalidEgressSpec;
  } else if (dp.is_port_down(s.port)) {
    s.code = DropCode::kPortDown;
  } else {
    s.kind = Step::Kind::kEgress;
    s.pipeline = dp.pipeline_of(s.port);
    if (flags.mirror == Tri::kAlways) s.mirror = dp.mirror_port();
  }
  return s;
}

/// The decision at the end of the egress pass for `port`, the egress
/// port after_ingress chose.
inline Step after_egress(const DataPlane& dp, const TmFlags& flags,
                         std::uint16_t port) {
  Step s;
  if (flags.to_cpu != Tri::kNever) {
    return s.flag(flags.to_cpu, TmInput::kToCpu, Step::Kind::kPunt);
  }
  if (flags.drop != Tri::kNever) {
    return s.flag(flags.drop, TmInput::kDrop, Step::Kind::kDrop,
                  DropCode::kEgressDrop);
  }
  s.port = port;
  s.kind = Step::Kind::kEmit;
  if (dp.loops_back(port)) {
    s.kind = Step::Kind::kRecirculate;
    s.pipeline = dp.pipeline_of(port);
  }
  return s;
}

// drop_reason text of the traffic manager's drops, built only here so
// every engine reports the same string for the same drop.

/// admit_ingress refused `in_port` with `code`.
[[gnu::cold]] std::string drop_detail(DropCode code, std::uint16_t in_port);
/// A kDrop `step` at the end of a pass through `pipeline` (the ingress
/// pipe after ingress, the egress pipe after egress).
[[gnu::cold]] std::string drop_detail(const DataPlane& dp, const Step& step,
                                      std::uint32_t pipeline);
/// The pass cap, after recirculating via `recirc_ports`.
[[gnu::cold]] std::string drop_detail(
    const DataPlane& dp, const std::vector<std::uint16_t>& recirc_ports);

}  // namespace dejavu::sim
