// The behavioral data plane: executes a composed multi-pipelet program
// packet by packet, with the traffic-manager plumbing of Fig. 1 —
// ingress pass, resubmission, egress pass, loopback-port recirculation
// — under the switch's port configuration. This is the bmv2-equivalent
// substitute for the Tofino testbed: it runs the very IR the merge
// stage emits, against the very rules the route stage installs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asic/switch_config.hpp"
#include "net/packet.hpp"
#include "p4ir/program.hpp"
#include "sim/drop_reason.hpp"
#include "sim/fields.hpp"
#include "sim/runtime_table.hpp"

namespace dejavu::sim {

/// Everything one injected packet produced.
struct SwitchOutput {
  struct Emitted {
    std::uint16_t port = 0;
    net::Packet packet;
  };
  struct CpuPunt {
    std::uint16_t in_port = 0;
    net::Packet packet;
    /// The generation the packet was stamped with at first ingress; a
    /// control plane reinjecting the punt passes it back as the stamp
    /// so the packet finishes on the chain generation it started on.
    std::uint32_t epoch = 0;
  };

  std::vector<Emitted> out;
  std::vector<CpuPunt> to_cpu;
  bool dropped = false;
  /// Canonical code for the drop (kNone when delivered/punted); the
  /// string carries the per-packet detail for humans. Match on the
  /// code, not the string.
  DropCode drop_code = DropCode::kNone;
  std::string drop_reason;

  void set_drop(DropCode code, std::string reason) {
    dropped = true;
    drop_code = code;
    drop_reason = std::move(reason);
  }

  /// The chain generation every table lookup of this packet used
  /// (stamped at first ingress, honored across resubmissions,
  /// recirculations, and CPU reinjection — §11 per-packet consistency).
  std::uint32_t epoch = 0;

  std::uint32_t resubmissions = 0;
  std::uint32_t recirculations = 0;
  /// The loopback / dedicated-recirc port taken by each recirculation,
  /// in order (size == recirculations). Lets observers attribute
  /// recirculation load to pipelines without parsing the trace.
  std::vector<std::uint16_t> recirc_ports;
  std::vector<std::string> trace;

  bool delivered() const { return !out.empty(); }
};

/// Dense ids of tables and register banks (DataPlane::table()).
using TableId = std::uint32_t;
using RegisterId = std::uint32_t;

class DataPlane {
 public:
  /// `program` must outlive the data plane and not change under it.
  /// Pipelet control blocks are found by merge::pipelet_control_name;
  /// unnamed pipelets simply forward. Throws std::invalid_argument for
  /// a control that is not p4ir::ControlBlock::runnable (an apply of an
  /// unknown table, an action using an unknown register), so process()
  /// never meets one.
  DataPlane(const p4ir::Program& program, const p4ir::TupleIdTable& ids,
            asic::SwitchConfig config);

  const asic::SwitchConfig& config() const { return config_; }
  const p4ir::Program& program() const { return *program_; }
  const p4ir::TupleIdTable& ids() const { return *ids_; }
  std::optional<std::uint16_t> mirror_port() const { return mirror_port_; }

  // Every table and register bank has a dense id in p4info's
  // declaration order (controls in program order, each one's tables,
  // resp. registers, as declared), as a P4Runtime client addresses
  // them. Names resolve once, through the lookups below; an id holds
  // for every DataPlane over the same program, copies included.
  std::size_t table_count() const { return tables_.size(); }
  RuntimeTable& table(TableId id) { return tables_[id]; }
  const RuntimeTable& table(TableId id) const { return tables_[id]; }
  /// `control_name`'s table `table`; nullopt (nullptr) when unknown.
  std::optional<TableId> table_id(const std::string& control_name,
                                  const std::string& table) const;
  RuntimeTable* table_in(const std::string& control_name,
                         const std::string& table);
  /// Every instance of `table` (an NF's table exists once per pipelet
  /// hosting it; framework check tables exist per pipelet too), in
  /// control-name order.
  std::vector<TableId> table_ids(const std::string& table) const;
  std::vector<RuntimeTable*> tables_named(const std::string& table);

  /// One register array and its generation tag (register_epoch()).
  struct RegisterBank {
    const p4ir::ControlBlock* control;
    const p4ir::RegisterDef* def;
    std::vector<std::uint64_t> cells;
    std::uint32_t epoch = 0;
  };
  std::size_t register_count() const { return banks_.size(); }
  RegisterBank& register_bank(RegisterId id) { return banks_[id]; }
  const RegisterBank& register_bank(RegisterId id) const {
    return banks_[id];
  }
  /// `control_name`'s register `reg`; nullopt (nullptr) when unknown.
  std::optional<RegisterId> register_id(const std::string& control_name,
                                        const std::string& reg) const;
  std::vector<std::uint64_t>* register_array(const std::string& control_name,
                                             const std::string& reg);
  /// The ids of `control`'s (one of program()'s) own table or register.
  TableId table_id(const p4ir::ControlBlock& control,
                   const p4ir::Table& def) const {
    return table_base_[&control - program_->controls().data()] +
           static_cast<TableId>(&def - control.tables().data());
  }
  RegisterId register_id(const p4ir::ControlBlock& control,
                         const p4ir::RegisterDef& def) const {
    return register_base_[&control - program_->controls().data()] +
           static_cast<RegisterId>(&def - control.registers().data());
  }

  /// The control a pipelet runs (merge::pipelet_control_name), resolved
  /// at construction; nullptr for an unnamed pipelet, which forwards,
  /// or one outside the target.
  const p4ir::ControlBlock* pipelet_control(const asic::PipeletId& id) const {
    const std::size_t i = std::size_t{id.pipeline} * 2 +
                          (id.kind == asic::PipeKind::kEgress);
    return i < pipelet_controls_.size() ? pipelet_controls_[i] : nullptr;
  }

  /// Inject a packet on a front-panel port and run it to completion.
  /// `from_cpu` marks control-plane reinjection (Fig. 4's session-miss
  /// flow), which may enter on any port, including loopback ports.
  /// `stamp` carries a punted packet's original epoch back in (fresh
  /// ingress stamps the current epoch); a stamp below min_live_epoch()
  /// — its generation already garbage-collected — drops the packet
  /// with DropCode::kUpdateDrained.
  SwitchOutput process(net::Packet packet, std::uint16_t in_port,
                       bool from_cpu = false,
                       std::optional<std::uint32_t> stamp = std::nullopt);

  /// The chain generation stamped onto packets at first ingress; the
  /// single version gate a live update flips (§11).
  std::uint32_t epoch() const { return epoch_; }
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }

  /// Oldest generation still allowed to finish; packets stamped below
  /// it are drained (dropped with kUpdateDrained) on reinjection.
  std::uint32_t min_live_epoch() const { return min_live_epoch_; }
  /// Snapshot restore only; updates raise it through gc_epochs().
  void set_min_live_epoch(std::uint32_t epoch) { min_live_epoch_ = epoch; }

  /// Packets punted to the CPU and not yet reinjected, by stamped
  /// epoch — the in-flight population a live update must drain.
  const std::map<std::uint32_t, std::uint64_t>& punts_outstanding() const {
    return punts_outstanding_;
  }
  /// Outstanding punts stamped strictly below `epoch`.
  std::uint64_t punts_outstanding_below(std::uint32_t epoch) const;

  /// Force-forget outstanding punts stamped <= max_epoch (the drain
  /// phase's last resort for punts the control plane abandoned).
  /// Returns how many were flushed.
  std::uint64_t flush_stale_punts(std::uint32_t max_epoch);

  /// Garbage-collect every entry retired before `min_live` across all
  /// tables and raise min_live_epoch(). Returns entries removed.
  std::size_t gc_epochs(std::uint32_t min_live);

  /// Per-register-bank generation tag: bumped when a live update
  /// applies a bank's flip-time writes, so crash recovery can tell
  /// applied banks from untouched ones (0 = never updated, or unknown).
  std::uint32_t register_epoch(const std::string& control_name,
                               const std::string& reg) const;
  void set_register_epoch(const std::string& control_name,
                          const std::string& reg, std::uint32_t epoch);

  /// One auditable state object: a table or a register bank
  /// (DESIGN.md §16).
  struct StateObject {
    std::string control;
    std::string name;
    bool is_register = false;

    bool operator==(const StateObject&) const = default;
  };

  /// Every table and register bank, in a canonical deterministic order
  /// (controls sorted, tables before registers within a control). The
  /// auditor walks this list round-robin against the intended-state
  /// mirror.
  std::vector<StateObject> state_objects() const;

  /// The content digest of one state object, computed afresh on every
  /// call (0 when this plane has no such object): a table's
  /// RuntimeTable::state_digest(); a register bank folds its non-zero
  /// cells and its register_epoch.
  std::uint64_t state_digest(const StateObject& object) const;

  /// Is `port` a loopback front-panel port or a dedicated
  /// recirculation port?
  bool loops_back(std::uint16_t port) const;

  /// Pipeline that owns `port` (front-panel or dedicated recirc).
  std::uint32_t pipeline_of(std::uint16_t port) const;

  /// Pass cap; seeded from SwitchConfig::max_pipeline_passes().
  std::uint32_t max_passes() const { return max_passes_; }
  void set_max_passes(std::uint32_t n) { max_passes_ = n; }
  /// Mirror copies go to this port when the mirror flag is raised.
  void set_mirror_port(std::uint16_t port) { mirror_port_ = port; }

  /// Administratively (or by fault injection) mark a port down:
  /// packets whose egress decision or recirculation lands on a down
  /// port are dropped with DropCode::kPortDown. Ingress on a down
  /// port is refused the same way.
  void set_port_down(std::uint16_t port, bool down = true);
  bool is_port_down(std::uint16_t port) const {
    return port < down_.size() && down_[port];
  }

  /// Per-port packet/byte counters, as a switch OS would expose them.
  /// Loopback and dedicated recirculation ports accumulate the
  /// recirculating traffic — the §4 measurement point.
  struct PortCounters {
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;

    bool operator==(const PortCounters&) const = default;
    PortCounters& operator+=(const PortCounters& o) {
      rx_packets += o.rx_packets;
      rx_bytes += o.rx_bytes;
      tx_packets += o.tx_packets;
      tx_bytes += o.tx_bytes;
      return *this;
    }
  };
  const PortCounters& port_counters(std::uint16_t port) const;
  /// Mutable per-port counters — engine plumbing for the compiled fast
  /// path (sim::CompiledPipeline), which must keep tx/rx/recirculation
  /// accounting bit-identical to process() while bypassing it.
  PortCounters& counters_for(std::uint16_t port) {
    if (port >= counters_.size()) counters_.resize(port + std::size_t{1});
    return counters_[port];
  }
  /// Record one CPU punt in the outstanding-punt ledger (§11 drain
  /// accounting) — same engine plumbing as counters_for().
  void note_punt(std::uint32_t epoch) { ++punts_outstanding_[epoch]; }
  /// The prologue both engines run before ingress admission — same
  /// engine plumbing as counters_for(). Stamps out.epoch (the packet's
  /// stamp, else the current epoch), closes out the punt a stamped CPU
  /// reinjection answers, and drops a stamp below min_live_epoch() as
  /// kUpdateDrained. Returns false when `out` now holds that drop.
  bool stamp_packet(bool from_cpu, std::optional<std::uint32_t> stamp,
                    SwitchOutput& out);
  /// Every port with traffic so far, in port order (ports that never
  /// sent or received a packet are absent).
  std::map<std::uint16_t, PortCounters> all_port_counters() const;
  void reset_counters();

 private:
  void run_pipelet(const asic::PipeletId& id, net::Packet& packet,
                   StandardMetadata& meta, SwitchOutput& out);
  void execute_action(const p4ir::ControlBlock& control,
                      const p4ir::Action& action, const std::uint64_t* args,
                      FieldView& view, SwitchOutput& out);
  void emit(net::Packet packet, std::uint16_t port, SwitchOutput& out);

  const p4ir::Program* program_;
  const p4ir::TupleIdTable* ids_;
  asic::SwitchConfig config_;
  std::uint32_t max_passes_ = 64;
  std::uint32_t epoch_ = 0;
  std::uint32_t min_live_epoch_ = 0;
  std::map<std::uint32_t, std::uint64_t> punts_outstanding_;
  std::optional<std::uint16_t> mirror_port_;
  // By id; control i's ids start at table_base_[i] (register_base_[i]).
  std::vector<RuntimeTable> tables_;
  std::vector<RegisterBank> banks_;
  std::vector<TableId> table_base_;
  std::vector<RegisterId> register_base_;
  // By control index, the table id of each apply_order() entry.
  std::vector<std::vector<TableId>> applied_;
  // By pipeline * 2 + (kind == egress).
  std::vector<const p4ir::ControlBlock*> pipelet_controls_;
  // By port, grown on demand past the front-panel and recirc ports.
  std::vector<PortCounters> counters_;
  std::vector<bool> down_;
};

}  // namespace dejavu::sim
