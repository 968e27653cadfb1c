// Deterministic fault injection for the behavioral data plane.
//
// Four fault lanes share one seed-driven schedule (FaultPlan):
//
//  - the *write lane* (FaultInjector) fails control-plane table writes
//    — transiently or until retries exhaust — and is consumed by
//    control::Transaction's retry/rollback machinery;
//  - the *packet lane* (ChaosTarget) perturbs the switch around
//    individual packet injections — entry evictions, recirculation
//    ports going down, register corruption — and checks the standing
//    chaos invariants on every output;
//  - the *channel lane* (control::Channel) perturbs the controller↔
//    switch link itself — dropping, duplicating, reordering, delaying,
//    or partitioning session messages keyed on the channel's own
//    message index — and is consumed by control::Session's
//    retry/dedup/reconcile machinery;
//  - the *state lane* (StateFaultInjector) corrupts the switch's own
//    match-action memory in place — key/action/window bit flips,
//    entry deletion and duplication, register-cell flips — silently
//    (no revision bump, no error), keyed on the auditor's tick index,
//    and is consumed by control::Auditor's detect→quarantine→repair
//    machinery (DESIGN.md §16).
//
// Lanes are generated in a fixed order (write, packet, channel, state)
// from one mt19937_64 stream, and every channel- and state-lane count
// defaults to 0: a pre-channel or pre-state profile under the same
// seed still produces the same schedule, bit for bit.
//
// Determinism contract (mirrors replay.hpp): every packet-lane fault
// is keyed on (flow-hash bucket, per-flow packet index), never on
// global arrival order, and every perturbation is applied and undone
// around a single injection of the owning flow. A flow therefore
// experiences the identical fault sequence on 1, 2, or 8 workers, so
// a seeded chaos run's merged counters and violation totals are
// bit-identical across worker counts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/replay.hpp"

namespace dejavu::sim {

enum class FaultKind : std::uint8_t {
  kWriteFail,         ///< table write returns a transient error
  kWriteTimeout,      ///< table write times out (also transient)
  kEvictEntry,        ///< the flow's own entries vanish from a table
  kRecircPortDown,    ///< a pipeline's recirc ports down for one packet
  kRegisterCorrupt,   ///< the flow's own register cell is flipped
  kChannelDrop,       ///< one session message (or its ack) is lost
  kChannelDup,        ///< one session message delivered `count`+1 times
  kChannelReorder,    ///< one session message swaps past its successor
  kChannelDelay,      ///< one session message held back `count` slots
  kChannelPartition,  ///< the link blackholes `count` messages
  kStateKeyFlip,      ///< a bit of an installed entry's key flips
  kStateActionFlip,   ///< a bit of an entry's action data flips
  kStateWindowFlip,   ///< a bit of an entry's epoch window flips
  kStateRegisterFlip, ///< a bit of a register cell flips
  kStateDelete,       ///< an installed entry silently vanishes
  kStateDup,          ///< a ghost duplicate of an entry appears
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. Write-lane events use {op_index, count};
/// packet-lane events use {flow_bucket, packet_index} plus the
/// kind-specific target (table / control+reg / pipeline); channel-lane
/// events use {msg_index, count, on_ack}; state-lane events use
/// {tick, salt} plus the victim table or control+reg.
struct FaultEvent {
  FaultKind kind = FaultKind::kWriteFail;

  // --- write lane ---
  /// Logical write op (0-based, within one transaction) to fail.
  std::uint32_t op_index = 0;
  /// Consecutive attempts that fail (count >= retry budget makes the
  /// fault effectively permanent). Channel lane: extra copies
  /// (kChannelDup), slots held back (kChannelDelay), or messages
  /// blackholed (kChannelPartition).
  std::uint32_t count = 1;

  // --- channel lane ---
  /// The channel's own message index (0-based send order) the fault
  /// fires at.
  std::uint32_t msg_index = 0;
  /// kChannelDrop only: lose the ack instead of the request — the
  /// write lands but the controller cannot tell (the duplicate-delivery
  /// case the dedup window exists for).
  bool on_ack = false;

  // --- packet lane ---
  /// session_hash % FaultPlan::kFlowBuckets of the victim flow.
  std::uint32_t flow_bucket = 0;
  /// The victim flow's per-flow injection index the fault fires at.
  std::uint32_t packet_index = 0;
  std::string table;    ///< kEvictEntry / state lane: victim table
  std::string control;  ///< kRegisterCorrupt / kStateRegisterFlip: control
  std::string reg;      ///< kRegisterCorrupt / kStateRegisterFlip: register
  std::uint32_t pipeline = 0;  ///< kRecircPortDown: victim pipeline

  // --- state lane ---
  /// The audit-tick index (control::Auditor's clock) the corruption
  /// lands at — the state-lane analogue of msg_index / packet_index.
  std::uint32_t tick = 0;
  /// Entropy for the victim/bit picks inside RuntimeTable::corrupt —
  /// drawn at schedule time so the corruption itself is replayable.
  std::uint64_t salt = 0;

  std::string to_string() const;
  bool operator==(const FaultEvent&) const = default;
};

/// Knobs for seed-driven schedule synthesis: how many events of each
/// kind, and the candidate targets to draw from.
struct FaultProfile {
  std::uint32_t write_fails = 2;
  std::uint32_t write_timeouts = 1;
  std::uint32_t evictions = 4;
  std::uint32_t recirc_downs = 2;
  std::uint32_t register_corruptions = 2;

  /// Write-lane ops are drawn from [0, max_op_index).
  std::uint32_t max_op_index = 8;
  /// Transient failure runs are drawn from [1, max_fail_count].
  std::uint32_t max_fail_count = 2;
  /// Packet-lane indices are drawn from [min_packet_index,
  /// max_packet_index). min >= 1 so the victim flow has already been
  /// through the switch once (and e.g. owns an LB session entry).
  std::uint32_t min_packet_index = 1;
  std::uint32_t max_packet_index = 12;

  std::vector<std::string> evict_tables;  ///< kEvictEntry candidates
  /// kRegisterCorrupt candidates as (control block, register) pairs.
  std::vector<std::pair<std::string, std::string>> corrupt_registers;
  std::vector<std::uint32_t> pipelines;  ///< kRecircPortDown candidates

  // --- channel lane (all counts default 0: legacy profiles under the
  // same seed keep their two-lane schedules bit-identical) ---
  std::uint32_t channel_drops = 0;
  std::uint32_t channel_dups = 0;
  std::uint32_t channel_reorders = 0;
  std::uint32_t channel_delays = 0;
  std::uint32_t channel_partitions = 0;
  /// Channel message indices are drawn from [0, max_msg_index).
  std::uint32_t max_msg_index = 40;
  /// Extra kChannelDup copies are drawn from [1, max_dup_copies].
  std::uint32_t max_dup_copies = 2;
  /// kChannelDelay holdback slots are drawn from [1, max_delay_msgs].
  std::uint32_t max_delay_msgs = 4;
  /// kChannelPartition lengths are drawn from [1, max_partition_msgs].
  std::uint32_t max_partition_msgs = 6;

  // --- state lane (all counts default 0: legacy profiles under the
  // same seed keep their schedules bit-identical) ---
  std::uint32_t state_key_flips = 0;
  std::uint32_t state_action_flips = 0;
  std::uint32_t state_window_flips = 0;
  std::uint32_t state_register_flips = 0;
  std::uint32_t state_deletes = 0;
  std::uint32_t state_dups = 0;
  /// State-lane ticks are drawn from [0, max_tick_index).
  std::uint32_t max_tick_index = 8;
  /// Victim tables for entry corruption (qualified names, as for
  /// evict_tables). Register flips draw from corrupt_registers.
  std::vector<std::string> state_tables;

  /// The Fig. 2 deployment's candidates: evict lb_session entries,
  /// knock pipeline 1 (the loopback pipeline) recirc ports down.
  static FaultProfile fig2_mixed();

  /// A channel-lane-only profile (write and packet lanes zeroed): the
  /// default diet for `dejavu_cli chaos --channel-seed` drills.
  static FaultProfile channel_default();

  /// A state-lane-only profile (every other lane zeroed): the default
  /// diet for `dejavu_cli audit --state-seed` drills. Targets the
  /// Fig. 2 deployment's static framework and NF tables.
  static FaultProfile state_default();
};

/// A replayable fault schedule. Same seed + same profile -> same
/// events, always.
struct FaultPlan {
  /// Flow-identity buckets for packet-lane targeting. Coarse enough
  /// that most buckets are hit in a ~100-flow run, fine enough to
  /// leave healthy flows as controls.
  static constexpr std::uint32_t kFlowBuckets = 64;

  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  static FaultPlan from_seed(std::uint64_t seed, const FaultProfile& profile);

  /// Packet-lane events scheduled for this (bucket, index) injection.
  std::vector<const FaultEvent*> packet_events(std::uint32_t flow_bucket,
                                               std::uint32_t packet_index) const;
  /// All write-lane events (kWriteFail / kWriteTimeout).
  std::vector<const FaultEvent*> write_events() const;
  /// Channel-lane events scheduled for channel message `msg_index`.
  std::vector<const FaultEvent*> channel_events(std::uint32_t msg_index) const;
  /// True when any channel-lane event of `kind` is scheduled.
  bool has_channel_kind(FaultKind kind) const;
  /// State-lane events scheduled for audit tick `tick`.
  std::vector<const FaultEvent*> state_events(std::uint32_t tick) const;
  /// All state-lane events (any tick), in schedule order.
  std::vector<const FaultEvent*> all_state_events() const;

  std::string to_string() const;
};

/// Thrown by FaultInjector for kWriteFail / kWriteTimeout events; the
/// transaction layer treats it as retryable.
class TransientWriteError : public std::runtime_error {
 public:
  explicit TransientWriteError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Write-lane consumer: control::Transaction calls on_write(op) before
/// every physical write attempt. Each scheduled event fails `count`
/// consecutive attempts at its op index, then lets the op through —
/// so count < retry budget exercises retry, count >= budget forces
/// rollback.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Throws TransientWriteError when the plan schedules a fault (with
  /// remaining budget) at logical op `op_index`.
  void on_write(std::uint32_t op_index);

  std::uint32_t faults_fired() const { return fired_; }
  /// Re-arm the schedule (each Transaction commit counts ops from 0).
  void reset();

 private:
  std::vector<FaultEvent> write_events_;
  // op_index -> (kind, remaining failures)
  std::map<std::uint32_t, std::pair<FaultKind, std::uint32_t>> budget_;
  std::uint32_t fired_ = 0;
};

/// State-lane consumer: applies the plan's seeded memory corruptions
/// to a running DataPlane at each audit tick, silently — entry
/// mutations go through RuntimeTable::corrupt (no revision bump) and
/// register flips write cells directly, so nothing downstream of the fault can tell the state moved. The
/// driver calls apply_tick(t) once per auditor tick; corruption that
/// finds no victim (empty table, unknown register) does not land and
/// is not counted.
class StateFaultInjector {
 public:
  StateFaultInjector(const FaultPlan& plan, DataPlane& dp);

  /// Apply every state-lane event scheduled at `tick`; returns a
  /// human-readable description per corruption that actually landed.
  std::vector<std::string> apply_tick(std::uint32_t tick);

  /// Corruptions that landed so far, keyed by fault_kind_name.
  const std::map<std::string, std::uint64_t>& applied() const {
    return applied_;
  }
  std::uint64_t applied_total() const;
  /// Corruptions scheduled by the plan (landed or not).
  std::uint64_t scheduled_total() const { return scheduled_; }

 private:
  FaultPlan plan_;
  DataPlane* dp_;
  std::map<std::string, std::uint64_t> applied_;
  std::uint64_t scheduled_ = 0;
};

/// The standing invariants every chaos run asserts, counted per shim
/// and summed by the driver. All zeros == healthy.
struct InvariantViolations {
  /// Dropped packets whose DropCode is kNone: a drop with no reason.
  std::uint64_t unattributed_drops = 0;
  /// Emitted packets whose IPv4 header checksum is stale/invalid.
  std::uint64_t corrupt_packets = 0;
  /// Emitted packets still carrying the SFC header (metadata leak).
  std::uint64_t metadata_leaks = 0;
  /// Packets dropped as kMaxPassesExceeded (forwarding loop).
  std::uint64_t forwarding_loops = 0;

  std::uint64_t total() const {
    return unattributed_drops + corrupt_packets + metadata_leaks +
           forwarding_loops;
  }
  InvariantViolations& operator+=(const InvariantViolations& o) {
    unattributed_drops += o.unattributed_drops;
    corrupt_packets += o.corrupt_packets;
    metadata_leaks += o.metadata_leaks;
    forwarding_loops += o.forwarding_loops;
    return *this;
  }
  bool operator==(const InvariantViolations&) const = default;
  std::string to_string() const;
};

/// Packet-lane shim: wraps a worker's private ReplayTarget, applies
/// the plan's packet-lane faults around each injection, and checks the
/// chaos invariants on every SwitchOutput. One shim per worker; the
/// shim only ever touches its own worker's private replica, so no
/// locking is needed and determinism is preserved.
class ChaosTarget : public ReplayTarget {
 public:
  ChaosTarget(std::unique_ptr<ReplayTarget> inner, FaultPlan plan);

  SwitchOutput inject(net::Packet packet, std::uint16_t in_port) override;
  DataPlane& dataplane() override { return inner_->dataplane(); }

  const InvariantViolations& violations() const { return violations_; }
  /// Faults actually applied, keyed by fault_kind_name (an eviction
  /// scheduled for a flow that owns no entries applies zero times).
  const std::map<std::string, std::uint64_t>& faults_applied() const {
    return faults_applied_;
  }

  /// Check one SwitchOutput against the invariants (also used by the
  /// repair drill, which drives the switch without a shim).
  static InvariantViolations check_output(const SwitchOutput& out);

 private:
  void apply_evict(const FaultEvent& ev, const net::FiveTuple& tuple);
  void learn_new_entries(const std::string& table,
                         const net::FiveTuple& tuple);

  std::unique_ptr<ReplayTarget> inner_;
  FaultPlan plan_;
  InvariantViolations violations_;
  std::map<std::string, std::uint64_t> faults_applied_;
  // Per-flow injection counters (keyed by full 5-tuple: two flows in
  // one hash bucket must still count independently).
  std::map<net::FiveTuple, std::uint32_t> flow_index_;
  // Tables with scheduled evictions: table -> key set seen before the
  // current injection, and table -> (flow -> keys that flow created).
  std::map<std::string,
           std::set<std::vector<std::uint64_t>, ExactKeyLess>>
      known_keys_;
  std::map<std::string, std::map<net::FiveTuple,
                                 std::set<std::vector<std::uint64_t>>>>
      owned_keys_;
  std::set<std::string> evict_watch_;
};

/// Wrap `inner` so every worker gets a fault-injecting shim. When
/// `shims` is non-null it collects the shim of each worker (pointers
/// stay valid while the engine holding the targets is alive) so the
/// driver can sum violations and fault counts after the run.
TargetFactory chaos_factory(TargetFactory inner, FaultPlan plan,
                            std::vector<ChaosTarget*>* shims = nullptr);

}  // namespace dejavu::sim
