// The controller↔switch control channel, modeled as it actually
// behaves in production: lossy, duplicating, reordering, and
// partition-prone. A Channel connects a control::Session (controller
// side) to a receiver (the switch-side SwitchAgent) and applies the
// *channel lane* of a sim::FaultPlan to every message it carries.
//
// Determinism contract: faults are keyed on the channel's own message
// index (0-based send order), never on wall-clock time. The same plan
// against the same message sequence perturbs the same messages the
// same way in every run, on every worker — which is what lets the
// chaos drill demand byte-identical convergence at 1/2/8 workers.
//
// Fault semantics per exchange:
//   * partition — this message and the next `count-1` sends blackhole
//     in both directions (no delivery, no ack);
//   * drop — the request is lost, or (on_ack) the request is
//     *delivered* but its ack is lost: the write lands and the
//     controller cannot tell — the duplicate-delivery case;
//   * dup — the receiver sees the message `count` extra times;
//   * delay / reorder — the message is held back and delivered at the
//     head of a later exchange (after `count` / 1 newer messages), its
//     ack dropped as stale. By then the session has timed out and
//     re-sent under the same (election-id, seq), so the late original
//     arrives as a duplicate — exactly what the dedup window absorbs.
//
// A write carries one WriteCommand: a verb plus a RuleDiff, whose
// RuleOps (control/journal.hpp) are the one record of a table or
// register-cell write. A legacy diff, a live update's shadow and a
// reconcile each commit their RuleOps through one control::Transaction
// on the switch side.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/journal.hpp"
#include "control/snapshot.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {

/// The payload of one session write: which phase of which commit path
/// the controller wants the switch to execute. One WriteCommand is one
/// idempotency unit — the dedup window guarantees its effect applies
/// at most once per (election-id, seq).
struct WriteCommand {
  enum class Verb : std::uint8_t {
    kLegacyDiff,  ///< stop-the-world apply of `diff` (one Transaction)
    kShadowDiff,  ///< live-update phase 1: shadow-install generation
                  ///< `to_epoch` beside `from_epoch`
    kFlip,        ///< phase 2: register banks + move the version gate
    kDrain,       ///< phase 3: pump + flush punts below `to_epoch`
    kCommitGc,    ///< phase 4: garbage-collect below `to_epoch`
    kRollback,    ///< undo an un-flipped shadow from observed state
    kReconcile,   ///< apply a reconciliation plan atomically
  };
  Verb verb = Verb::kLegacyDiff;
  /// kLegacyDiff/kShadowDiff/kFlip/kRollback: a generation diff.
  /// kReconcile: the table and register-cell edits, each naming its
  /// exact version window, committed as one Transaction.
  RuleDiff diff;
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;
  /// kReconcile: the switch state outside the tables, set in this order
  /// once `diff` commits: register bank tags by (control, register),
  /// then the ingress version gate, then the drain floor (which
  /// flushes punts stamped below it).
  std::map<std::pair<std::string, std::string>, std::uint32_t> bank_epochs;
  std::optional<std::uint32_t> epoch;
  std::optional<std::uint32_t> min_live_epoch;

  /// kReconcile: how many edits the plan makes, each diff op and each
  /// scalar it sets (0 == already converged).
  std::size_t edits() const {
    return diff.ops.size() + bank_epochs.size() + epoch.has_value() +
           min_live_epoch.has_value();
  }
};

/// One message on the stream channel. Writes carry a per-election
/// sequence number (the idempotency token); hello/heartbeat/snapshot
/// are read-only and never enter the dedup window.
struct SessionMsg {
  enum class Kind : std::uint8_t {
    kHello,         ///< master arbitration: claim election_id
    kWrite,         ///< a WriteCommand under (election_id, seq)
    kHeartbeat,     ///< liveness probe
    kReadSnapshot,  ///< read back the full switch state
  };
  Kind kind = Kind::kWrite;
  std::uint64_t election_id = 0;
  std::uint64_t seq = 0;
  WriteCommand write;
};

/// The switch's reply. `duplicate` means the dedup window recognized
/// (election_id, seq) and returned the cached ack without re-applying.
struct AckMsg {
  bool ok = false;
  bool not_master = false;
  bool duplicate = false;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;  ///< switch epoch after handling
  std::uint64_t drained = 0;
  std::uint64_t flushed = 0;
  std::size_t applied = 0;  ///< ops this command applied
  /// A failed transaction (kLegacyDiff / kShadowDiff) undid its
  /// applied prefix.
  bool rolled_back = false;
  std::string error;
  /// kReadSnapshot replies carry the state by reference (the in-memory
  /// stand-in for a wire serialization).
  std::shared_ptr<const Snapshot> snapshot;
};

struct ChannelStats {
  std::uint64_t sent = 0;            ///< exchange() calls
  std::uint64_t delivered = 0;       ///< receiver invocations (incl. extras)
  std::uint64_t dropped = 0;         ///< requests lost outright
  std::uint64_t acks_dropped = 0;    ///< delivered but ack lost/stale
  std::uint64_t duplicated = 0;      ///< extra deliveries of one message
  std::uint64_t deferred = 0;        ///< messages held back (delay/reorder)
  std::uint64_t late_delivered = 0;  ///< deferred messages that landed late
  std::uint64_t blackholed = 0;      ///< messages eaten by a partition
  std::uint64_t partitions = 0;      ///< partition windows opened

  std::string to_string() const;
};

/// A synchronous, fault-injected request/ack link. exchange() returns
/// the ack, or nullopt when the controller would have timed out (lost
/// request, lost ack, partition, deferral) — the session's cue to back
/// off and re-send.
class Channel {
 public:
  using Receiver = std::function<AckMsg(const SessionMsg&)>;

  /// `plan`'s channel lane drives the fault schedule; a plan with no
  /// channel events is a perfect link.
  Channel(sim::FaultPlan plan, Receiver receiver);

  std::optional<AckMsg> exchange(const SessionMsg& msg);

  /// Manually blackhole the next `n` exchanges (tests and drills that
  /// need a partition at an exact point, independent of the plan).
  void partition_for(std::uint32_t n) { manual_partition_ += n; }
  bool partitioned() const { return manual_partition_ + plan_partition_ > 0; }

  const ChannelStats& stats() const { return stats_; }

 private:
  struct Deferred {
    SessionMsg msg;
    std::uint64_t due;  ///< deliver before the exchange with this index
  };

  void deliver_due(std::uint64_t now);

  sim::FaultPlan plan_;
  Receiver receiver_;
  std::uint64_t next_index_ = 0;
  std::uint32_t manual_partition_ = 0;
  std::uint32_t plan_partition_ = 0;
  std::vector<Deferred> deferred_;
  ChannelStats stats_;
};

}  // namespace dejavu::control
