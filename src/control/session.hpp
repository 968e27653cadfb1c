// The controller↔switch session layer: every control-plane mutation
// travels as a sequence-numbered, idempotency-tokened WriteCommand
// over an unreliable control::Channel, the way P4Runtime routes writes
// over a stream channel with election-id arbitration.
//
// Controller side (Session):
//   * stop-and-wait writes — one outstanding command, re-sent under
//     the same (election-id, seq) on ack timeout with control::Backoff
//     (capped exponential + seeded jitter, simulated never slept);
//   * an intended-state mirror — every command is applied at send time
//     to a private fault-free replica of the switch, so the controller
//     always knows what the switch *should* hold, even for writes the
//     channel swallowed;
//   * a heartbeat watchdog — consecutive misses degrade the link
//     (kHealthy → kDegraded → kPartitioned) and feed HealthMonitor;
//   * reconciliation — on reconnect, read back the switch Snapshot,
//     diff it against the mirror (snapshot_diff), and converge with
//     one minimal atomic reconcile write, verified byte-identical.
//
// Switch side (SwitchAgent):
//   * election-id master arbitration — the highest election id wins;
//     writes from a stale controller are nacked not_master and have no
//     effect;
//   * exactly-once apply — a bounded dedup window keyed (election-id,
//     seq) caches each write's ack; re-deliveries (channel dups, late
//     reorders, session re-sends) return the cached ack without
//     re-applying. Per-(eid, seq) effect counters make "applied once"
//     checkable, not just hoped; they are kept only for the window,
//     and settled counts fold into one maximum;
//   * atomic verbs — each WriteCommand applies all-or-nothing (shadow
//     transactions roll back; reconciles restore the pre-image on any
//     failure), so no torn batch is ever visible in a snapshot.
//
// The dataplane needs nothing from any of this to keep forwarding:
// during a partition packets keep flowing on the last committed epoch;
// only *changes* stall until the channel heals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/backoff.hpp"
#include "control/channel.hpp"
#include "control/live_update.hpp"
#include "control/snapshot.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::control {

/// The minimal edit script turning switch state `actual` into
/// `intended`. Empty == already converged. Works entry-by-entry, so
/// its size measures divergence (the reconcile write ships exactly
/// these ops, nothing else).
std::vector<ReconcileOp> snapshot_diff(const Snapshot& actual,
                                       const Snapshot& intended);

struct AgentOptions {
  /// Dedup window size: acks cached for the most recent N write seqs
  /// of the current master. A re-delivery older than the window is
  /// still recognized as a duplicate via the ack floor (seqs are
  /// contiguous per election under stop-and-wait).
  std::size_t dedup_window = 32;
  /// Retry/backoff for the transactions the agent runs locally.
  Backoff retry;
  /// Drain-pump rounds for kDrain commands.
  std::uint32_t max_drain_rounds = 8;
};

/// The switch-side endpoint: owns the command execution against one
/// data plane. Deterministic and synchronous — a Channel delivers
/// messages straight into handle().
class SwitchAgent {
 public:
  explicit SwitchAgent(sim::DataPlane& dp, AgentOptions options = {});

  /// Arbitrate, dedup, then apply: the entry point a Channel delivers
  /// messages to.
  AckMsg handle(const SessionMsg& msg);

  /// Execute one verb, without arbitration or dedup. The only code
  /// that executes a live-update phase: the update sequencer sends
  /// every phase here, through handle() over a session or directly
  /// from run_update/recover.
  AckMsg apply(const WriteCommand& cmd);

  /// Services punts during kDrain commands (typically the owning
  /// control plane's punt loop).
  void set_drain_pump(DrainPump pump) { pump_ = std::move(pump); }
  /// Write-lane fault injection for the agent's local transactions.
  void set_injector(sim::FaultInjector* injector) { injector_ = injector; }

  std::uint64_t master() const { return master_; }
  /// How many times the effects of (election, seq) ran, for the
  /// current master's writes still in the dedup window. A write that
  /// leaves the window (or belongs to a deposed master) can never run
  /// again, so its count folds into max_effect_count() and its entry
  /// is dropped: the map holds at most dedup_window entries.
  const std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t>&
  effects() const {
    return effects_;
  }
  /// The most times any write's effects ran, settled or in the window.
  /// The exactly-once invariant is: max_effect_count() <= 1.
  std::uint64_t max_effect_count() const;
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t duplicates_absorbed() const { return duplicates_; }
  std::uint64_t stale_rejected() const { return stale_; }

 private:
  AckMsg apply_reconcile(const WriteCommand& cmd);

  sim::DataPlane* dp_;
  AgentOptions options_;
  DrainPump pump_;
  sim::FaultInjector* injector_ = nullptr;
  std::uint64_t master_ = 0;
  /// Every seq <= ack_floor_ of the current master is known-applied
  /// (its cached ack may have been evicted from the window).
  std::uint64_t ack_floor_ = 0;
  std::map<std::uint64_t, AckMsg> window_;  ///< seq -> cached ack
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> effects_;
  /// The largest count folded out of effects_.
  std::uint32_t settled_max_ = 0;
  std::uint64_t writes_applied_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t stale_ = 0;
};

enum class LinkState : std::uint8_t {
  kHealthy,
  kDegraded,    ///< at least one consecutive heartbeat miss
  kPartitioned  ///< misses (or a write) exhausted the retry budget
};

const char* to_string(LinkState state);

struct SessionOptions {
  std::uint64_t election_id = 1;
  Backoff retry;
  /// Consecutive heartbeat misses before the link is kPartitioned.
  std::uint32_t heartbeat_loss_threshold = 3;
};

struct WriteResult {
  bool ok = false;
  /// The switch nacked: this session lost mastership.
  bool not_master = false;
  /// Retries exhausted without an ack: effect unknown. The mirror
  /// keeps the intent; reconciliation resolves it after reconnect.
  bool gave_up = false;
  /// The ack that finally landed was a dedup-window cache hit (an
  /// earlier delivery applied the effect).
  bool was_duplicate = false;
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  std::uint64_t backoff_ms = 0;
  std::string error;
  AckMsg ack;

  std::string to_string() const;
};

struct SessionStats {
  std::uint64_t writes = 0;
  std::uint64_t write_attempts = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t writes_gave_up = 0;
  std::uint64_t total_backoff_ms = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t reconciles = 0;
  std::uint64_t reconcile_ops = 0;
};

struct ReconcileReport {
  bool converged = false;
  /// The channel never yielded a snapshot read; nothing to diff.
  bool unreachable = false;
  std::size_t ops = 0;  ///< divergence: reconcile ops shipped
  std::string error;

  std::string to_string() const;
};

/// The controller-side endpoint. Owns the intended-state mirror: a
/// private DataPlane replica (same program/ids/config as the real
/// switch) plus a fault-free agent that applies every command at
/// send-intent time.
class Session {
 public:
  /// `channel` carries this session's messages; `mirror` is the
  /// controller's intended-state replica — same program/ids/config as
  /// the real switch, pre-seeded by the caller (restore_snapshot of
  /// the boot-time state).
  Session(Channel& channel, std::unique_ptr<sim::DataPlane> mirror,
          SessionOptions options = {});
  ~Session();

  /// Claim mastership. Returns false when a higher election id holds
  /// the switch (or the channel swallowed every attempt).
  bool hello();

  /// Send one WriteCommand with retry/backoff under a stable seq.
  WriteResult write(WriteCommand cmd);

  /// One liveness probe; updates link() and the health hook.
  bool heartbeat();

  /// Read back the live switch state (retried like a write).
  std::optional<Snapshot> read_snapshot();

  /// Read back, diff against the mirror, converge with one atomic
  /// reconcile write, then re-read and verify byte-identity.
  ReconcileReport reconcile();

  LinkState link() const { return link_; }
  /// Invoked after every heartbeat with "link is healthy"; wire it to
  /// HealthMonitor::note_channel.
  void set_health_hook(std::function<void(bool)> hook) {
    health_hook_ = std::move(hook);
  }

  sim::DataPlane& mirror() { return *mirror_; }
  const SessionStats& stats() const { return stats_; }
  std::uint64_t election_id() const { return options_.election_id; }
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  std::optional<AckMsg> exchange_with_retry(const SessionMsg& msg,
                                            std::uint32_t* attempts,
                                            std::uint64_t* backoff);

  Channel* channel_;
  std::unique_ptr<sim::DataPlane> mirror_;
  std::unique_ptr<SwitchAgent> mirror_agent_;
  SessionOptions options_;
  LinkState link_ = LinkState::kHealthy;
  std::uint32_t heartbeat_miss_streak_ = 0;
  std::uint64_t next_seq_ = 1;
  SessionStats stats_;
  std::function<void(bool)> health_hook_;
};

}  // namespace dejavu::control
