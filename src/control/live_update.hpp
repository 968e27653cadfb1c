// Hitless live chain updates (§11): epoch-versioned two-phase
// reconfiguration with per-packet consistency.
//
// One sequencer drives every update through the state machine:
//
//   begin ──► shadow ──► flip ──► drain ──► commit
//     │          │         │        │
//     └─ abort ◄─┘   (roll forward only once flipped)
//
//   * shadow — install generation e+1 next to generation e: every new
//     entry gets window [e+1, open], every leaving entry is retired
//     (window capped at e). One all-or-nothing Transaction; a failure
//     rolls the switch back byte-identical and aborts the update.
//   * flip — apply flip-time register writes bank by bank (tagging
//     each bank with e+1), then move the single ingress version gate:
//     dp.set_epoch(e+1). Packets stamped e keep resolving against
//     generation e; new arrivals are stamped e+1.
//   * drain — pump the control plane until no punt stamped e remains
//     in flight, then force-flush stragglers.
//   * commit — garbage-collect generation e (retired entries drop,
//     min_live_epoch rises; late reinjections stamped e complete as
//     DropCode::kUpdateDrained).
//
// Each phase is one WriteCommand, and SwitchAgent::apply is the only
// code that executes it. The sequencer only sends commands and
// journals (control::Journal) each confirmed phase before the next
// begins, so recovery can finish or undo a half-done update after a
// controller crash — deciding from the *observed* switch state, never
// reinstalling blindly. The entry points differ only in where the
// commands go: run_update/recover send them to a channel-less agent
// over the data plane; run_update_via_session/recover_via_session send
// them through Session::write.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "control/journal.hpp"
#include "control/transaction.hpp"
#include "route/routing.hpp"
#include "sim/dataplane.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {

/// Deterministic controller-crash injection for recovery drills: run()
/// stops dead after journaling the named phase, leaving the switch
/// exactly as a real crash at that point would.
enum class CrashPoint : std::uint8_t {
  kNone,
  kAfterShadow,
  kAfterFlip,
  kAfterDrain,
};

struct LiveUpdateOptions {
  RetryPolicy retry;
  /// Drain pump invocations before stale punts are force-flushed.
  std::uint32_t max_drain_rounds = 8;
  CrashPoint crash_point = CrashPoint::kNone;
};

/// Called during the drain phase to let the control plane service
/// outstanding punts; returns how many punts it handled.
using DrainPump = std::function<std::uint64_t()>;

struct UpdateReport {
  bool committed = false;
  /// True when a CrashPoint stopped the update mid-flight (the switch
  /// is left in that phase's state; recover() must finish the job).
  bool crashed = false;
  /// Session-routed updates only: the channel died mid-phase after
  /// retries exhausted. The journal holds the last confirmed phase;
  /// recovery resumes once the channel heals.
  bool channel_lost = false;
  bool rolled_back = false;
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;
  std::uint64_t update_id = 0;
  Transaction::Result shadow;
  /// Punts serviced by the drain pump / force-flushed stale punts.
  std::uint64_t drained = 0;
  std::uint64_t flushed = 0;
  std::string error;

  std::string to_string() const;
};

/// What recover() did about the journal's pending update.
enum class RecoveryAction : std::uint8_t {
  kNone,          ///< no pending update
  kRolledBack,    ///< shadow undone; switch back on the old generation
  kRolledForward, ///< update completed from where it stopped
};

struct RecoveryReport {
  RecoveryAction action = RecoveryAction::kNone;
  std::uint64_t update_id = 0;
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;
  std::uint64_t drained = 0;
  std::uint64_t flushed = 0;
  std::string detail;

  std::string to_string() const;
};

class Session;

/// Drive one diff through shadow → flip → drain → commit on `dp`.
/// `journal`, when given, receives the write-ahead intent and phase
/// markers; without one the update still runs (but cannot be
/// crash-recovered). `injector` feeds the shadow transaction's write
/// lane; `pump` services punts during the drain phase.
UpdateReport run_update(sim::DataPlane& dp, const RuleDiff& diff,
                        Journal* journal = nullptr,
                        LiveUpdateOptions options = {},
                        sim::FaultInjector* injector = nullptr,
                        DrainPump pump = {});

/// Reconcile a restarted controller's journal against the live switch:
/// finish (roll forward) or undo (roll back) the pending update based
/// on the phase markers AND the observed switch state — a journal that
/// says "begun" but a switch that already holds the full shadow means
/// the crash hit after the writes landed, so the update is adopted,
/// never reinstalled.
RecoveryReport recover(sim::DataPlane& dp, Journal& journal,
                       LiveUpdateOptions options = {}, DrainPump pump = {});

/// run_update through the session: exactly four writes, journaling
/// each phase controller-side once the switch confirms it. A phase
/// write that gives up (channel lost) returns with report.channel_lost
/// set; the journal then holds the last phase the switch *confirmed*,
/// and recover_via_session finishes the job after the channel heals.
/// Fault injection and drain pumping are the switch agent's
/// (SwitchAgent::set_injector / set_drain_pump); options.crash_point
/// applies as in run_update.
UpdateReport run_update_via_session(Session& session, const RuleDiff& diff,
                                    Journal* journal,
                                    LiveUpdateOptions options = {});

/// recover over the session: the observed state is a snapshot read
/// back over the (healed) channel. Defers — action kNone, journal
/// untouched — while the channel is unreachable.
RecoveryReport recover_via_session(Session& session, Journal& journal,
                                   LiveUpdateOptions options = {});

/// The clean-commit reference: `diff` run through run_update on a
/// scratch copy of `dp` (same program, ids, config and state), as
/// Snapshot::to_text(). Returns "" and sets `*error` when that update
/// does not commit.
std::string committed_reference(sim::DataPlane& dp, const RuleDiff& diff,
                                std::string* error = nullptr);

/// The installable delta between two routing plans as a RuleDiff:
/// branching + check-gate entries that leave, change, or join.
/// Live-existence-aware (entries the fault already evicted are not
/// phantom-removed; entries both plans agree on but that are missing
/// from the switch are reinstalled).
RuleDiff routing_rule_diff(const route::RoutingPlan& from,
                           const route::RoutingPlan& to, sim::DataPlane& dp);

/// Legacy stop-the-world application of a diff: removals as outright
/// removes, installs as overwrites, register writes direct — no epochs
/// involved. Used to stage candidate rulesets on scratch switches and
/// by the kLegacyDiff verb.
void fill_transaction(Transaction& txn, const RuleDiff& diff);

// ---- Phase primitives: the bodies SwitchAgent::apply executes, one
// idempotent WriteCommand at a time, plus the read-only probes the
// sequencer and the drills observe the switch with.

/// Queue the phase-1 shadow of `diff` into `txn`: leaving entries (and
/// overwritten live versions) retire at `from`, installs ride in with
/// window [to, open]. One all-or-nothing transaction.
void fill_shadow_transaction(Transaction& txn, const RuleDiff& diff,
                             sim::DataPlane& dp, std::uint32_t from,
                             std::uint32_t to);

/// Does the live switch already hold the complete shadow of `diff`?
/// Installs must be visible at `to` with the intended action; leaving
/// entries must have no version still open for generation `from`.
bool shadow_observed(sim::DataPlane& dp, const RuleDiff& diff,
                     std::uint32_t from, std::uint32_t to);

/// (visible, total) shadow installs of `diff` at generation `to` — the
/// torn-batch probe: 0 < visible < total means a partially applied
/// batch is observable, which the all-or-nothing contract forbids.
std::pair<std::size_t, std::size_t> shadow_install_visibility(
    sim::DataPlane& dp, const RuleDiff& diff, std::uint32_t to);

/// Flip-time register writes grouped per bank, applied bank by bank
/// with the bank tag set last. Banks already tagged `to` are skipped,
/// so a resumed or duplicated flip is a no-op for them.
void apply_register_banks(sim::DataPlane& dp, const RuleDiff& diff,
                          std::uint32_t to);

/// Drain generations below `to`: pump until no stale punt remains (or
/// `max_rounds`), then force-flush stragglers. Returns {pumped,
/// flushed}.
std::pair<std::uint64_t, std::uint64_t> drain_epochs(sim::DataPlane& dp,
                                                     std::uint32_t to,
                                                     std::uint32_t max_rounds,
                                                     const DrainPump& pump);

/// Undo an un-flipped shadow from the observed switch state: remove
/// whatever fraction of the shadow landed, re-open retires, restore
/// register banks already tagged `to`, reset the gate to `from`.
/// Idempotent — safe under duplicate delivery.
void undo_shadow(sim::DataPlane& dp, const RuleDiff& diff,
                 std::uint32_t from, std::uint32_t to);

/// Capture pre-update register old_values / bank epochs into `intent`
/// (so a journaled rollback can restore them without the switch).
/// Returns an error string, or "" when every register resolves.
std::string capture_register_intent(sim::DataPlane& dp, RuleDiff& intent);

}  // namespace dejavu::control
