// Self-healing chain repair (§7 "failure handling", taken further):
// watch per-NF health from the data plane's own telemetry — the
// check_nextNF gate counters every packet increments on its way
// through a chain — and, when an NF stays dead for long enough,
// repair the deployment around it:
//
//   * bypass  — rewrite the chain policies without the NF, derive the
//     new branching/check rules on the *unchanged* placement, and
//     swap the rule diff in transactionally;
//   * replace — re-run the placement optimizer on the reduced chains
//     and rebuild a fresh deployment (rerouted recirculations and
//     all), migrating NF state via snapshot.
//
// Every repair is gated: the candidate ruleset is staged on a scratch
// copy of the data plane and must pass both the structural verifier
// (verify::run_all) and the symbolic explorer (explore::run) before a
// single rule touches the live switch; the live swap then goes
// through control::run_update, whose all-or-nothing shadow phase rolls
// a mid-repair write failure back to the pre-repair ruleset instead of
// stranding a half-wired chain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/live_update.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "explore/explorer.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {

struct HealthThresholds {
  /// Windows with fewer offered packets are ignored (no signal).
  std::uint64_t min_window_packets = 16;
  /// A path is suffering when it drops more than this fraction of its
  /// window's packets.
  double max_drop_fraction = 0.3;
  /// Consecutive suspect windows before an NF is declared unhealthy
  /// (debounce against one-off blips).
  std::uint32_t sustained_windows = 2;
  /// Consecutive control-channel heartbeat misses before the channel
  /// itself is declared unhealthy (note_channel / channel_unhealthy).
  std::uint32_t channel_sustained_misses = 3;
  /// Recovery hysteresis: once the channel is unhealthy, this many
  /// CONSECUTIVE healthy heartbeats are required before it is healthy
  /// again. A link flapping fast (miss, hit, miss, hit...) therefore
  /// stays unhealthy instead of oscillating the repair decision on
  /// every probe.
  std::uint32_t channel_recovery_streak = 2;
  /// State-integrity analogue (fed by control::Auditor per audit
  /// tick): consecutive ticks with a digest/sample mismatch before the
  /// switch state is declared unhealthy...
  std::uint32_t state_sustained_mismatches = 1;
  /// ...and consecutive clean ticks to clear it again.
  std::uint32_t state_recovery_streak = 2;
};

/// What the traffic source observed for one path over one window.
struct PathWindow {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

struct NfHealth {
  std::string nf;
  /// Gate hits during the last observed window.
  std::uint64_t gate_delta = 0;
  std::uint32_t suspect_windows = 0;
  bool unhealthy = false;
};

/// Per-NF health derived from drop/counter telemetry: an NF whose
/// check_nextNF gate stops firing while its upstream neighbour's gate
/// still fires — on a path that is dropping beyond threshold — is the
/// culprit. Sustained over `sustained_windows`, it is unhealthy.
class HealthMonitor {
 public:
  HealthMonitor(sim::DataPlane& dp, const sfc::PolicySet& policies,
                HealthThresholds thresholds = {});

  /// Feed one observation window (per-path offered/delivered/dropped
  /// as seen by the traffic source). Diffs each NF's gate counters
  /// against the previous window.
  void observe(const std::map<std::uint16_t, PathWindow>& windows);

  /// NFs currently past the sustained-suspicion threshold.
  std::vector<std::string> unhealthy() const;
  const std::map<std::string, NfHealth>& health() const { return health_; }
  std::uint32_t windows_observed() const { return windows_observed_; }

  /// Control-channel liveness, fed by control::Session's health hook
  /// (one call per heartbeat). Distinct from NF health: an unhealthy
  /// *channel* means the controller cannot see or fix the switch —
  /// repairs should be deferred, not attempted blind. Entry and exit
  /// are both debounced (channel_sustained_misses misses to enter,
  /// channel_recovery_streak consecutive healthy probes to leave), so
  /// a flapping link cannot oscillate the repair decision.
  void note_channel(bool healthy);
  bool channel_unhealthy() const { return channel_unhealthy_; }
  std::uint32_t channel_miss_streak() const { return channel_miss_streak_; }

  /// Switch-state integrity, fed by control::Auditor once per audit
  /// tick (clean = no digest or shadow-sample mismatch that tick).
  /// Same two-sided hysteresis as the channel.
  void note_state(bool clean);
  bool state_unhealthy() const { return state_unhealthy_; }
  std::uint32_t state_mismatch_streak() const { return state_mismatch_streak_; }

  /// Forget all suspicion and re-baseline the counters (after repair).
  void reset();

 private:
  /// Sum of hits over every instance of the NF's check gate; nullopt
  /// when the NF has no gate (the entry NF).
  std::optional<std::uint64_t> gate_hits(const std::string& nf) const;

  sim::DataPlane* dp_;
  const sfc::PolicySet* policies_;
  HealthThresholds thresholds_;
  std::map<std::string, std::uint64_t> last_hits_;
  std::map<std::string, NfHealth> health_;
  std::uint32_t windows_observed_ = 0;
  std::uint32_t channel_miss_streak_ = 0;
  std::uint32_t channel_heal_streak_ = 0;
  bool channel_unhealthy_ = false;
  std::uint32_t state_mismatch_streak_ = 0;
  std::uint32_t state_heal_streak_ = 0;
  bool state_unhealthy_ = false;
};

struct RepairPolicy {
  /// NFs that must never be bypassed (e.g. the firewall: failing open
  /// is worse than failing closed). Repairs refuse these.
  std::set<std::string> never_bypass;
  /// Retry/backoff for the live commit's shadow transaction.
  RetryPolicy retry;
  /// Explorer options for the pre-commit gate.
  explore::ExploreOptions explore_options;
};

struct RepairReport {
  bool attempted = false;
  bool succeeded = false;
  std::string nf;
  std::string strategy;  // "bypass" | "replace"
  std::string error;
  std::size_t rules_removed = 0;
  std::size_t rules_installed = 0;
  bool verify_ok = false;
  bool explore_ok = false;
  /// The live swap's shadow transaction (== update.shadow).
  Transaction::Result txn;
  /// The live swap's phase report.
  UpdateReport update;

  std::string to_string() const;
};

class ChainRepair {
 public:
  explicit ChainRepair(Deployment& deployment, RepairPolicy policy = {});

  /// Repair by bypass: every chain drops `nf`, routing is re-derived
  /// on the unchanged placement, and the live switch receives the rule
  /// diff hitlessly through run_update (§11): packets in flight finish
  /// on the pre-repair generation. `injector` feeds the shadow
  /// transaction's write lane; `pump` services outstanding CPU punts
  /// during the drain phase (typically the owning control plane's punt
  /// loop). On success the deployment's policy/routing view is updated
  /// in place.
  RepairReport bypass(const std::string& nf,
                      sim::FaultInjector* injector = nullptr,
                      DrainPump pump = {});

  /// Repair by re-placement: drop `nf`, re-run the optimizer on the
  /// reduced chains, rebuild a fresh deployment (new composed program,
  /// new recirculation routes) and migrate the surviving NFs' table
  /// and register state into it. The caller cuts traffic over to
  /// `deployment` when the report says succeeded.
  struct Replacement {
    RepairReport report;
    std::unique_ptr<Deployment> deployment;
  };
  Replacement replace(const std::string& nf);

 private:
  /// The reduced policy set, or an error string.
  std::string bypass_policies(const std::string& nf,
                              sfc::PolicySet& out) const;

  Deployment* deployment_;
  RepairPolicy policy_;
};

/// Snapshot filtered to NF state only (framework branching/check/glue
/// tables excluded) — what a re-placement migrates into the rebuilt
/// deployment, whose framework rules are freshly derived.
Snapshot nf_state_snapshot(sim::DataPlane& dp);

}  // namespace dejavu::control
