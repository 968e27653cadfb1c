// Silent state-corruption defense (DESIGN.md §16): detect, quarantine
// and repair switch-state corruption that bypasses every control-plane
// write path.
//
// The threat model is memory faults, not buggy controllers: an SRAM
// bit flip rewrites an installed entry's key, action or epoch window;
// a register cell flips; an entry vanishes or is double-installed.
// None of these move RuntimeTable::revision() or the register version
// counter — the mutation is *silent* — so the compiled pipeline's
// revision-based revalidation, the session's exactly-once machinery
// and the transaction log all still believe the state they installed
// is the state the switch holds.
//
// The Auditor closes that gap with two independent detectors against
// the session-layer intended-state mirror (the controller's replica of
// everything it ever acked):
//
//   * digest audit — each tick() digests a bounded window of state
//     objects (DataPlane::state_objects(), DataPlane::state_digest())
//     on the live plane and the mirror and compares them, round-robin
//     over tables and register banks, so a corruption anywhere is
//     caught within ceil(objects / digest_objects_per_tick) ticks at
//     O(window) cost per tick: only the window's objects are digested;
//   * shadow sampling — every sample_every-th packet routed through
//     process() is also run through the mirror and the two outputs
//     compared with semantically_equal(). A divergence proves the
//     corruption is packet-visible *right now*; the sampled packet is
//     stamped DropCode::kStateQuarantined instead of being forwarded
//     on corrupt state.
//
// Detection triggers quarantine (a caller-supplied hook, e.g. an
// operator alarm; the compiled engine needs none, since it reads the
// same store the interpreter does) and feeds
// HealthMonitor::note_state(). Repair
// is scrub(): snapshot both planes, snapshot_diff() the reconcile plan,
// ship it as ONE atomic WriteCommand::Verb::kReconcile through a
// SwitchAgent on the live plane (one Transaction: its undo log rolls a
// failed plan back), then
// verify convergence byte-for-byte via Snapshot::to_text().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/session.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::control {

class HealthMonitor;

struct AuditorOptions {
  /// Digest comparisons per tick (the per-tick audit budget). The
  /// worst-case detection latency for a digest-visible corruption is
  /// ceil(total objects / this) ticks.
  std::uint32_t digest_objects_per_tick = 4;
  /// Shadow-sample every Nth packet through process(). Each sample
  /// costs one extra interpreter run on the mirror, so the overhead is
  /// ~(interpreter cost / sample_every) per packet; bench_audit prints
  /// it against the ≤5% budget. 0 disables sampling.
  std::uint64_t sample_every = 256;
  /// Election id for scrub()'s reconcile writes. Must beat whatever
  /// master last wrote through the same agent; the agent auto-claims
  /// the higher id.
  std::uint64_t election_id = 1;
};

/// One detected divergence between the live plane and the mirror.
struct AuditFinding {
  enum class Source : std::uint8_t {
    kDigest,  ///< per-object digest mismatch on a tick() audit
    kSample,  ///< shadow-sampled packet diverged from the mirror
    kEpoch,   ///< epoch gate / drain floor mismatch
  };
  Source source = Source::kDigest;
  std::string control;  ///< owning control block ("" for kEpoch/kSample)
  std::string object;   ///< table or register name ("" when unknown)
  bool is_register = false;
  std::uint64_t tick = 0;    ///< audit tick of detection (kDigest/kEpoch)
  std::uint64_t packet = 0;  ///< observed-packet ordinal (kSample)
  std::string detail;

  std::string to_string() const;
};

/// Outcome of one scrub() repair pass.
struct ScrubReport {
  bool attempted = false;
  /// The reconcile write was acked ok (or no ops were needed).
  bool converged = false;
  /// Post-repair live snapshot is byte-identical to the mirror's
  /// (Snapshot::to_text()), the end-to-end repair oracle.
  bool identical = false;
  std::size_t ops = 0;  ///< edit-script size (divergence measure)
  std::string error;

  std::string to_string() const;
};

/// Cumulative counters across the auditor's lifetime.
struct AuditReport {
  std::uint64_t ticks = 0;
  std::uint64_t objects_audited = 0;    ///< digest comparisons performed
  std::uint64_t digest_mismatches = 0;  ///< kDigest findings
  std::uint64_t packets_observed = 0;
  std::uint64_t packets_sampled = 0;
  std::uint64_t sample_divergences = 0;  ///< kSample findings
  std::uint64_t packets_quarantined = 0;
  std::uint64_t quarantine_signals = 0;  ///< on_quarantine invocations
  std::uint64_t scrubs = 0;
  std::uint64_t scrub_ops = 0;  ///< reconcile ops shipped across scrubs

  std::string to_string() const;
};

/// The state auditor: pairs one live DataPlane with the intended-state
/// mirror (typically Session::mirror() or an independently maintained
/// replica) and watches for silent divergence. Deterministic and
/// synchronous, like everything else in the control plane; one
/// instance per replay worker.
class Auditor {
 public:
  /// Both planes must outlive the auditor. `mirror` is trusted: it
  /// must only ever be written through acked control-plane paths.
  Auditor(sim::DataPlane& live, sim::DataPlane& mirror,
          AuditorOptions options = {});

  /// One audit tick: compare the next digest window (round-robin over
  /// every table and register bank of both planes, in the canonical
  /// state_objects() order) plus the epoch gate. Feeds the health
  /// monitor (clean = no digest/epoch finding this tick AND no sample
  /// divergence since the previous tick). Returns the number of new
  /// findings.
  std::size_t tick();

  /// Process one packet on the live plane, shadow-sampling every
  /// sample_every-th call through the mirror. On divergence the
  /// returned output is stamped DropCode::kStateQuarantined — the
  /// packet is NOT forwarded on state known to be corrupt.
  sim::SwitchOutput process(net::Packet packet, std::uint16_t in_port);

  /// Self-scrubbing repair: diff live against mirror and converge with
  /// one atomic kReconcile write through the internal SwitchAgent
  /// (all-or-nothing: the agent's transaction rolls back any mid-plan
  /// failure). Verifies byte-identity afterwards. Clears the pending
  /// sample-divergence latch on success so the next tick reads clean.
  ScrubReport scrub();

  /// True when any finding has been recorded since the last scrub()
  /// that converged (digest, sample, or epoch).
  bool suspicious() const { return suspicious_; }

  const std::vector<AuditFinding>& findings() const { return findings_; }
  const AuditReport& report() const { return report_; }

  /// Invoked once per finding as it is raised (an operator alarm, a
  /// traffic shift away from the switch).
  void set_quarantine_hook(std::function<void()> hook);
  /// Receives note_state(clean) once per tick().
  void set_health_monitor(HealthMonitor* monitor) { monitor_ = monitor; }

 private:
  void raise(AuditFinding finding);

  sim::DataPlane* live_;
  sim::DataPlane* mirror_;
  AuditorOptions options_;
  std::function<void()> hook_;
  HealthMonitor* monitor_ = nullptr;
  std::uint64_t cursor_ = 0;  ///< round-robin position over objects
  std::uint64_t seq_ = 0;     ///< reconcile write sequence
  SwitchAgent agent_;         ///< scrub()'s write path into live_
  bool suspicious_ = false;
  bool sample_dirty_ = false;  ///< divergence since last tick()
  std::vector<AuditFinding> findings_;
  AuditReport report_;
};

}  // namespace dejavu::control
