#include "control/auditor.hpp"

#include <algorithm>
#include <utility>

#include "control/repair.hpp"
#include "control/snapshot.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/drop_reason.hpp"

namespace dejavu::control {

namespace {

const char* source_name(AuditFinding::Source source) {
  switch (source) {
    case AuditFinding::Source::kDigest:
      return "digest";
    case AuditFinding::Source::kSample:
      return "sample";
    case AuditFinding::Source::kEpoch:
      return "epoch";
  }
  return "?";
}

std::string outcome_text(const sim::SwitchOutput& out) {
  if (out.dropped) {
    return std::string("drop:") + sim::drop_code_name(out.drop_code);
  }
  if (!out.out.empty()) {
    return "emit:port=" + std::to_string(out.out.front().port);
  }
  if (!out.to_cpu.empty()) {
    return "punt";
  }
  return "consumed";
}

}  // namespace

std::string AuditFinding::to_string() const {
  std::string s = "[";
  s += source_name(source);
  s += "]";
  if (!control.empty() || !object.empty()) {
    s += " ";
    s += control;
    s += ".";
    s += object;
    if (is_register) s += " (register)";
  }
  if (source == Source::kSample) {
    s += " packet=" + std::to_string(packet);
  } else {
    s += " tick=" + std::to_string(tick);
  }
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

std::string ScrubReport::to_string() const {
  if (!attempted) return "scrub: not attempted";
  std::string s = "scrub: ops=" + std::to_string(ops);
  s += converged ? " converged" : " FAILED";
  s += identical ? " identical" : " DIVERGENT";
  if (!error.empty()) {
    s += " error=";
    s += error;
  }
  return s;
}

std::string AuditReport::to_string() const {
  std::string s = "audit: ticks=" + std::to_string(ticks);
  s += " objects=" + std::to_string(objects_audited);
  s += " digest-mismatches=" + std::to_string(digest_mismatches);
  s += " observed=" + std::to_string(packets_observed);
  s += " sampled=" + std::to_string(packets_sampled);
  s += " divergences=" + std::to_string(sample_divergences);
  s += " quarantined=" + std::to_string(packets_quarantined);
  s += " scrubs=" + std::to_string(scrubs);
  s += " scrub-ops=" + std::to_string(scrub_ops);
  return s;
}

Auditor::Auditor(sim::DataPlane& live, sim::DataPlane& mirror,
                 AuditorOptions options)
    : live_(&live),
      mirror_(&mirror),
      options_(std::move(options)),
      agent_(live) {}

void Auditor::set_quarantine_hook(std::function<void()> hook) {
  hook_ = std::move(hook);
}

void Auditor::raise(AuditFinding finding) {
  suspicious_ = true;
  findings_.push_back(std::move(finding));
  if (hook_) {
    hook_();
    ++report_.quarantine_signals;
  }
}

std::size_t Auditor::tick() {
  ++report_.ticks;
  const std::uint64_t now = report_.ticks;
  const std::size_t before = findings_.size();

  // The global epoch gate and drain floor are compared every tick,
  // outside the round-robin window — they are two words.
  if (live_->epoch() != mirror_->epoch()) {
    AuditFinding f;
    f.source = AuditFinding::Source::kEpoch;
    f.object = "epoch";
    f.tick = now;
    f.detail = "live=" + std::to_string(live_->epoch()) +
               " intended=" + std::to_string(mirror_->epoch());
    raise(std::move(f));
  }
  if (live_->min_live_epoch() != mirror_->min_live_epoch()) {
    AuditFinding f;
    f.source = AuditFinding::Source::kEpoch;
    f.object = "min_live_epoch";
    f.tick = now;
    f.detail = "live=" + std::to_string(live_->min_live_epoch()) +
               " intended=" + std::to_string(mirror_->min_live_epoch());
    raise(std::move(f));
  }

  const std::vector<sim::DataPlane::StateObject> objects =
      mirror_->state_objects();
  const std::vector<sim::DataPlane::StateObject> live_objects =
      live_->state_objects();
  if (live_objects != objects) {
    // Structural divergence (an object appeared, vanished or stands in
    // for another) is caught immediately, outside the round-robin
    // budget. The window below never sees it: a plane digests an
    // object it lacks as 0, which is also an empty table's digest.
    AuditFinding f;
    f.source = AuditFinding::Source::kDigest;
    f.object = "(object census)";
    f.tick = now;
    f.detail = "live holds " + std::to_string(live_objects.size()) +
               " state objects, intended " + std::to_string(objects.size());
    if (live_objects.size() == objects.size()) {
      const auto [l, m] = std::ranges::mismatch(live_objects, objects);
      f.detail += "; first differs: live " + l->control + "." + l->name +
                  ", intended " + m->control + "." + m->name;
    }
    raise(std::move(f));
  } else if (!objects.empty()) {
    // The bounded per-tick audit window: digest_objects_per_tick
    // objects, round-robin in the canonical state_objects() order, each
    // digested afresh on both planes. Detection latency is bounded by
    // ceil(objects / window) ticks.
    const std::size_t total = objects.size();
    const std::size_t window = std::min<std::size_t>(
        total, std::max<std::uint32_t>(1, options_.digest_objects_per_tick));
    for (std::size_t k = 0; k < window; ++k) {
      const auto& object = objects[(cursor_ + k) % total];
      ++report_.objects_audited;
      const std::uint64_t live = live_->state_digest(object);
      const std::uint64_t intended = mirror_->state_digest(object);
      if (live == intended) continue;
      ++report_.digest_mismatches;
      AuditFinding f;
      f.source = AuditFinding::Source::kDigest;
      f.control = object.control;
      f.object = object.name;
      f.is_register = object.is_register;
      f.tick = now;
      f.detail = "digest " + std::to_string(live) + " != intended " +
                 std::to_string(intended);
      raise(std::move(f));
    }
    cursor_ = (cursor_ + window) % total;
  }

  const std::size_t fresh = findings_.size() - before;
  const bool clean = fresh == 0 && !sample_dirty_;
  sample_dirty_ = false;
  if (monitor_ != nullptr) monitor_->note_state(clean);
  return fresh;
}

sim::SwitchOutput Auditor::process(net::Packet packet, std::uint16_t in_port) {
  ++report_.packets_observed;
  const bool sample =
      options_.sample_every > 0 &&
      report_.packets_observed % options_.sample_every == 0;
  // Copy before the live run: process() consumes the packet.
  net::Packet shadow = packet;
  sim::SwitchOutput out = live_->process(std::move(packet), in_port);
  if (!sample) return out;

  ++report_.packets_sampled;
  sim::SwitchOutput want = mirror_->process(std::move(shadow), in_port);
  if (sim::semantically_equal(out, want)) return out;

  ++report_.sample_divergences;
  sample_dirty_ = true;
  AuditFinding f;
  f.source = AuditFinding::Source::kSample;
  f.packet = report_.packets_observed;
  f.detail = "live " + outcome_text(out) + " != intended " + outcome_text(want);
  raise(std::move(f));
  // Do not forward (or punt) a packet whose verdict just proved the
  // state corrupt — quarantine it and let scrub() repair first.
  out.out.clear();
  out.to_cpu.clear();
  out.set_drop(sim::DropCode::kStateQuarantined,
               "shadow sample diverged from the intended-state mirror");
  ++report_.packets_quarantined;
  return out;
}

ScrubReport Auditor::scrub() {
  ScrubReport r;
  r.attempted = true;
  ++report_.scrubs;

  Snapshot actual = take_snapshot(*live_);
  Snapshot intended = take_snapshot(*mirror_);
  WriteCommand plan = snapshot_diff(actual, intended);
  r.ops = plan.edits();
  report_.scrub_ops += r.ops;

  if (r.ops > 0) {
    SessionMsg msg;
    msg.kind = SessionMsg::Kind::kWrite;
    msg.election_id = options_.election_id;
    msg.seq = ++seq_;
    msg.write = std::move(plan);
    AckMsg ack = agent_.handle(msg);
    if (!ack.ok) {
      r.error = ack.error.empty() ? "reconcile write rejected" : ack.error;
      return r;
    }
  }
  r.converged = true;
  r.identical = take_snapshot(*live_).to_text() == intended.to_text();
  if (r.identical) {
    // Fully repaired: clear suspicion so the next tick reads clean and
    // the health monitor's recovery streak can start.
    suspicious_ = false;
    sample_dirty_ = false;
  }
  return r;
}

}  // namespace dejavu::control
