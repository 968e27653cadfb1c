#include "sim/fault.hpp"

#include <random>

#include "sfc/header.hpp"

namespace dejavu::sim {

namespace {

std::size_t sfc_offset(const net::Packet& packet) {
  return packet.has_sfc_header() ? sfc::kSfcHeaderSize : 0;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWriteFail:
      return "write-fail";
    case FaultKind::kWriteTimeout:
      return "write-timeout";
    case FaultKind::kEvictEntry:
      return "evict-entry";
    case FaultKind::kRecircPortDown:
      return "recirc-port-down";
    case FaultKind::kRegisterCorrupt:
      return "register-corrupt";
    case FaultKind::kChannelDrop:
      return "channel-drop";
    case FaultKind::kChannelDup:
      return "channel-dup";
    case FaultKind::kChannelReorder:
      return "channel-reorder";
    case FaultKind::kChannelDelay:
      return "channel-delay";
    case FaultKind::kChannelPartition:
      return "channel-partition";
    case FaultKind::kStateKeyFlip:
      return "state-key-flip";
    case FaultKind::kStateActionFlip:
      return "state-action-flip";
    case FaultKind::kStateWindowFlip:
      return "state-window-flip";
    case FaultKind::kStateRegisterFlip:
      return "state-register-flip";
    case FaultKind::kStateDelete:
      return "state-delete";
    case FaultKind::kStateDup:
      return "state-dup";
  }
  return "unknown";
}

namespace {

bool is_write_kind(FaultKind kind) {
  return kind == FaultKind::kWriteFail || kind == FaultKind::kWriteTimeout;
}

bool is_channel_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannelDrop:
    case FaultKind::kChannelDup:
    case FaultKind::kChannelReorder:
    case FaultKind::kChannelDelay:
    case FaultKind::kChannelPartition:
      return true;
    default:
      return false;
  }
}

bool is_state_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStateKeyFlip:
    case FaultKind::kStateActionFlip:
    case FaultKind::kStateWindowFlip:
    case FaultKind::kStateRegisterFlip:
    case FaultKind::kStateDelete:
    case FaultKind::kStateDup:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string FaultEvent::to_string() const {
  std::string s = fault_kind_name(kind);
  if (is_write_kind(kind)) {
    s += " op=" + std::to_string(op_index) + " count=" + std::to_string(count);
    return s;
  }
  if (is_channel_kind(kind)) {
    s += " msg=" + std::to_string(msg_index);
    if (kind == FaultKind::kChannelDrop) {
      s += on_ack ? " side=ack" : " side=request";
    } else if (kind != FaultKind::kChannelReorder) {
      s += " count=" + std::to_string(count);
    }
    return s;
  }
  if (is_state_kind(kind)) {
    s += " tick=" + std::to_string(tick);
    if (kind == FaultKind::kStateRegisterFlip) {
      s += " reg=" + control + "." + reg;
    } else {
      s += " table=" + table;
    }
    s += " salt=" + std::to_string(salt);
    return s;
  }
  s += " bucket=" + std::to_string(flow_bucket) +
       " pkt=" + std::to_string(packet_index);
  if (kind == FaultKind::kEvictEntry) s += " table=" + table;
  if (kind == FaultKind::kRegisterCorrupt)
    s += " reg=" + control + "." + reg;
  if (kind == FaultKind::kRecircPortDown)
    s += " pipeline=" + std::to_string(pipeline);
  return s;
}

FaultProfile FaultProfile::fig2_mixed() {
  FaultProfile p;
  p.evict_tables = {"LB.lb_session"};  // qualified name in the merge
  p.pipelines = {1};  // the Fig. 9 loopback pipeline
  // Fig. 2's NFs are stateless in the register sense; candidates stay
  // empty so corruption events are only generated for targets that
  // declare registers (e.g. the rate limiter).
  return p;
}

FaultProfile FaultProfile::channel_default() {
  FaultProfile p;
  p.write_fails = p.write_timeouts = 0;
  p.evictions = p.recirc_downs = p.register_corruptions = 0;
  p.channel_drops = 5;
  p.channel_dups = 3;
  p.channel_reorders = 2;
  p.channel_delays = 2;
  p.channel_partitions = 1;
  return p;
}

FaultProfile FaultProfile::state_default() {
  FaultProfile p;
  p.write_fails = p.write_timeouts = 0;
  p.evictions = p.recirc_downs = p.register_corruptions = 0;
  p.state_key_flips = 2;
  p.state_action_flips = 2;
  p.state_window_flips = 1;
  p.state_deletes = 2;
  p.state_dups = 1;
  // Fig. 2's static rule tables plus the LB's learned session table
  // (populated once the drill has warmed its flows). Register flips
  // stay 0 here for the same reason as fig2_mixed: these NFs declare
  // no registers; register corruption is exercised by tests against a
  // register-bearing program.
  p.state_tables = {"Classifier.traffic_class", "FW.acl", "LB.lb_session",
                    "Router.ipv4_lpm", "VGW.vip_map"};
  return p;
}

FaultPlan FaultPlan::from_seed(std::uint64_t seed,
                               const FaultProfile& profile) {
  FaultPlan plan;
  plan.seed = seed;
  std::mt19937_64 rng(seed);
  // rng() % n, not uniform_int_distribution: the distribution's
  // mapping is implementation-defined and the plan must be stable.
  auto pick = [&](std::uint32_t n) -> std::uint32_t {
    return n == 0 ? 0 : static_cast<std::uint32_t>(rng() % n);
  };
  auto packet_slot = [&](FaultEvent& ev) {
    ev.flow_bucket = pick(kFlowBuckets);
    const std::uint32_t span =
        profile.max_packet_index > profile.min_packet_index
            ? profile.max_packet_index - profile.min_packet_index
            : 1;
    ev.packet_index = profile.min_packet_index + pick(span);
  };

  for (std::uint32_t i = 0; i < profile.write_fails; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kWriteFail;
    ev.op_index = pick(profile.max_op_index);
    ev.count = 1 + pick(profile.max_fail_count);
    plan.events.push_back(ev);
  }
  for (std::uint32_t i = 0; i < profile.write_timeouts; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kWriteTimeout;
    ev.op_index = pick(profile.max_op_index);
    ev.count = 1 + pick(profile.max_fail_count);
    plan.events.push_back(ev);
  }
  if (!profile.evict_tables.empty()) {
    for (std::uint32_t i = 0; i < profile.evictions; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kEvictEntry;
      packet_slot(ev);
      ev.table = profile.evict_tables[pick(
          static_cast<std::uint32_t>(profile.evict_tables.size()))];
      plan.events.push_back(ev);
    }
  }
  if (!profile.pipelines.empty()) {
    for (std::uint32_t i = 0; i < profile.recirc_downs; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kRecircPortDown;
      packet_slot(ev);
      ev.pipeline = profile.pipelines[pick(
          static_cast<std::uint32_t>(profile.pipelines.size()))];
      plan.events.push_back(ev);
    }
  }
  if (!profile.corrupt_registers.empty()) {
    for (std::uint32_t i = 0; i < profile.register_corruptions; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kRegisterCorrupt;
      packet_slot(ev);
      const auto& target = profile.corrupt_registers[pick(
          static_cast<std::uint32_t>(profile.corrupt_registers.size()))];
      ev.control = target.first;
      ev.reg = target.second;
      plan.events.push_back(ev);
    }
  }
  // --- channel lane. Drawn strictly after the write and packet lanes
  // (and zero-count by default), so legacy profiles under the same
  // seed keep their two-lane schedules bit-identical.
  auto msg_slot = [&] { return pick(profile.max_msg_index); };
  for (std::uint32_t i = 0; i < profile.channel_drops; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kChannelDrop;
    ev.msg_index = msg_slot();
    ev.on_ack = pick(2) == 1;
    plan.events.push_back(ev);
  }
  for (std::uint32_t i = 0; i < profile.channel_dups; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kChannelDup;
    ev.msg_index = msg_slot();
    ev.count = 1 + pick(profile.max_dup_copies);
    plan.events.push_back(ev);
  }
  for (std::uint32_t i = 0; i < profile.channel_reorders; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kChannelReorder;
    ev.msg_index = msg_slot();
    plan.events.push_back(ev);
  }
  for (std::uint32_t i = 0; i < profile.channel_delays; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kChannelDelay;
    ev.msg_index = msg_slot();
    ev.count = 1 + pick(profile.max_delay_msgs);
    plan.events.push_back(ev);
  }
  for (std::uint32_t i = 0; i < profile.channel_partitions; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kChannelPartition;
    ev.msg_index = msg_slot();
    ev.count = 1 + pick(profile.max_partition_msgs);
    plan.events.push_back(ev);
  }
  // --- state lane. Drawn strictly after every other lane (and
  // zero-count by default), so legacy profiles under the same seed
  // keep their schedules bit-identical.
  auto state_slot = [&](FaultEvent& ev) {
    ev.tick = pick(profile.max_tick_index);
    ev.salt = rng();  // full 64-bit draw: victim/bit entropy
  };
  auto table_lane = [&](FaultKind kind, std::uint32_t n) {
    if (profile.state_tables.empty()) return;
    for (std::uint32_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = kind;
      state_slot(ev);
      ev.table = profile.state_tables[pick(
          static_cast<std::uint32_t>(profile.state_tables.size()))];
      plan.events.push_back(ev);
    }
  };
  table_lane(FaultKind::kStateKeyFlip, profile.state_key_flips);
  table_lane(FaultKind::kStateActionFlip, profile.state_action_flips);
  table_lane(FaultKind::kStateWindowFlip, profile.state_window_flips);
  if (!profile.corrupt_registers.empty()) {
    for (std::uint32_t i = 0; i < profile.state_register_flips; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kStateRegisterFlip;
      state_slot(ev);
      const auto& target = profile.corrupt_registers[pick(
          static_cast<std::uint32_t>(profile.corrupt_registers.size()))];
      ev.control = target.first;
      ev.reg = target.second;
      plan.events.push_back(ev);
    }
  }
  table_lane(FaultKind::kStateDelete, profile.state_deletes);
  table_lane(FaultKind::kStateDup, profile.state_dups);
  return plan;
}

std::vector<const FaultEvent*> FaultPlan::packet_events(
    std::uint32_t flow_bucket, std::uint32_t packet_index) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& ev : events) {
    if (is_write_kind(ev.kind) || is_channel_kind(ev.kind) ||
        is_state_kind(ev.kind)) {
      continue;
    }
    if (ev.flow_bucket == flow_bucket && ev.packet_index == packet_index) {
      out.push_back(&ev);
    }
  }
  return out;
}

std::vector<const FaultEvent*> FaultPlan::state_events(
    std::uint32_t tick) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& ev : events) {
    if (is_state_kind(ev.kind) && ev.tick == tick) out.push_back(&ev);
  }
  return out;
}

std::vector<const FaultEvent*> FaultPlan::all_state_events() const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& ev : events) {
    if (is_state_kind(ev.kind)) out.push_back(&ev);
  }
  return out;
}

std::vector<const FaultEvent*> FaultPlan::write_events() const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& ev : events) {
    if (is_write_kind(ev.kind)) out.push_back(&ev);
  }
  return out;
}

std::vector<const FaultEvent*> FaultPlan::channel_events(
    std::uint32_t msg_index) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& ev : events) {
    if (is_channel_kind(ev.kind) && ev.msg_index == msg_index) {
      out.push_back(&ev);
    }
  }
  return out;
}

bool FaultPlan::has_channel_kind(FaultKind kind) const {
  for (const FaultEvent& ev : events) {
    if (ev.kind == kind) return true;
  }
  return false;
}

std::string FaultPlan::to_string() const {
  std::string s =
      "fault plan (seed " + std::to_string(seed) + "): " +
      std::to_string(events.size()) + " events";
  for (const FaultEvent& ev : events) {
    s += "\n  " + ev.to_string();
  }
  return s;
}

FaultInjector::FaultInjector(const FaultPlan& plan) {
  for (const FaultEvent* ev : plan.write_events()) {
    write_events_.push_back(*ev);
  }
  reset();
}

void FaultInjector::reset() {
  budget_.clear();
  for (const FaultEvent& ev : write_events_) {
    auto [it, inserted] = budget_.try_emplace(ev.op_index, ev.kind, ev.count);
    if (!inserted) it->second.second += ev.count;
  }
}

void FaultInjector::on_write(std::uint32_t op_index) {
  auto it = budget_.find(op_index);
  if (it == budget_.end() || it->second.second == 0) return;
  --it->second.second;
  ++fired_;
  const bool timeout = it->second.first == FaultKind::kWriteTimeout;
  throw TransientWriteError(
      std::string(timeout ? "injected write timeout" : "injected write failure") +
      " at op " + std::to_string(op_index));
}

StateFaultInjector::StateFaultInjector(const FaultPlan& plan, DataPlane& dp)
    : plan_(plan), dp_(&dp) {
  scheduled_ = plan_.all_state_events().size();
}

std::uint64_t StateFaultInjector::applied_total() const {
  std::uint64_t total = 0;
  for (const auto& [kind, n] : applied_) total += n;
  return total;
}

std::vector<std::string> StateFaultInjector::apply_tick(std::uint32_t tick) {
  std::vector<std::string> landed;
  for (const FaultEvent* ev : plan_.state_events(tick)) {
    if (ev->kind == FaultKind::kStateRegisterFlip) {
      auto* cells = dp_->register_array(ev->control, ev->reg);
      if (cells == nullptr || cells->empty()) continue;
      const std::size_t index = (ev->salt >> 6) % cells->size();
      // Direct cell write, like a real SRAM upset: only the state
      // digests can see it.
      (*cells)[index] ^= 1ULL << (ev->salt % 64);
      applied_[fault_kind_name(ev->kind)] += 1;
      landed.push_back("register " + ev->control + "." + ev->reg + "[" +
                       std::to_string(index) + "] bit flipped");
      continue;
    }
    RuntimeTable::CorruptKind kind;
    switch (ev->kind) {
      case FaultKind::kStateKeyFlip:
        kind = RuntimeTable::CorruptKind::kKeyFlip;
        break;
      case FaultKind::kStateActionFlip:
        kind = RuntimeTable::CorruptKind::kActionFlip;
        break;
      case FaultKind::kStateWindowFlip:
        kind = RuntimeTable::CorruptKind::kWindowFlip;
        break;
      case FaultKind::kStateDelete:
        kind = RuntimeTable::CorruptKind::kDelete;
        break;
      default:
        kind = RuntimeTable::CorruptKind::kDuplicate;
        break;
    }
    // A merged table may exist once per hosting pipelet; pick the
    // instance from the salt so multi-instance tables are covered, in
    // the deterministic order tables_named returns.
    auto instances = dp_->tables_named(ev->table);
    // Skip instances with no installed entries so the pick cannot land
    // on an empty twin while a populated one goes unaudited.
    std::vector<RuntimeTable*> candidates;
    for (RuntimeTable* t : instances) {
      if (t->entry_count() > 0) candidates.push_back(t);
    }
    if (candidates.empty()) continue;
    RuntimeTable* victim = candidates[(ev->salt >> 32) % candidates.size()];
    const std::string what = victim->corrupt(kind, ev->salt);
    if (what.empty()) continue;
    applied_[fault_kind_name(ev->kind)] += 1;
    landed.push_back(ev->table + ": " + what);
  }
  return landed;
}

std::string InvariantViolations::to_string() const {
  return "unattributed_drops=" + std::to_string(unattributed_drops) +
         " corrupt_packets=" + std::to_string(corrupt_packets) +
         " metadata_leaks=" + std::to_string(metadata_leaks) +
         " forwarding_loops=" + std::to_string(forwarding_loops);
}

ChaosTarget::ChaosTarget(std::unique_ptr<ReplayTarget> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == FaultKind::kEvictEntry) evict_watch_.insert(ev.table);
  }
}

InvariantViolations ChaosTarget::check_output(const SwitchOutput& out) {
  InvariantViolations v;
  if (out.dropped && out.drop_code == DropCode::kNone) {
    ++v.unattributed_drops;
  }
  if (out.drop_code == DropCode::kMaxPassesExceeded) {
    ++v.forwarding_loops;
  }
  for (const SwitchOutput::Emitted& e : out.out) {
    if (e.packet.has_sfc_header()) {
      ++v.metadata_leaks;
      continue;  // ipv4 offset shifts; the leak is the finding
    }
    if (auto ip = e.packet.ipv4()) {
      if (ip->checksum != ip->compute_checksum()) ++v.corrupt_packets;
    }
  }
  return v;
}

void ChaosTarget::learn_new_entries(const std::string& table,
                                    const net::FiveTuple& tuple) {
  auto& known = known_keys_[table];
  for (RuntimeTable* t : dataplane().tables_named(table)) {
    for (const RuntimeTable::ExactEntry& e : t->exact_entries()) {
      if (known.insert(e.key).second) {
        owned_keys_[table][tuple].insert(e.key);
      }
    }
  }
}

void ChaosTarget::apply_evict(const FaultEvent& ev,
                              const net::FiveTuple& tuple) {
  auto table_it = owned_keys_.find(ev.table);
  if (table_it == owned_keys_.end()) return;
  auto flow_it = table_it->second.find(tuple);
  if (flow_it == table_it->second.end()) return;
  std::uint64_t removed = 0;
  for (const std::vector<std::uint64_t>& key : flow_it->second) {
    for (RuntimeTable* t : dataplane().tables_named(ev.table)) {
      if (t->remove_exact(key)) ++removed;
    }
    known_keys_[ev.table].erase(key);
  }
  table_it->second.erase(flow_it);
  if (removed > 0) {
    faults_applied_[fault_kind_name(FaultKind::kEvictEntry)] += 1;
  }
}

SwitchOutput ChaosTarget::inject(net::Packet packet, std::uint16_t in_port) {
  auto tuple = packet.five_tuple(sfc_offset(packet));
  std::vector<const FaultEvent*> events;
  std::vector<std::uint16_t> downed_ports;
  if (tuple) {
    const std::uint32_t index = flow_index_[*tuple]++;
    const std::uint32_t bucket =
        tuple->session_hash() % FaultPlan::kFlowBuckets;
    events = plan_.packet_events(bucket, index);
    DataPlane& dp = dataplane();
    for (const FaultEvent* ev : events) {
      switch (ev->kind) {
        case FaultKind::kEvictEntry:
          apply_evict(*ev, *tuple);
          break;
        case FaultKind::kRecircPortDown: {
          // Down every loopback/recirc port of the pipeline for this
          // one injection; restored below so other flows never see it.
          const auto& spec = dp.config().spec();
          for (std::uint32_t p = 0; p < spec.total_ports(); ++p) {
            if (spec.pipeline_of_port(p) == ev->pipeline &&
                dp.config().is_loopback(p) && !dp.is_port_down(p)) {
              dp.set_port_down(static_cast<std::uint16_t>(p));
              downed_ports.push_back(static_cast<std::uint16_t>(p));
            }
          }
          const std::uint16_t dedicated =
              static_cast<std::uint16_t>(spec.total_ports() + ev->pipeline);
          if (!dp.is_port_down(dedicated)) {
            dp.set_port_down(dedicated);
            downed_ports.push_back(dedicated);
          }
          if (!downed_ports.empty()) {
            faults_applied_[fault_kind_name(FaultKind::kRecircPortDown)] += 1;
          }
          break;
        }
        case FaultKind::kRegisterCorrupt: {
          auto* arr = dp.register_array(ev->control, ev->reg);
          if (arr != nullptr && !arr->empty()) {
            (*arr)[tuple->session_hash() % arr->size()] ^= 0xdeadbeefULL;
            faults_applied_[fault_kind_name(FaultKind::kRegisterCorrupt)] += 1;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  SwitchOutput out = inner_->inject(std::move(packet), in_port);

  for (std::uint16_t p : downed_ports) {
    dataplane().set_port_down(p, /*down=*/false);
  }
  if (tuple) {
    // Attribute entries this injection created (e.g. the LB session
    // the control plane just learned) to the flow, for later eviction.
    for (const std::string& table : evict_watch_) {
      learn_new_entries(table, *tuple);
    }
  }
  violations_ += check_output(out);
  return out;
}

TargetFactory chaos_factory(TargetFactory inner, FaultPlan plan,
                            std::vector<ChaosTarget*>* shims) {
  return [inner = std::move(inner), plan = std::move(plan),
          shims](std::uint32_t index) -> std::unique_ptr<ReplayTarget> {
    auto target = std::make_unique<ChaosTarget>(inner(index), plan);
    if (shims != nullptr) shims->push_back(target.get());
    return target;
  };
}

}  // namespace dejavu::sim
