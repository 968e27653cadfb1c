#include "sim/runtime_table.hpp"

#include <numeric>
#include <stdexcept>
#include <tuple>

namespace dejavu::sim {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// The power-of-two slot count holding `live` versions at load <= 0.7.
std::size_t slots_for(std::size_t live) {
  std::size_t n = 8;
  while (n * 7 < live * 10) n *= 2;
  return n;
}

}  // namespace

RuntimeTable::RuntimeTable(const p4ir::ControlBlock& control,
                           const p4ir::Table& def)
    : control_(&control), def_(&def) {
  if (def.keys.size() > kMaxKeyArity) {
    throw std::invalid_argument("table '" + def.name + "' has more than " +
                                std::to_string(kMaxKeyArity) +
                                " key components");
  }
  arity_ = def.keys.size();
  std::size_t widest = 0;
  for (const std::string& name : def.actions) {
    if (const p4ir::Action* a = control.find_action(name)) {
      widest = std::max(widest, a->params.size());
    }
  }
  stride_ = arity_ + 2 + widest;
  if (!def.default_action.empty()) {
    const ActionCall call{def.default_action, {}};
    if (const std::string bad = call_error(call); !bad.empty()) {
      throw std::invalid_argument("table '" + def.name + "' default " + bad);
    }
    default_action_ = static_cast<std::uint32_t>(
        control.find_action(def.default_action) - control.actions().data());
  }
  if (def.needs_tcam()) {
    tcam_.emplace(def.keys.size());
  }
}

std::string RuntimeTable::call_error(const ActionCall& call) const {
  const p4ir::Action* action = control_->find_action(call.action);
  if (action == nullptr) {
    return "action '" + call.action + "' is not defined";
  }
  for (const p4ir::Action::Param& param : action->params) {
    if (!call.args.contains(param.name)) {
      return "action '" + call.action + "' is missing argument '" +
             param.name + "'";
    }
  }
  if (call.args.size() != action->params.size()) {
    return "action '" + call.action + "' given arguments it does not take";
  }
  for (const p4ir::Primitive& p : action->primitives) {
    const bool reads_param = p.op == p4ir::PrimitiveOp::kSetFromParam ||
                             p.op == p4ir::PrimitiveOp::kSetContext;
    if (reads_param && !action->param_index(p.param)) {
      return "action '" + call.action + "' reads undeclared parameter '" +
             p.param + "'";
    }
  }
  return "";
}

std::string RuntimeTable::action_error(const ActionCall& call) const {
  if (std::find(def_->actions.begin(), def_->actions.end(), call.action) ==
      def_->actions.end()) {
    return "action '" + call.action + "' is not bound to the table";
  }
  return call_error(call);
}

RuntimeTable::Stored RuntimeTable::bind(const ActionCall& call,
                                        EpochWindow window) const {
  if (const std::string bad = action_error(call); !bad.empty()) {
    throw std::invalid_argument("table '" + def_->name + "': " + bad);
  }
  const p4ir::Action* action = control_->find_action(call.action);
  Stored bound{window,
               static_cast<std::uint32_t>(action - control_->actions().data()),
               {}};
  bound.args.reserve(action->params.size());
  for (const p4ir::Action::Param& param : action->params) {
    bound.args.push_back(call.args.at(param.name));
  }
  return bound;
}

ActionCall RuntimeTable::text(std::uint32_t id,
                              const std::uint64_t* args) const {
  ActionCall call;
  if (id == kNoAction) return call;
  const p4ir::Action& action = control_->actions()[id];
  call.action = action.name;
  for (std::size_t i = 0; i < action.params.size(); ++i) {
    call.args.emplace(action.params[i].name, args[i]);
  }
  return call;
}

std::size_t RuntimeTable::home(const std::uint64_t* key) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < arity_; ++i) {
    h ^= key[i];
    h *= kFnvPrime;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4b9fdULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
}

template <class Pred>
std::size_t RuntimeTable::find_slot(const std::uint64_t* key,
                                    Pred pred) const {
  if (slots_.empty()) return kNoSlot;
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    const std::uint64_t* s = slot(i);
    if (!used(s)) return kNoSlot;
    if (std::equal(s, s + arity_, key) && pred(s)) return i;
  }
}

std::size_t RuntimeTable::free_slot() const {
  if (slots_.empty()) return kNoSlot;
  // Load stays at most 0.7, so a free slot exists.
  std::size_t i = 0;
  while (used(slot(i))) ++i;
  return i;
}

std::vector<std::size_t> RuntimeTable::used_slots() const {
  std::vector<std::size_t> out;
  const std::size_t start = free_slot();
  if (start == kNoSlot) return out;
  out.reserve(size_);
  // Start past a free slot, so no cluster is split at the wrap.
  for (std::size_t k = 1; k <= slot_count(); ++k) {
    const std::size_t i = (start + k) & mask_;
    if (used(slot(i))) out.push_back(i);
  }
  return out;
}

void RuntimeTable::rehash(std::size_t extra) {
  const std::vector<std::size_t> order = used_slots();
  std::vector<std::uint64_t> old;
  old.swap(slots_);
  const std::size_t n = slots_for(size_ + extra);
  slots_.assign(n * stride_, kEmptySlot);
  mask_ = n - 1;
  for (const std::size_t i : order) place(old.data() + i * stride_);
}

void RuntimeTable::place(const std::uint64_t* image) {
  std::size_t i = home(image);
  while (used(slot(i))) i = (i + 1) & mask_;
  std::copy_n(image, stride_, slot(i));
}

void RuntimeTable::insert_slot(const std::uint64_t* image) {
  if ((size_ + 1) * 10 > slot_count() * 7) rehash(1);
  place(image);
  ++size_;
  retired_ += !window_at(image).open();
}

void RuntimeTable::erase_slot(std::size_t hole) {
  retired_ -= !window_at(slot(hole)).open();
  for (std::size_t j = (hole + 1) & mask_; used(slot(j));
       j = (j + 1) & mask_) {
    // Slot j may move back into the hole unless its home lies in
    // (hole, j]: then the hole would sit before its home.
    if (((j - home(slot(j))) & mask_) >= ((j - hole) & mask_)) {
      std::copy_n(slot(j), stride_, slot(hole));
      hole = j;
    }
  }
  slot(hole)[arity_ + 1] = kEmptySlot;
  --size_;
}

void RuntimeTable::shrink_if_sparse() {
  if (slot_count() > 8 && size_ * 8 < slot_count()) rehash(0);
}

std::vector<std::uint64_t> RuntimeTable::image(
    const std::vector<std::uint64_t>& key, const Stored& version) const {
  std::vector<std::uint64_t> out(stride_, 0);
  std::copy(key.begin(), key.end(), out.begin());
  out[arity_] = packed(version.window);
  out[arity_ + 1] = version.action;
  std::copy(version.args.begin(), version.args.end(),
            out.begin() + static_cast<std::ptrdiff_t>(arity_ + 2));
  return out;
}

RuntimeTable::Stored* RuntimeTable::ternary_stored(std::size_t handle) {
  if (!tcam_) return nullptr;
  auto* entry = tcam_->mutable_entry(handle);
  return entry == nullptr ? nullptr : &entry->value;
}

void RuntimeTable::add_exact(const std::vector<std::uint64_t>& key,
                             ActionCall action, EpochWindow window) {
  if (tcam_) {
    throw std::invalid_argument("table '" + def_->name +
                                "' is ternary/LPM; use add_ternary/add_lpm");
  }
  if (key.size() != arity_) {
    throw std::invalid_argument("key arity mismatch for table '" +
                                def_->name + "'");
  }
  if (!window.well_formed()) {
    throw std::invalid_argument("malformed epoch window for table '" +
                                def_->name + "'");
  }
  const std::vector<std::uint64_t> bound = image(key, bind(action, window));
  // The first version, in install order, with this window or one
  // overlapping it.
  const std::size_t clash =
      find_slot(key.data(), [&](const std::uint64_t* s) {
        return window_at(s).overlaps(window);
      });
  if (clash != kNoSlot) {
    if (window_at(slot(clash)) != window) {
      throw std::invalid_argument(
          "overlapping epoch window for key in table '" + def_->name +
          "' (a packet could see two generations)");
    }
    std::copy(bound.begin(), bound.end(), slot(clash));  // overwrite
    ++revision_;
    return;
  }
  if (size_ >= def_->max_entries) {
    throw std::invalid_argument("table '" + def_->name + "' is full (" +
                                std::to_string(def_->max_entries) + ")");
  }
  insert_slot(bound.data());
  ++revision_;
}

std::size_t RuntimeTable::add_ternary(const std::vector<net::TernaryField>& key,
                                      std::int32_t priority, ActionCall action,
                                      EpochWindow window) {
  if (!tcam_) {
    throw std::invalid_argument("table '" + def_->name +
                                "' is exact; use add_exact");
  }
  if (!window.well_formed()) {
    throw std::invalid_argument("malformed epoch window for table '" +
                                def_->name + "'");
  }
  Stored bound = bind(action, window);
  if (size_ >= def_->max_entries) {
    throw std::invalid_argument("table '" + def_->name + "' is full");
  }
  for (const auto& e : tcam_->entries()) {
    if (e.key == key && e.priority == priority &&
        e.value.window.overlaps(window)) {
      throw std::invalid_argument(
          "overlapping epoch window for ternary entry in table '" +
          def_->name + "'");
    }
  }
  const std::size_t handle = tcam_->insert(key, priority, std::move(bound));
  ++size_;
  retired_ += !window.open();
  ++revision_;
  return handle;
}

std::vector<net::TernaryField> RuntimeTable::lpm_key(
    std::uint64_t value, std::uint8_t prefix_len) const {
  if (!tcam_) {
    throw std::invalid_argument("table '" + def_->name +
                                "' is exact; use add_exact");
  }
  // Find the LPM component; other components become full wildcards.
  std::vector<net::TernaryField> key(def_->keys.size());
  bool found = false;
  for (std::size_t i = 0; i < def_->keys.size(); ++i) {
    if (def_->keys[i].kind == p4ir::MatchKind::kLpm) {
      const std::uint16_t bits = def_->keys[i].bits;
      if (prefix_len > bits) {
        throw std::invalid_argument("prefix length exceeds key width");
      }
      std::uint64_t mask =
          prefix_len == 0
              ? 0
              : (~std::uint64_t{0} << (bits - prefix_len)) &
                    (bits >= 64 ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << bits) - 1));
      key[i] = net::TernaryField{value & mask, mask};
      found = true;
    }
  }
  if (!found) {
    throw std::invalid_argument("table '" + def_->name +
                                "' has no LPM key component");
  }
  return key;
}

std::size_t RuntimeTable::add_lpm(std::uint64_t value, std::uint8_t prefix_len,
                                  ActionCall action, EpochWindow window) {
  return add_ternary(lpm_key(value, prefix_len), prefix_len,
                     std::move(action), window);
}

bool RuntimeTable::erase_version(const std::vector<std::uint64_t>& key,
                                 const EpochWindow* window) {
  if (tcam_ || key.size() != arity_) return false;
  const std::size_t i = find_slot(key.data(), [&](const std::uint64_t* s) {
    return window == nullptr ? window_at(s).open() : window_at(s) == *window;
  });
  if (i == kNoSlot) return false;
  erase_slot(i);
  shrink_if_sparse();
  ++revision_;
  return true;
}

bool RuntimeTable::remove_exact(const std::vector<std::uint64_t>& key) {
  return erase_version(key, nullptr);
}

bool RuntimeTable::remove_exact_version(const std::vector<std::uint64_t>& key,
                                        EpochWindow window) {
  return erase_version(key, &window);
}

bool RuntimeTable::retire_exact(const std::vector<std::uint64_t>& key,
                                std::uint32_t last_epoch) {
  if (tcam_ || key.size() != arity_) return false;
  const std::size_t i = find_slot(key.data(), [&](const std::uint64_t* s) {
    return window_at(s).open();
  });
  if (i == kNoSlot) return false;
  EpochWindow w = window_at(slot(i));
  if (last_epoch < w.from) return false;
  w.to = last_epoch;
  set_window(slot(i), w);
  ++revision_;
  return true;
}

bool RuntimeTable::unretire_exact(const std::vector<std::uint64_t>& key,
                                  std::uint32_t last_epoch) {
  if (tcam_ || key.size() != arity_) return false;
  const std::size_t i = find_slot(key.data(), [&](const std::uint64_t* s) {
    return window_at(s).to == last_epoch;
  });
  if (i == kNoSlot) return false;
  const EpochWindow reopened{window_at(slot(i)).from, kEpochOpen};
  const std::size_t clash =
      find_slot(key.data(), [&](const std::uint64_t* s) {
        return s != slot(i) && window_at(s).overlaps(reopened);
      });
  if (clash != kNoSlot) return false;
  set_window(slot(i), reopened);
  ++revision_;
  return true;
}

bool RuntimeTable::erase_ternary(std::size_t handle) {
  const Stored* stored = ternary_stored(handle);
  if (stored == nullptr) return false;
  retired_ -= !stored->window.open();
  tcam_->erase(handle);
  --size_;
  ++revision_;
  return true;
}

bool RuntimeTable::retire_ternary(std::size_t handle,
                                  std::uint32_t last_epoch) {
  Stored* stored = ternary_stored(handle);
  if (stored == nullptr || !stored->window.open() ||
      last_epoch < stored->window.from) {
    return false;
  }
  set_window(*stored, {stored->window.from, last_epoch});
  ++revision_;
  return true;
}

bool RuntimeTable::unretire_ternary(std::size_t handle,
                                    std::uint32_t last_epoch) {
  Stored* stored = ternary_stored(handle);
  if (stored == nullptr || stored->window.open() ||
      stored->window.to != last_epoch) {
    return false;
  }
  set_window(*stored, {stored->window.from, kEpochOpen});
  ++revision_;
  return true;
}

std::optional<std::size_t> RuntimeTable::find_ternary(
    const std::vector<net::TernaryField>& key, std::int32_t priority) const {
  if (!tcam_) return std::nullopt;
  for (const auto& e : tcam_->entries()) {
    if (e.key == key && e.priority == priority && e.value.window.open()) {
      return e.handle;
    }
  }
  return std::nullopt;
}

EpochWindow RuntimeTable::ternary_window(std::size_t handle) const {
  if (tcam_) {
    for (const auto& e : tcam_->entries()) {
      if (e.handle == handle) return e.value.window;
    }
  }
  return EpochWindow{};
}

std::vector<RuntimeTable::TernaryVersion> RuntimeTable::ternary_versions(
    const std::vector<net::TernaryField>& key, std::int32_t priority) const {
  std::vector<TernaryVersion> out;
  if (!tcam_) return out;
  for (const auto& e : tcam_->entries()) {
    if (e.priority == priority && e.key == key) {
      out.push_back({e.handle, e.value.window, text(e.value)});
    }
  }
  return out;
}

std::size_t RuntimeTable::gc(std::uint32_t min_live) {
  if (retired_ == 0) return 0;  // only open windows: nothing can expire
  const std::size_t before = size_;
  if (tcam_) {
    size_ -= tcam_->erase_if([&](const net::Tcam<Stored>::Entry& e) {
      return e.value.window.to < min_live;
    });
    // The survivors' closed windows are the ones still counted.
    retired_ -= static_cast<std::uint32_t>(before - size_);
  } else {
    // Walk from a free slot so no cluster straddles the walk's start; a
    // backward shift only refills the hole from later in its cluster,
    // so re-check a slot after each erase.
    const std::size_t start = free_slot();
    for (std::size_t k = 1; k <= slot_count(); ++k) {
      const std::size_t i = (start + k) & mask_;
      while (used(slot(i)) && window_at(slot(i)).to < min_live) erase_slot(i);
    }
    shrink_if_sparse();
  }
  const std::size_t removed = before - size_;
  if (removed > 0) ++revision_;
  return removed;
}

std::vector<RuntimeTable::ExactEntry> RuntimeTable::exact_versions(
    const std::vector<std::uint64_t>& key) const {
  std::vector<ExactEntry> out;
  if (tcam_ || key.size() != arity_) return out;
  find_slot(key.data(), [&](const std::uint64_t* s) {
    out.push_back(entry_at(s));
    return false;  // visit every version
  });
  return out;
}

std::optional<RuntimeTable::ExactEntry> RuntimeTable::find_exact(
    const std::vector<std::uint64_t>& key) const {
  return find_exact(key, kEpochOpen);
}

std::optional<RuntimeTable::ExactEntry> RuntimeTable::find_exact(
    const std::vector<std::uint64_t>& key, std::uint32_t epoch) const {
  if (tcam_ || key.size() != arity_) return std::nullopt;
  const std::size_t i = find_slot(key.data(), [&](const std::uint64_t* s) {
    return window_at(s).contains(epoch);
  });
  if (i == kNoSlot) return std::nullopt;
  return entry_at(slot(i));
}

RuntimeTable::Match RuntimeTable::probe(const ExactKey* key,
                                        std::uint32_t epoch) const {
  Match m{false, default_action_, nullptr};
  if (def_->keyless()) {
    m.hit = true;
  } else if (key != nullptr && key->n == arity_) {
    if (tcam_) {
      // Priority-ordered scan skipping entries outside the packet's
      // epoch (the TCAM's own lookup() is epoch-blind).
      for (const auto& e : tcam_->entries()) {
        if (!e.value.window.contains(epoch)) continue;
        bool match = true;
        for (std::uint8_t i = 0; i < key->n; ++i) {
          if (!e.key[i].matches(key->v[i])) {
            match = false;
            break;
          }
        }
        if (match) {
          m = Match{true, e.value.action, e.value.args.data()};
          break;
        }
      }
    } else if (const std::size_t i = find_slot(
                   key->v,
                   [&](const std::uint64_t* s) {
                     return window_at(s).contains(epoch);
                   });
               i != kNoSlot) {
      m = Match{true, action_at(slot(i)), args_at(slot(i))};
    }
  }
  (m.hit ? hits_ : misses_) += 1;
  return m;
}

LookupResult RuntimeTable::lookup(
    const std::vector<std::optional<std::uint64_t>>& key,
    std::uint32_t epoch) const {
  ExactKey k;
  bool complete = key.size() <= kMaxKeyArity;
  for (std::size_t i = 0; complete && i < key.size(); ++i) {
    complete = key[i].has_value();
    if (complete) k.v[i] = *key[i];
  }
  k.n = static_cast<std::uint8_t>(key.size());
  const Match m = probe(complete ? &k : nullptr, epoch);
  return LookupResult{m.hit, text(m.action, m.args)};
}

std::vector<RuntimeTable::ExactEntry> RuntimeTable::exact_entries() const {
  std::vector<ExactEntry> out;
  if (tcam_) return out;
  out.reserve(size_);
  for (const std::size_t i : used_slots()) out.push_back(entry_at(slot(i)));
  std::stable_sort(out.begin(), out.end(),
                   [](const ExactEntry& a, const ExactEntry& b) {
                     return std::tie(a.key, a.window.from, a.window.to) <
                            std::tie(b.key, b.window.from, b.window.to);
                   });
  return out;
}

std::vector<net::Tcam<ActionCall>::Entry> RuntimeTable::ternary_entries()
    const {
  std::vector<net::Tcam<ActionCall>::Entry> out;
  if (!tcam_) return out;
  out.reserve(tcam_->size());
  for (const auto& e : tcam_->entries()) {
    out.push_back({e.handle, e.priority, e.key, text(e.value)});
  }
  return out;
}

namespace {

// Derive an endless deterministic value stream from one salt
// (splitmix64): corrupt() needs several independent picks (victim,
// component, bit) out of a single scheduled salt.
struct SaltStream {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fdULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t pick(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

std::string window_text(const EpochWindow& w) {
  return "[" + std::to_string(w.from) + "," +
         (w.open() ? std::string("open") : std::to_string(w.to)) + "]";
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

void fnv_mix_str(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  h ^= 0xff;  // terminator: "ab"+"c" != "a"+"bc"
  h *= kFnvPrime;
}

void fnv_mix_action(std::uint64_t& h, const ActionCall& action) {
  fnv_mix_str(h, action.action);
  for (const auto& [name, value] : action.args) {
    fnv_mix_str(h, name);
    fnv_mix(h, value);
  }
}

}  // namespace

std::string RuntimeTable::corrupt(CorruptKind kind, std::uint64_t salt) {
  SaltStream s{salt};

  // Flip one bit of an entry's window. Used directly for kWindowFlip
  // and as the fallback for kActionFlip on entries with no action data
  // (in SRAM the action word and the window tag are adjacent anyway).
  auto flip_window = [&](EpochWindow& w) {
    const std::uint32_t bit = 1u << s.pick(8);
    if (s.pick(2) == 0) {
      w.from ^= bit;
    } else {
      w.to ^= bit;
    }
  };
  auto flip_action = [&](std::uint32_t action, std::uint64_t* args,
                         EpochWindow& window) -> bool {
    const auto& params = control_->actions()[action].params;
    if (params.empty()) {
      flip_window(window);
      return false;
    }
    // The victim argument is picked in name order, the order the text
    // form lists arguments in.
    std::vector<std::size_t> by_name(params.size());
    std::iota(by_name.begin(), by_name.end(), std::size_t{0});
    std::sort(by_name.begin(), by_name.end(),
              [&](std::size_t a, std::size_t b) {
                return params[a].name < params[b].name;
              });
    std::uint64_t& victim = args[by_name[s.pick(by_name.size())]];
    victim ^= 1ULL << s.pick(64);
    return true;
  };

  if (tcam_) {
    if (tcam_->entries().empty()) return "";
    // Victim pick over the stored (priority-ordered, history-stable)
    // entry list: deterministic for replicas with identical installs.
    const auto& victim =
        tcam_->entries()[s.pick(tcam_->entries().size())];
    const std::size_t handle = victim.handle;
    net::Tcam<Stored>::Entry* e = tcam_->mutable_entry(handle);
    const std::string where =
        "ternary '" + def_->name + "' prio=" + std::to_string(e->priority);
    switch (kind) {
      case CorruptKind::kKeyFlip: {
        // A flip that lands exactly on a neighbouring (key, priority)
        // would create an aliased twin snapshot_diff cannot address
        // (same rationale as kDuplicate below), so scan from the
        // seeded bit to the first flip that keeps the entry unique.
        auto aliased = [&]() {
          for (const auto& other : tcam_->entries()) {
            if (other.handle == handle) continue;
            if (other.priority == e->priority && other.key == e->key) {
              return true;
            }
          }
          return false;
        };
        net::TernaryField& f = e->key[s.pick(e->key.size())];
        if (f.mask != 0) {
          // Flip a cared-about value bit so the match semantics move.
          std::vector<int> bits;
          for (int b = 0; b < 64; ++b) {
            if ((f.mask >> b) & 1) bits.push_back(b);
          }
          const std::size_t start = s.pick(bits.size());
          for (std::size_t n = 0; n < bits.size(); ++n) {
            const std::uint64_t mask = 1ULL << bits[(start + n) % bits.size()];
            f.value ^= mask;
            if (!aliased()) break;
            f.value ^= mask;
          }
        } else {
          const std::size_t start = s.pick(64);  // wildcard narrows
          for (std::size_t n = 0; n < 64; ++n) {
            const std::uint64_t mask = 1ULL << ((start + n) % 64);
            f.mask ^= mask;
            if (!aliased()) break;
            f.mask ^= mask;
          }
        }
        return where + " key bit flipped";
      }
      case CorruptKind::kActionFlip: {
        EpochWindow w = e->value.window;
        const bool in_args =
            flip_action(e->value.action, e->value.args.data(), w);
        set_window(e->value, w);
        return where + (in_args ? " action data flipped"
                                : " window flipped (no action data)");
      }
      case CorruptKind::kWindowFlip: {
        EpochWindow w = e->value.window;
        flip_window(w);
        set_window(e->value, w);
        return where + " window flipped";
      }
      case CorruptKind::kDelete: {
        retired_ -= !e->value.window.open();
        tcam_->erase(handle);
        --size_;
        return where + " entry deleted";
      }
      case CorruptKind::kDuplicate: {
        // The ghost must differ in priority: snapshot_diff addresses
        // ternary entries by (key, priority, window), and an identical
        // twin would collapse into its original and be unrepairable.
        const auto key_copy = e->key;
        const Stored value_copy = e->value;
        std::int32_t prio = e->priority + 1 + static_cast<std::int32_t>(s.pick(3));
        auto taken = [&](std::int32_t p) {
          for (const auto& other : tcam_->entries()) {
            if (other.key == key_copy && other.priority == p) return true;
          }
          return false;
        };
        while (taken(prio)) ++prio;
        tcam_->insert(key_copy, prio, value_copy);
        ++size_;
        retired_ += !value_copy.window.open();
        return where + " duplicated at prio=" + std::to_string(prio);
      }
    }
    return "";
  }

  if (size_ == 0) return "";
  // Canonical victim order: the keys' decimal text ("v0|v1|..."), then
  // install order among a key's versions — independent of the index's
  // slot layout.
  std::vector<std::pair<std::string, std::size_t>> victims;
  victims.reserve(size_);
  for (const std::size_t i : used_slots()) {
    std::string key_text;
    for (std::size_t c = 0; c < arity_; ++c) {
      key_text += std::to_string(slot(i)[c]);
      key_text += '|';
    }
    victims.emplace_back(std::move(key_text), i);
  }
  std::stable_sort(victims.begin(), victims.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::size_t victim = victims[s.pick(victims.size())].second;
  std::uint64_t* entry = slot(victim);
  // A copy of the victim's slot, for the kinds that re-insert it.
  std::vector<std::uint64_t> copy(entry, entry + stride_);
  auto taken = [&](const std::uint64_t* key, EpochWindow w) {
    return find_slot(key, [&](const std::uint64_t* v) {
             return window_at(v) == w;
           }) != kNoSlot;
  };
  const std::string where = "exact '" + def_->name + "'";

  switch (kind) {
    case CorruptKind::kKeyFlip: {
      // The flipped key lives in a different home slot: move the
      // version under its new key, like the SRAM row now matching
      // different traffic. Scan from the seeded bit to the first flip
      // that does not land on an installed (key, window) twin — an
      // aliased version would be unaddressable by snapshot_diff (same
      // rationale as kDuplicate below).
      erase_slot(victim);
      const std::size_t component = s.pick(arity_);
      const std::size_t start = s.pick(64);
      const EpochWindow w = window_at(copy.data());
      for (std::size_t n = 0; arity_ > 0 && n < 64; ++n) {
        const std::uint64_t mask = 1ULL << ((start + n) % 64);
        copy[component] ^= mask;
        if (!taken(copy.data(), w)) break;
        copy[component] ^= mask;
      }
      insert_slot(copy.data());
      return where + " key bit flipped";
    }
    case CorruptKind::kActionFlip: {
      EpochWindow w = window_at(entry);
      const bool in_args = flip_action(action_at(entry), entry + arity_ + 2, w);
      set_window(entry, w);
      return where + (in_args ? " action data flipped"
                              : " window flipped (no action data)");
    }
    case CorruptKind::kWindowFlip: {
      EpochWindow w = window_at(entry);
      flip_window(w);
      set_window(entry, w);
      return where + " window flipped " + window_text(w);
    }
    case CorruptKind::kDelete: {
      erase_slot(victim);
      shrink_if_sparse();
      return where + " entry deleted";
    }
    case CorruptKind::kDuplicate: {
      // Perturb the ghost's window until it differs from every
      // installed version of the key: snapshot_diff addresses exact
      // versions by (key, window), so an identical twin would collapse
      // into its original and be unrepairable.
      const EpochWindow original = window_at(entry);
      EpochWindow ghost = original;
      std::uint32_t bump = 1 + static_cast<std::uint32_t>(s.pick(3));
      do {
        ghost.from = original.from + bump;
        ++bump;
      } while (taken(copy.data(), ghost));
      copy[arity_] = packed(ghost);
      insert_slot(copy.data());
      return where + " entry duplicated";
    }
  }
  return "";
}

std::uint64_t RuntimeTable::state_digest() const {
  std::uint64_t h = kFnvOffset;
  if (tcam_) {
    // Canonical order: (priority desc is the stored order, but sort
    // fully so the digest is independent of install history).
    std::vector<const net::Tcam<Stored>::Entry*> entries;
    entries.reserve(tcam_->entries().size());
    for (const auto& e : tcam_->entries()) entries.push_back(&e);
    auto key_rank = [](const std::vector<net::TernaryField>& key) {
      std::vector<std::uint64_t> flat;
      flat.reserve(key.size() * 2);
      for (const net::TernaryField& f : key) {
        flat.push_back(f.value);
        flat.push_back(f.mask);
      }
      return flat;
    };
    std::sort(entries.begin(), entries.end(),
              [&](const auto* a, const auto* b) {
                const EpochWindow wa = a->value.window;
                const EpochWindow wb = b->value.window;
                const auto ka = key_rank(a->key);
                const auto kb = key_rank(b->key);
                return std::tie(a->priority, ka, wa.from, wa.to) <
                       std::tie(b->priority, kb, wb.from, wb.to);
              });
    for (const auto* e : entries) {
      fnv_mix(h, static_cast<std::uint64_t>(e->priority));
      for (const net::TernaryField& f : e->key) {
        fnv_mix(h, f.value);
        fnv_mix(h, f.mask);
      }
      fnv_mix(h, e->value.window.from);
      fnv_mix(h, e->value.window.to);
      fnv_mix_action(h, text(e->value));
    }
    return h;
  }
  for (const ExactEntry& e : exact_entries()) {  // sorted: order-free
    for (const std::uint64_t v : e.key) fnv_mix(h, v);
    fnv_mix(h, e.window.from);
    fnv_mix(h, e.window.to);
    fnv_mix_action(h, e.action);
  }
  return h;
}

void RuntimeTable::clear() {
  std::vector<std::uint64_t>().swap(slots_);
  mask_ = 0;
  if (tcam_) tcam_.emplace(def_->keys.size());
  size_ = 0;
  retired_ = 0;
  ++revision_;
}

}  // namespace dejavu::sim
