#include "sim/runtime_table.hpp"

#include <charconv>
#include <numeric>
#include <stdexcept>
#include <string_view>

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

/// Why `action` cannot run at all ("" when it can): a primitive reads
/// a parameter the action does not declare.
std::string shape_error(const p4ir::Action& action) {
  for (const p4ir::Primitive& p : action.primitives) {
    const bool reads_param = p.op == p4ir::PrimitiveOp::kSetFromParam ||
                             p.op == p4ir::PrimitiveOp::kSetContext;
    if (reads_param && !action.param_index(p.param)) {
      return "action '" + action.name + "' reads undeclared parameter '" +
             p.param + "'";
    }
  }
  return "";
}

/// The index of `control`'s action `name`, or kNoAction.
std::uint32_t action_id(const p4ir::ControlBlock& control,
                        const std::string& name) {
  const p4ir::Action* a = control.find_action(name);
  return a ? static_cast<std::uint32_t>(a - control.actions().data())
           : kNoAction;
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
    Declared& d = declared_.emplace_back();
    d.action = action_id(control, name);
    if (d.action == kNoAction) continue;
    const p4ir::Action& a = control.actions()[d.action];
    if (a.params.size() > kMaxActionArgs) {
      throw std::invalid_argument("table '" + def.name + "' action '" +
                                  name + "' takes more than " +
                                  std::to_string(kMaxActionArgs) +
                                  " parameters");
    }
    d.runnable = shape_error(a).empty();
    widest = std::max(widest, a.params.size());
  }
  stride_ = arity_ + 2 + widest;
  if (!def.default_action.empty()) {
    const std::uint32_t id = action_id(control, def.default_action);
    const bool runnable =
        id != kNoAction && shape_error(control.actions()[id]).empty();
    BoundAction unused;
    if (const std::string bad =
            bind_call({def.default_action, {}}, id, runnable, unused);
        !bad.empty()) {
      throw std::invalid_argument("table '" + def.name + "' default " + bad);
    }
    default_action_ = id;
  }
  if (def.needs_tcam()) {
    tcam_.emplace(def.keys.size());
  }
}

std::string RuntimeTable::bind_call(const ActionCall& call, std::uint32_t id,
                                    bool runnable, BoundAction& out) const {
  if (id == kNoAction) {
    return "action '" + call.action + "' is not defined";
  }
  const p4ir::Action& action = control_->actions()[id];
  for (std::size_t i = 0; i < action.params.size(); ++i) {
    const auto arg = call.args.find(action.params[i].name);
    if (arg == call.args.end()) {
      return "action '" + call.action + "' is missing argument '" +
             action.params[i].name + "'";
    }
    out.args[i] = arg->second;
  }
  if (call.args.size() != action.params.size()) {
    return "action '" + call.action + "' given arguments it does not take";
  }
  if (!runnable) return shape_error(action);
  out.action = id;
  return "";
}

std::string RuntimeTable::bind(const ActionCall& call,
                               BoundAction& out) const {
  for (std::size_t i = 0; i < declared_.size(); ++i) {
    if (def_->actions[i] == call.action) {
      return bind_call(call, declared_[i].action, declared_[i].runnable, out);
    }
  }
  return "action '" + call.action + "' is not bound to the table";
}

BoundAction RuntimeTable::bind(const ActionCall& call) const {
  BoundAction out;
  if (const std::string bad = bind(call, out); !bad.empty()) {
    throw std::invalid_argument("table '" + def_->name + "': " + bad);
  }
  return out;
}

void RuntimeTable::check_bound(const BoundAction& action) const {
  if (action.action >= control_->actions().size()) {
    throw std::invalid_argument("table '" + def_->name +
                                "': the action is not bound");
  }
}

std::string RuntimeTable::action_error(const ActionCall& call) const {
  BoundAction unused;
  return bind(call, unused);
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

std::size_t RuntimeTable::free_slot() const {
  if (slots_.empty()) return kNoSlot;
  // Load stays at most 0.7, so a free slot exists.
  std::size_t i = 0;
  while (used(slot(i))) ++i;
  return i;
}

void RuntimeTable::rehash(std::size_t extra) {
  std::vector<std::size_t> order;
  order.reserve(size_);
  for_each_slot([&](std::size_t i) { order.push_back(i); });
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

RuntimeTable::Stored* RuntimeTable::ternary_stored(std::size_t handle) {
  if (!tcam_) return nullptr;
  auto* entry = tcam_->mutable_entry(handle);
  return entry == nullptr ? nullptr : &entry->value;
}

void RuntimeTable::add_exact(std::span<const std::uint64_t> key,
                             const BoundAction& action, EpochWindow window) {
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
  check_bound(action);
  std::uint64_t image[kMaxStride];
  std::copy(key.begin(), key.end(), image);
  image[arity_] = packed(window);
  image[arity_ + 1] = action.action;
  std::copy_n(action.args, stride_ - arity_ - 2, image + arity_ + 2);
  // The first version, in install order, with this window or one
  // overlapping it.
  const std::size_t clash =
      find_slot(image, [&](const std::uint64_t* s) {
        return window_at(s).overlaps(window);
      });
  if (clash != kNoSlot) {
    if (window_at(slot(clash)) != window) {
      throw std::invalid_argument(
          "overlapping epoch window for key in table '" + def_->name +
          "' (a packet could see two generations)");
    }
    std::copy_n(image, stride_, slot(clash));  // overwrite
    ++revision_;
    return;
  }
  if (size_ >= def_->max_entries) {
    throw std::invalid_argument("table '" + def_->name + "' is full (" +
                                std::to_string(def_->max_entries) + ")");
  }
  insert_slot(image);
  ++revision_;
}

std::size_t RuntimeTable::add_ternary(const std::vector<net::TernaryField>& key,
                                      std::int32_t priority,
                                      const BoundAction& action,
                                      EpochWindow window) {
  if (!tcam_) {
    throw std::invalid_argument("table '" + def_->name +
                                "' is exact; use add_exact");
  }
  if (!window.well_formed()) {
    throw std::invalid_argument("malformed epoch window for table '" +
                                def_->name + "'");
  }
  check_bound(action);
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
  const std::size_t n = control_->actions()[action.action].params.size();
  const std::size_t handle = tcam_->insert(
      key, priority, Stored{window, action.action, {action.args, action.args + n}});
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
                                  const ActionCall& action,
                                  EpochWindow window) {
  return add_ternary(lpm_key(value, prefix_len), prefix_len, action, window);
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
  if (!tcam_) return false;
  auto* entry = tcam_->mutable_entry(handle);
  if (entry == nullptr || entry->value.window.to != last_epoch) return false;
  const EpochWindow reopened{entry->value.window.from, kEpochOpen};
  for (const auto& e : tcam_->entries()) {
    if (e.handle != handle && e.priority == entry->priority &&
        e.key == entry->key && e.value.window.overlaps(reopened)) {
      return false;
    }
  }
  set_window(entry->value, reopened);
  ++revision_;
  return true;
}

std::vector<RuntimeTable::TernaryEntry> RuntimeTable::ternary_versions(
    const std::vector<net::TernaryField>& key, std::int32_t priority) const {
  std::vector<TernaryEntry> out;
  if (!tcam_) return out;
  for (const auto& e : tcam_->entries()) {
    if (e.priority == priority && e.key == key) {
      out.push_back(
          {e.handle, e.priority, e.key, text(e.value), e.value.window});
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
  for_each_version(key,
                   [&](const ExactVersion& v) { out.push_back(entry(v)); });
  return out;
}

std::optional<RuntimeTable::ExactEntry> RuntimeTable::find_exact(
    const std::vector<std::uint64_t>& key, std::uint32_t epoch) const {
  if (tcam_ || key.size() != arity_) return std::nullopt;
  const std::size_t i = find_slot(key.data(), [&](const std::uint64_t* s) {
    return window_at(s).contains(epoch);
  });
  if (i == kNoSlot) return std::nullopt;
  return entry(version_at(slot(i)));
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

/// The decimal text of an exact key, "v0|v1|...|", written into `buf`
/// (room for kMaxKeyArity 20-digit words and their separators).
std::string_view key_text(const std::uint64_t* key, std::size_t arity,
                          char* buf) {
  char* end = buf;
  for (std::size_t c = 0; c < arity; ++c) {
    end = std::to_chars(end, end + 20, key[c]).ptr;
    *end++ = '|';
  }
  return {buf, static_cast<std::size_t>(end - buf)};
}

}  // namespace

std::size_t RuntimeTable::canonical_victim(std::size_t rank) const {
  // The canonical order is the keys' decimal text, then install order
  // among a key's versions, which is the walk order. Each candidate
  // carries the first eight bytes of its text, big-endian (text
  // shorter than that pads with NULs, which sort first, as a shorter
  // prefix does), so most comparisons never format a key.
  struct Candidate {
    std::uint64_t prefix;
    std::uint32_t walk;  // position in walk order
    std::uint32_t slot;
  };
  std::vector<Candidate> order;
  order.reserve(size_);
  for_each_slot([&](std::size_t i) {
    char buf[kMaxKeyArity * 21];
    const std::string_view text = key_text(slot(i), arity_, buf);
    std::uint64_t prefix = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      prefix = prefix << 8 |
               (b < text.size() ? static_cast<unsigned char>(text[b]) : 0u);
    }
    order.push_back({prefix, static_cast<std::uint32_t>(order.size()),
                     static_cast<std::uint32_t>(i)});
  });
  std::nth_element(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(rank),
      order.end(), [&](const Candidate& a, const Candidate& b) {
        if (a.prefix != b.prefix) return a.prefix < b.prefix;
        char abuf[kMaxKeyArity * 21];
        char bbuf[kMaxKeyArity * 21];
        const int by_text = key_text(slot(a.slot), arity_, abuf)
                                .compare(key_text(slot(b.slot), arity_, bbuf));
        return by_text != 0 ? by_text < 0 : a.walk < b.walk;
      });
  return order[rank].slot;
}

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
  const std::size_t victim = canonical_victim(s.pick(size_));
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
  // Each version hashes alone and the hashes add up, so the sum is the
  // same in any install order or slot layout.
  std::uint64_t sum = 0;
  auto add = [&](std::uint64_t h, EpochWindow window, std::uint32_t action,
                 const std::uint64_t* args) {
    fnv_mix(h, window.from);
    fnv_mix(h, window.to);
    fnv_mix(h, action);  // every stored version has a bound action
    const std::size_t n = control_->actions()[action].params.size();
    for (std::size_t i = 0; i < n; ++i) fnv_mix(h, args[i]);
    sum += h;
  };
  if (tcam_) {
    for (const auto& e : tcam_->entries()) {
      std::uint64_t h = kFnvOffset;
      fnv_mix(h, static_cast<std::uint64_t>(e.priority));
      for (const net::TernaryField& f : e.key) {
        fnv_mix(h, f.value);
        fnv_mix(h, f.mask);
      }
      add(h, e.value.window, e.value.action, e.value.args.data());
    }
    return sum;
  }
  for_each_exact([&](const ExactVersion& v) {
    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t word : v.key) fnv_mix(h, word);
    add(h, v.window, v.action, v.args);
  });
  return sum;
}

void RuntimeTable::reserve(std::size_t n) {
  if (tcam_ || n == 0 || slots_for(n) <= slot_count()) return;
  rehash(n - std::min(n, size_));
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
