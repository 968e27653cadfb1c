#include "sim/runtime_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace dejavu::sim {

namespace {

std::string exact_key_string(const std::vector<std::uint64_t>& key) {
  std::string s;
  for (std::uint64_t v : key) {
    s += std::to_string(v);
    s += '|';
  }
  return s;
}

}  // namespace

RuntimeTable::RuntimeTable(const p4ir::Table& def) : def_(&def) {
  if (def.needs_tcam()) {
    tcam_.emplace(def.keys.size());
  }
}

void RuntimeTable::note_key(const std::vector<std::uint64_t>& key) {
  ++revision_;
  if (log_.empty()) log_.resize(kChangeLogCapacity);
  // assign() reuses the slot's buffer: no allocation once the ring is
  // warm.
  log_[revision_ % kChangeLogCapacity].assign(key.begin(), key.end());
}

void RuntimeTable::note_whole() { whole_at_ = ++revision_; }

void RuntimeTable::add_exact(const std::vector<std::uint64_t>& key,
                             ActionCall action, EpochWindow window) {
  if (tcam_) {
    throw std::invalid_argument("table '" + def_->name +
                                "' is ternary/LPM; use add_ternary/add_lpm");
  }
  if (key.size() != def_->keys.size()) {
    throw std::invalid_argument("key arity mismatch for table '" +
                                def_->name + "'");
  }
  if (!window.well_formed()) {
    throw std::invalid_argument("malformed epoch window for table '" +
                                def_->name + "'");
  }
  const std::string key_string = exact_key_string(key);
  auto it = exact_.find(key_string);
  if (it != exact_.end()) {
    for (ExactEntry& version : it->second) {
      if (version.window == window) {
        version.action = std::move(action);  // reinstall overwrites
        note_key(key);
        return;
      }
      if (version.window.overlaps(window)) {
        throw std::invalid_argument(
            "overlapping epoch window for key in table '" + def_->name +
            "' (a packet could see two generations)");
      }
    }
  }
  if (size_ >= def_->max_entries) {
    throw std::invalid_argument("table '" + def_->name + "' is full (" +
                                std::to_string(def_->max_entries) + ")");
  }
  exact_[key_string].push_back(ExactEntry{key, std::move(action), window});
  ++size_;
  note_key(key);
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
  if (size_ >= def_->max_entries) {
    throw std::invalid_argument("table '" + def_->name + "' is full");
  }
  for (const auto& e : tcam_->entries()) {
    if (e.key == key && e.priority == priority &&
        ternary_window(e.handle).overlaps(window)) {
      throw std::invalid_argument(
          "overlapping epoch window for ternary entry in table '" +
          def_->name + "'");
    }
  }
  const std::size_t handle = tcam_->insert(key, priority, std::move(action));
  if (!window.is_default()) ternary_windows_[handle] = window;
  ++size_;
  note_whole();
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

bool RuntimeTable::remove_exact(const std::vector<std::uint64_t>& key) {
  if (tcam_) return false;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return false;
  auto vit = std::find_if(it->second.begin(), it->second.end(),
                          [](const ExactEntry& e) { return e.window.open(); });
  if (vit == it->second.end()) return false;
  it->second.erase(vit);
  if (it->second.empty()) exact_.erase(it);
  --size_;
  note_key(key);
  return true;
}

bool RuntimeTable::remove_exact_version(const std::vector<std::uint64_t>& key,
                                        EpochWindow window) {
  if (tcam_) return false;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return false;
  auto vit =
      std::find_if(it->second.begin(), it->second.end(),
                   [&](const ExactEntry& e) { return e.window == window; });
  if (vit == it->second.end()) return false;
  it->second.erase(vit);
  if (it->second.empty()) exact_.erase(it);
  --size_;
  note_key(key);
  return true;
}

bool RuntimeTable::retire_exact(const std::vector<std::uint64_t>& key,
                                std::uint32_t last_epoch) {
  if (tcam_) return false;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return false;
  for (ExactEntry& version : it->second) {
    if (version.window.open()) {
      if (last_epoch < version.window.from) return false;
      version.window.to = last_epoch;
      note_key(key);
      return true;
    }
  }
  return false;
}

bool RuntimeTable::unretire_exact(const std::vector<std::uint64_t>& key,
                                  std::uint32_t last_epoch) {
  if (tcam_) return false;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return false;
  for (ExactEntry& version : it->second) {
    if (version.window.to != last_epoch) continue;
    const EpochWindow reopened{version.window.from, kEpochOpen};
    for (const ExactEntry& other : it->second) {
      if (&other != &version && other.window.overlaps(reopened)) return false;
    }
    version.window = reopened;
    note_key(key);
    return true;
  }
  return false;
}

bool RuntimeTable::erase_ternary(std::size_t handle) {
  if (!tcam_) return false;
  if (!tcam_->erase(handle)) return false;
  ternary_windows_.erase(handle);
  --size_;
  note_whole();
  return true;
}

bool RuntimeTable::retire_ternary(std::size_t handle,
                                  std::uint32_t last_epoch) {
  if (!tcam_) return false;
  const auto& entries = tcam_->entries();
  if (std::none_of(entries.begin(), entries.end(), [&](const auto& e) {
        return e.handle == handle;
      })) {
    return false;
  }
  EpochWindow window = ternary_window(handle);
  if (!window.open() || last_epoch < window.from) return false;
  window.to = last_epoch;
  ternary_windows_[handle] = window;
  note_whole();
  return true;
}

bool RuntimeTable::unretire_ternary(std::size_t handle,
                                    std::uint32_t last_epoch) {
  auto it = ternary_windows_.find(handle);
  if (it == ternary_windows_.end() || it->second.to != last_epoch) {
    return false;
  }
  it->second.to = kEpochOpen;
  if (it->second.is_default()) ternary_windows_.erase(it);
  note_whole();
  return true;
}

std::optional<std::size_t> RuntimeTable::find_ternary(
    const std::vector<net::TernaryField>& key, std::int32_t priority) const {
  if (!tcam_) return std::nullopt;
  for (const auto& e : tcam_->entries()) {
    if (e.key == key && e.priority == priority &&
        ternary_window(e.handle).open()) {
      return e.handle;
    }
  }
  return std::nullopt;
}

EpochWindow RuntimeTable::ternary_window(std::size_t handle) const {
  auto it = ternary_windows_.find(handle);
  return it == ternary_windows_.end() ? EpochWindow{} : it->second;
}

std::size_t RuntimeTable::gc(std::uint32_t min_live) {
  std::size_t removed = 0;
  for (auto it = exact_.begin(); it != exact_.end();) {
    auto& versions = it->second;
    const std::size_t before = versions.size();
    versions.erase(std::remove_if(versions.begin(), versions.end(),
                                  [&](const ExactEntry& e) {
                                    return e.window.to < min_live;
                                  }),
                   versions.end());
    removed += before - versions.size();
    it = versions.empty() ? exact_.erase(it) : std::next(it);
  }
  if (tcam_) {
    std::vector<std::size_t> dead;
    for (const auto& [handle, window] : ternary_windows_) {
      if (window.to < min_live) dead.push_back(handle);
    }
    for (std::size_t handle : dead) {
      if (tcam_->erase(handle)) ++removed;
      ternary_windows_.erase(handle);
    }
  }
  size_ -= removed;
  if (removed > 0) note_whole();
  return removed;
}

const std::vector<RuntimeTable::ExactEntry>* RuntimeTable::exact_versions(
    const std::vector<std::uint64_t>& key) const {
  if (tcam_) return nullptr;
  auto it = exact_.find(exact_key_string(key));
  return it == exact_.end() ? nullptr : &it->second;
}

const RuntimeTable::ExactEntry* RuntimeTable::find_exact(
    const std::vector<std::uint64_t>& key) const {
  if (tcam_) return nullptr;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return nullptr;
  for (const ExactEntry& version : it->second) {
    if (version.window.open()) return &version;
  }
  return nullptr;
}

const RuntimeTable::ExactEntry* RuntimeTable::find_exact(
    const std::vector<std::uint64_t>& key, std::uint32_t epoch) const {
  if (tcam_) return nullptr;
  auto it = exact_.find(exact_key_string(key));
  if (it == exact_.end()) return nullptr;
  for (const ExactEntry& version : it->second) {
    if (version.window.contains(epoch)) return &version;
  }
  return nullptr;
}

LookupResult RuntimeTable::lookup(
    const std::vector<std::optional<std::uint64_t>>& key,
    std::uint32_t epoch) const {
  LookupResult result;
  result.action.action = def_->default_action;

  auto count = [&](LookupResult r) {
    (r.hit ? hits_ : misses_) += 1;
    return r;
  };

  // Keyless tables always "run" their default action but count as a
  // hit for gating purposes (const default_action in Fig. 4).
  if (def_->keyless()) {
    result.hit = true;
    return count(result);
  }

  // A missing packet field can never match.
  std::vector<std::uint64_t> values;
  values.reserve(key.size());
  for (const auto& v : key) {
    if (!v) return count(result);
    values.push_back(*v);
  }

  if (tcam_) {
    // Priority-ordered scan skipping entries outside the packet's
    // epoch (the TCAM's own lookup() is epoch-blind).
    for (const auto& e : tcam_->entries()) {
      if (!ternary_window(e.handle).contains(epoch)) continue;
      bool hit = true;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (!e.key[i].matches(values[i])) {
          hit = false;
          break;
        }
      }
      if (hit) {
        result.hit = true;
        result.action = e.value;
        break;
      }
    }
    return count(result);
  }

  if (const ExactEntry* entry = find_exact(values, epoch)) {
    result.hit = true;
    result.action = entry->action;
  }
  return count(result);
}

std::vector<RuntimeTable::ExactEntry> RuntimeTable::exact_entries() const {
  std::vector<ExactEntry> out;
  out.reserve(size_);
  for_each_exact([&](const ExactEntry& e) { out.push_back(e); });
  return out;
}

const std::vector<net::Tcam<ActionCall>::Entry>&
RuntimeTable::ternary_entries() const {
  static const std::vector<net::Tcam<ActionCall>::Entry> kEmpty;
  return tcam_ ? tcam_->entries() : kEmpty;
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

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

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
  auto flip_action = [&](ActionCall& action, EpochWindow& window) -> bool {
    if (action.args.empty()) {
      flip_window(window);
      return false;
    }
    auto it = action.args.begin();
    std::advance(it, s.pick(action.args.size()));
    it->second ^= 1ULL << s.pick(64);
    return true;
  };

  if (tcam_) {
    if (tcam_->entries().empty()) return "";
    // Victim pick over the stored (priority-ordered, history-stable)
    // entry list: deterministic for replicas with identical installs.
    const auto& victim =
        tcam_->entries()[s.pick(tcam_->entries().size())];
    const std::size_t handle = victim.handle;
    net::Tcam<ActionCall>::Entry* e = tcam_->mutable_entry(handle);
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
        EpochWindow w = ternary_window(handle);
        const bool in_args = flip_action(e->value, w);
        if (!in_args) ternary_windows_[handle] = w;
        return where + (in_args ? " action data flipped"
                                : " window flipped (no action data)");
      }
      case CorruptKind::kWindowFlip: {
        EpochWindow w = ternary_window(handle);
        flip_window(w);
        ternary_windows_[handle] = w;
        return where + " window flipped";
      }
      case CorruptKind::kDelete: {
        tcam_->erase(handle);
        ternary_windows_.erase(handle);
        --size_;
        return where + " entry deleted";
      }
      case CorruptKind::kDuplicate: {
        // The ghost must differ in priority: snapshot_diff addresses
        // ternary entries by (key, priority, window), and an identical
        // twin would collapse into its original and be unrepairable.
        const auto key_copy = e->key;
        const auto value_copy = e->value;
        const EpochWindow w = ternary_window(handle);
        std::int32_t prio = e->priority + 1 + static_cast<std::int32_t>(s.pick(3));
        auto taken = [&](std::int32_t p) {
          for (const auto& other : tcam_->entries()) {
            if (other.key == key_copy && other.priority == p) return true;
          }
          return false;
        };
        while (taken(prio)) ++prio;
        const std::size_t dup = tcam_->insert(key_copy, prio, value_copy);
        if (!w.is_default()) ternary_windows_[dup] = w;
        ++size_;
        return where + " duplicated at prio=" + std::to_string(prio);
      }
    }
    return "";
  }

  if (exact_.empty()) return "";
  // Canonical victim order: sorted key strings, then version position —
  // independent of the unordered_map's bucket layout.
  std::vector<const std::string*> keys;
  keys.reserve(exact_.size());
  for (const auto& [ks, versions] : exact_) keys.push_back(&ks);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::size_t total = 0;
  for (const std::string* ks : keys) total += exact_.at(*ks).size();
  std::size_t pick = s.pick(total);
  const std::string* victim_key = nullptr;
  std::size_t version_index = 0;
  for (const std::string* ks : keys) {
    const std::size_t n = exact_.at(*ks).size();
    if (pick < n) {
      victim_key = ks;
      version_index = pick;
      break;
    }
    pick -= n;
  }
  auto node = exact_.find(*victim_key);
  ExactEntry& entry = node->second[version_index];
  const std::string where = "exact '" + def_->name + "'";

  switch (kind) {
    case CorruptKind::kKeyFlip: {
      // The flipped key lives in a different hash bucket: move the
      // version under its new key string, like the SRAM row now
      // matching different traffic. Scan from the seeded bit to the
      // first flip that does not land on an installed (key, window)
      // twin — an aliased version would be unaddressable by
      // snapshot_diff (same rationale as kDuplicate below).
      ExactEntry moved = entry;
      node->second.erase(node->second.begin() +
                         static_cast<std::ptrdiff_t>(version_index));
      if (node->second.empty()) exact_.erase(node);
      const std::size_t component = s.pick(moved.key.size());
      const std::size_t start = s.pick(64);
      std::string nks;
      for (std::size_t n = 0; n < 64; ++n) {
        const std::uint64_t mask = 1ULL << ((start + n) % 64);
        moved.key[component] ^= mask;
        nks = exact_key_string(moved.key);
        auto twin = exact_.find(nks);
        bool collides = false;
        if (twin != exact_.end()) {
          for (const ExactEntry& v : twin->second) {
            if (v.window == moved.window) {
              collides = true;
              break;
            }
          }
        }
        if (!collides) break;
        moved.key[component] ^= mask;
      }
      exact_[nks].push_back(std::move(moved));
      return where + " key bit flipped";
    }
    case CorruptKind::kActionFlip: {
      const bool in_args = flip_action(entry.action, entry.window);
      return where + (in_args ? " action data flipped"
                              : " window flipped (no action data)");
    }
    case CorruptKind::kWindowFlip: {
      flip_window(entry.window);
      return where + " window flipped " + window_text(entry.window);
    }
    case CorruptKind::kDelete: {
      node->second.erase(node->second.begin() +
                         static_cast<std::ptrdiff_t>(version_index));
      if (node->second.empty()) exact_.erase(node);
      --size_;
      return where + " entry deleted";
    }
    case CorruptKind::kDuplicate: {
      // Perturb the ghost's window until it differs from every
      // installed version of the key: snapshot_diff addresses exact
      // versions by (key, window), so an identical twin would collapse
      // into its original and be unrepairable.
      ExactEntry ghost = entry;
      std::uint32_t bump = 1 + static_cast<std::uint32_t>(s.pick(3));
      auto taken = [&](const EpochWindow& w) {
        for (const ExactEntry& v : node->second) {
          if (v.window == w) return true;
        }
        return false;
      };
      do {
        ghost.window.from = entry.window.from + bump;
        ++bump;
      } while (taken(ghost.window));
      node->second.push_back(std::move(ghost));
      ++size_;
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
    std::vector<const net::Tcam<ActionCall>::Entry*> entries;
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
                const EpochWindow wa = ternary_window(a->handle);
                const EpochWindow wb = ternary_window(b->handle);
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
      const EpochWindow w = ternary_window(e->handle);
      fnv_mix(h, w.from);
      fnv_mix(h, w.to);
      fnv_mix_action(h, e->value);
    }
    return h;
  }
  std::vector<const ExactEntry*> entries;
  entries.reserve(size_);
  for (const auto& [ks, versions] : exact_) {
    for (const ExactEntry& v : versions) entries.push_back(&v);
  }
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    return std::tie(a->key, a->window.from, a->window.to) <
           std::tie(b->key, b->window.from, b->window.to);
  });
  for (const ExactEntry* e : entries) {
    for (std::uint64_t v : e->key) fnv_mix(h, v);
    fnv_mix(h, e->window.from);
    fnv_mix(h, e->window.to);
    fnv_mix_action(h, e->action);
  }
  return h;
}

void RuntimeTable::clear() {
  exact_.clear();
  if (tcam_) tcam_.emplace(def_->keys.size());
  ternary_windows_.clear();
  size_ = 0;
  note_whole();
}

}  // namespace dejavu::sim
