// The compiled fast path (DESIGN.md §12): lower a deployed chain's
// program — merged parser graph, per-pipelet controls and every action
// their tables can run, resubmit/recirc disposition — into flat
// dispatch arrays executed over a reusable, zero-heap-allocation
// per-packet scratch state. This is the reproduction's stand-in for the
// ASIC's compiled pipeline: the generic interpreter
// (sim::DataPlane::process) re-parses dotted field names and rebuilds
// parse results on every packet; the compiled form resolves all of
// that once, at compile time.
//
// Rules are not lowered. As on the ASIC, where the controller writes a
// table entry once and the compiled pipeline matches against that same
// memory, a table apply calls RuntimeTable::probe — the epoch-filtered,
// hit-counting lookup the interpreter calls — with the packet's epoch,
// and runs the matched action's lowered body over the entry's
// arguments, which the store bound in param order at install time.
//
// Semantics contract: every packet — wire packet or CPU reinjection,
// well-formed or truncated — runs compiled, and its outcome is
// bit-identical to the interpreter's: same SwitchOutput (minus the
// debug trace), same port counters, same register
// side effects, same punt-ledger movement, same per-table hit/miss
// counters, same DropCode attribution, same pass cap. The lowered
// parser walks the merged parser graph the way run_parser does, so no
// parse shape needs to be known in advance. The one escape is a
// program compile() refuses (more than 64 header types, a parser
// graph that does not resolve against its tuple-id table, a field
// wider than 64 bits): then every packet delegates to the interpreter
// and counts as fallback_packets.
// CPU reinjections (from_cpu, stamped with the punt's epoch) run
// compiled like wire packets, as a packet-out re-enters the ASIC's one
// pipeline: every lookup probes under the stamp, so a punt finishes on
// its own generation even after a flip, and DataPlane::stamp_packet
// closes out its punt or drains a retired stamp (kUpdateDrained) for
// both engines.
//
// Bounds contract: one check per header. The lowered parser marks a
// header present only when its whole width lies inside the packet, and
// only an SFC push or pop resizes a packet, each followed at once by a
// re-parse. So key, guard, action and selector reads and writes of a
// field inside a present header run unchecked (read_bits_unchecked /
// write_bits_unchecked), and a field wider than 64 bits refuses the
// compile instead of being tested per packet. The SFC context
// (sfc::set_context) and the IPv4 checksum at emit are edited in
// place, byte-identical to the interpreter's decode and re-encode.
//
// Invalidation contract: the lowered program depends only on the
// program, which a DataPlane never swaps, so it is compiled once (and
// a refused compile stays refused).
// Installs, removals, epoch flips and even silent corruption are seen
// by the next probe with nothing to patch. generation() still moves,
// once, on the first wire packet after the epoch or any read table's
// revision() moved, so callers can tell a rule or generation change
// reached the fast path. A reinjection does not move it: the session
// install it follows and an expiry after it move generation() once,
// on the next wire packet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/dataplane.hpp"

namespace dejavu::sim {

/// Engine observability (perf half — never part of replay counters).
struct CompiledStats {
  std::uint64_t compiled_packets = 0;  ///< wire packets run on the fast path
  std::uint64_t reinjections = 0;  ///< from_cpu / stamped packets run on it
  std::uint64_t fallback_packets = 0;  ///< delegated to the interpreter
  std::uint64_t full_compiles = 0;  ///< successful whole-program lowerings
  std::uint64_t failed_compiles = 0;
};

/// SwitchOutput equality over everything the engines must agree on:
/// emissions, punts, drop code + reason string, epoch, resubmission /
/// recirculation counts and ports. The debug trace is an
/// interpreter-only diagnostic and excluded.
bool semantically_equal(const SwitchOutput& a, const SwitchOutput& b);

/// One compiled engine bound to one DataPlane. Not thread-safe: the
/// scratch state is reused across packets (the zero-allocation hot
/// path), so use one instance per replay worker, like the DataPlane
/// replicas themselves.
class CompiledPipeline {
 public:
  /// Compiles dp's program immediately.
  /// `dp` must outlive the pipeline and keep a stable address.
  explicit CompiledPipeline(DataPlane& dp);

  /// Drop-in replacement for DataPlane::process (same signature, same
  /// observable behavior); delegates to it only when the compile
  /// failed.
  SwitchOutput process(net::Packet packet, std::uint16_t in_port,
                       bool from_cpu = false,
                       std::optional<std::uint32_t> stamp = std::nullopt);

  /// Did the last (re)compile succeed? When false every packet falls
  /// back (still correct, no longer fast).
  bool compiled_ok() const { return compiled_ok_; }
  /// Why not, when it didn't.
  const std::string& compile_error() const { return compile_error_; }

  /// Successful full compiles plus the wire packets that found the
  /// epoch or a read table's revision() moved since the previous one —
  /// the invalidation property tests assert that a committed update
  /// moved this or cleared compiled_ok() (fell back).
  std::uint64_t generation() const { return generation_; }

  /// Force a full compile now; returns compiled_ok().
  bool recompile();

  /// Entries in the lowered action-op arena. It holds the program's
  /// actions only, so installing rules never grows it.
  std::size_t op_arena_size() const { return ops_.size(); }

  const CompiledStats& stats() const { return stats_; }

  DataPlane& dataplane() { return *dp_; }

 private:
  // --- compiled program representation (flat arrays, arena-indexed) ---

  /// Where a resolved field lives. kNone reads nullopt / writes no-op —
  /// the lowered form of an unknown or unparseable dotted reference.
  enum class Space : std::uint8_t { kHeader, kMeta, kLocal, kNone };

  struct FieldRefC {
    Space space = Space::kNone;
    MetaField meta = MetaField::kUnknown;
    std::uint16_t header = 0;  // header-type index
    std::uint32_t bit_off = 0;
    std::uint16_t bits = 0;
    std::uint16_t local_slot = 0;
    /// Writing this field can change what the parser extracts (its
    /// bits overlap a parser selector) — invalidate the cached parse.
    bool affects_parse = false;
  };

  struct OpC {
    p4ir::PrimitiveOp op = p4ir::PrimitiveOp::kNoop;
    FieldRefC dst;
    FieldRefC src;   // kCopy source / register index field
    FieldRefC vsrc;  // kRegisterWrite value source
    std::uint64_t imm = 0;
    std::uint16_t arg = 0;  // kSetFromParam / kSetContext: param slot
    std::uint8_t ctx_key = 0;
    std::vector<std::uint64_t>* reg = nullptr;
    std::uint64_t reg_mask = 0;
    bool reg_index_from_imm = false;
    bool reg_value_from_imm = false;
    bool reg_write_dst = false;  // kRegisterAdd: dst non-empty
    std::uint32_t hash_begin = 0;  // kHash: slice of hash_srcs_
    std::uint32_t hash_count = 0;
  };

  struct HashSrc {
    FieldRefC ref;
    std::uint8_t bytes = 4;
  };

  /// A compiled action body: slice of ops_.
  struct ActionRef {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  struct TableC {
    const RuntimeTable* rt = nullptr;
    std::uint32_t key_begin = 0;  // slice of key_refs_
    std::uint32_t key_count = 0;
  };

  struct EntryC {
    std::uint32_t table = 0;
    std::int32_t branch = -1;  // -1 = unconditional
    bool has_field_guard = false;
    FieldRefC guard_field;
    std::uint64_t guard_value = 0;
    p4ir::GuardCmp guard_cmp = p4ir::GuardCmp::kEq;
    std::uint32_t guard_begin = 0;  // slice of guard_tables_
    std::uint32_t guard_count = 0;
    p4ir::GuardMode mode = p4ir::GuardMode::kAlways;
  };

  struct ControlC {
    bool present = false;
    std::vector<EntryC> entries;
    std::vector<TableC> tables;
    std::vector<ActionRef> bodies;  // by index into the control's actions()
    std::uint32_t branch_count = 0;
  };

  struct ParseEdgeC {
    bool is_default = false;
    FieldRefC select;
    std::uint64_t value = 0;
    std::uint32_t to = 0;  // compiled state index
  };

  struct ParseStateC {
    bool valid = false;  // header type resolved
    std::uint16_t header = 0;
    std::uint32_t offset = 0;
    std::uint32_t width = 0;
    std::uint32_t edge_begin = 0;
    std::uint32_t edge_count = 0;
  };

  /// A table-guard reference: index into the owning control's tables,
  /// or kAbsentTable for a name never applied (always a miss).
  static constexpr std::uint32_t kAbsentTable = 0xffffffff;

  /// One table the lowered program reads, with the revision the
  /// last generation saw.
  struct Watch {
    const RuntimeTable* rt = nullptr;
    std::uint64_t revision = 0;
  };

  // --- compilation ---
  bool compile(std::string* err);
  void compile_control(const p4ir::ControlBlock* cb, ControlC& cc);
  void compile_action(const p4ir::ControlBlock& control,
                      const p4ir::Action& action, ActionRef& out);
  void size_scratch();
  FieldRefC resolve_field(const std::string& dotted);
  FieldRefC resolve_header_field(const std::string& dotted);
  void mark_parse_selectors();
  bool ensure_valid();

  // --- execution (per-packet scratch; single-threaded) ---
  SwitchOutput run(net::Packet packet, std::uint16_t in_port, bool from_cpu,
                   std::optional<std::uint32_t> stamp);
  void run_control(const ControlC& cc, net::Packet& packet,
                   StandardMetadata& meta);
  void run_action(ActionRef ref, const std::uint64_t* args,
                  net::Packet& packet, StandardMetadata& meta);
  void do_emit(net::Packet packet, std::uint16_t port, SwitchOutput& out);
  void run_parse(const net::Packet& packet);
  void ensure_parse(const net::Packet& packet);
  std::optional<std::uint64_t> read_field(const FieldRefC& f,
                                          const net::Packet& packet,
                                          const StandardMetadata& meta);
  void write_field(const FieldRefC& f, std::uint64_t value,
                   net::Packet& packet, StandardMetadata& meta);
  SwitchOutput fall_back(net::Packet packet, std::uint16_t in_port,
                         bool from_cpu, std::optional<std::uint32_t> stamp);

  DataPlane* dp_;
  bool compiled_ok_ = false;
  std::string compile_error_;
  CompiledStats stats_;
  std::uint64_t generation_ = 0;

  // What the last generation saw.
  std::uint32_t seen_epoch_ = 0;
  std::vector<Watch> revisions_;

  // Compiled program.
  std::vector<ControlC> controls_;  // [pipeline * 2 + (kind == egress)]
  std::uint32_t pipelines_ = 0;
  std::vector<ParseStateC> parse_states_;
  std::vector<ParseEdgeC> parse_edges_;
  std::uint32_t parse_start_ = 0;
  bool parser_empty_ = true;
  std::vector<OpC> ops_;
  std::vector<HashSrc> hash_srcs_;
  std::vector<FieldRefC> key_refs_;
  std::vector<std::uint32_t> guard_tables_;
  std::unordered_map<std::string, std::uint16_t> header_index_;
  std::unordered_map<std::string, std::uint16_t> local_index_;
  /// The first resolved header field wider than 64 bits, which refuses
  /// the compile; empty when there is none.
  std::string wide_field_;
  std::int32_t ipv4_header_ = -1;
  std::int32_t sfc_header_ = -1;
  bool sfc_affects_parse_ = false;
  /// Per-header bit ranges the parser's edge selectors read; a write
  /// overlapping one can steer the next parse.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint16_t>>>
      selector_ranges_;

  // Per-packet scratch (reused; no allocation once warmed).
  std::vector<std::uint32_t> hdr_off_;
  std::uint64_t present_ = 0;
  bool parse_dirty_ = true;
  std::vector<std::uint64_t> local_val_;
  std::vector<std::uint32_t> local_stamp_;
  std::vector<std::uint8_t> hit_val_;
  std::vector<std::uint32_t> hit_stamp_;
  std::vector<std::uint32_t> branch_checked_stamp_;
  std::uint32_t pass_token_ = 0;
};

}  // namespace dejavu::sim
