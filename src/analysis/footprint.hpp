// Per-NF dataflow footprints: every header/metadata field, register
// array, and SFC-context key an NF pipelet reads or writes, with
// provenance back to the primitive/action/table that touches it. The
// footprint is computed on the *pre-merge* NF program, so it captures
// the NF's own semantics and excludes the chaining glue (check_nextNF,
// advance, branching) that merge::compose_program adds around it —
// exactly the view the order-independence criterion (Chowdhary &
// Huang, PAPERS.md) needs.
//
// Post-compose reality the footprint mirrors:
//   * register arrays are qualified per NF ("LB.flow_count"), so two
//     NFs can never share a register array — but the PHV *index*
//     fields they hash into are shared;
//   * header/metadata fields are NOT qualified: "ipv4.dst_addr" or a
//     "local.*" scratch field written by one NF is the same storage a
//     peer reads;
//   * drop/punt flags and the SFC header itself are control effects
//     that gate downstream NFs (the check_nextNF entries key on
//     drop_flag/to_cpu_flag), so they are tracked separately from
//     plain field accesses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "p4ir/program.hpp"

namespace dejavu::analysis {

/// Where a footprint entry came from: which primitive of which action
/// bound to which table (or a pseudo-slot for match keys and apply
/// guards) of which NF.
struct Provenance {
  std::string nf;      // NF program name
  std::string table;   // table name ("" for apply-guard reads)
  std::string action;  // action name ("" for match keys / guards)
  /// Human-readable slot, e.g. "primitive#2 set_imm", "match key",
  /// "apply guard", "register index".
  std::string detail;

  std::string to_string() const;
  bool operator==(const Provenance&) const = default;
};

/// All accesses of one resource, in walk order (apply order, then
/// action order, then primitive order) — deterministic.
using AccessMap = std::map<std::string, std::vector<Provenance>>;

/// The complete read/write footprint of one NF pipelet.
struct Footprint {
  std::string nf;

  /// Plain field accesses. Drop/punt flag writes are *excluded* here
  /// (tracked as control effects below); register index fields and
  /// hash sources count as reads; match keys and guard fields too.
  AccessMap field_reads;
  AccessMap field_writes;

  /// Fields whose every write in this NF is kSetImmediate of one
  /// single value (the write/write same-constant commutativity
  /// exemption). Absent for fields with param/copy/hash writes or
  /// conflicting immediates.
  std::map<std::string, std::uint64_t> constant_writes;

  /// Register arrays, qualified "<nf>.<register>" to mirror
  /// merge::import_nf's qualification.
  AccessMap register_reads;
  AccessMap register_writes;
  /// Qualified register -> the PHV field its accesses index with.
  std::map<std::string, std::set<std::string>> register_index_fields;

  /// SFC context keys written via kSetContext (values come from action
  /// params, so two writers of one key never provably commute).
  std::map<std::uint8_t, std::vector<Provenance>> context_writes;

  /// Control effects.
  std::vector<Provenance> drops;     // kDrop or writes sfc.drop_flag
  std::vector<Provenance> punts;     // writes sfc.to_cpu_flag
  std::vector<Provenance> sfc_push;  // kPushSfc
  std::vector<Provenance> sfc_pop;   // kPopSfc

  bool may_drop() const { return !drops.empty(); }
  bool may_punt() const { return !punts.empty(); }
  bool touches_sfc_header() const;
  bool has_state_effects() const {
    return !register_writes.empty() || !punts.empty();
  }
  /// First provenance recorded for `field` in reads/writes (nullptr
  /// when the footprint never touches it).
  const Provenance* first_read(const std::string& field) const;
  const Provenance* first_write(const std::string& field) const;
};

/// Walk one NF program (exactly one control block, as merge requires)
/// and compute its footprint. Match keys, apply-guard fields, hash
/// sources, register index fields, and kAdd's read-modify-write all
/// count as reads; kSetContext/kDrop/kPushSfc/kPopSfc are routed to
/// their control-effect slots.
Footprint compute_footprint(const p4ir::Program& nf_program);

/// Footprints for a list of NF programs, in the given order.
std::vector<Footprint> compute_footprints(
    const std::vector<const p4ir::Program*>& nf_programs);

/// Stable human-readable footprint table (golden-tested).
std::string footprints_to_text(const std::vector<Footprint>& footprints);
/// Stable JSON rendering (golden-tested).
std::string footprints_to_json(const std::vector<Footprint>& footprints);

/// True for block-local scratch metadata ("local.*" / "meta.*") —
/// the namespaces the dead-write and uninitialized-read checks cover.
bool is_scratch_field(const std::string& field);

/// JSON string escaping shared by every JSON renderer (analysis,
/// verify findings, chaos reports). Control characters become \u00XX.
std::string json_escape(const std::string& s);

}  // namespace dejavu::analysis
