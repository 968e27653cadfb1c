// Transactional rule updates: batch table writes against the running
// data plane and commit them all-or-nothing. A commit first validates
// every queued op (tables exist, kinds and arities match, capacity is
// available for the whole batch), then applies op by op while keeping
// an undo log; a write that keeps failing after the retry budget — or
// any permanent error — rolls the already-applied prefix back in
// reverse order, leaving the switch byte-identical to its
// pre-transaction state (tests/test_transaction.cpp pins this with
// Snapshot::to_text()).
//
// Transient write errors (sim::TransientWriteError, e.g. from a
// sim::FaultInjector standing in for a flaky switch driver) are
// retried under a seeded-jitter exponential backoff. Backoff is
// simulated (accumulated in the result), never slept, so tests and
// chaos runs stay fast and deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/backoff.hpp"
#include "net/tcam.hpp"
#include "sim/dataplane.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {

/// A batched, all-or-nothing rule update against one data plane.
/// Queue ops, then commit() once; a Transaction is single-use.
/// Like ControlPlane, a table name addresses *every* instance of the
/// table across pipelets (an NF placed in two pipelets keeps its
/// replicas in sync).
class Transaction {
 public:
  /// `injector`, when given, is consulted before every physical write
  /// attempt (the write lane of a sim::FaultPlan). Rollback writes
  /// bypass it: undo capacity is modeled as reserved, so rollback
  /// itself cannot fail.
  explicit Transaction(sim::DataPlane& dp, Backoff retry = {},
                       sim::FaultInjector* injector = nullptr);

  /// Installs take an optional epoch window (default [0, open]): a
  /// live update shadow-installs the next generation with window
  /// [e+1, open] next to the retiring one (§11). Windows overlapping a
  /// different installed version of the same key fail validation.
  void install_exact(std::string table, std::vector<std::uint64_t> key,
                     sim::ActionCall action, sim::EpochWindow window = {});
  /// Control-scoped variants: address one pipelet's instance only
  /// (e.g. a specific ingress pipelet's branching table) instead of
  /// every instance of the name.
  void install_exact_in(std::string control, std::string table,
                        std::vector<std::uint64_t> key,
                        sim::ActionCall action, sim::EpochWindow window = {});
  void remove_exact_in(std::string control, std::string table,
                       std::vector<std::uint64_t> key);
  void install_ternary(std::string table, std::vector<net::TernaryField> key,
                       std::int32_t priority, sim::ActionCall action,
                       sim::EpochWindow window = {});
  void install_lpm(std::string table, std::uint64_t value,
                   std::uint8_t prefix_len, sim::ActionCall action,
                   sim::EpochWindow window = {});
  void remove_exact(std::string table, std::vector<std::uint64_t> key);
  /// Removes the installed ternary entry matching (key, priority)
  /// exactly; validation fails when no such entry exists.
  void remove_ternary(std::string table, std::vector<net::TernaryField> key,
                      std::int32_t priority);
  /// Cap the live version's window at `last_epoch` instead of removing
  /// it — the retiring half of a two-phase update. Validation fails
  /// when no live (open-window) version is installed.
  void retire_exact(std::string table, std::vector<std::uint64_t> key,
                    std::uint32_t last_epoch);
  void retire_exact_in(std::string control, std::string table,
                       std::vector<std::uint64_t> key,
                       std::uint32_t last_epoch);
  void retire_ternary(std::string table, std::vector<net::TernaryField> key,
                      std::int32_t priority, std::uint32_t last_epoch);
  void write_register(std::string control, std::string reg,
                      std::uint64_t index, std::uint64_t value);

  std::size_t size() const { return ops_.size(); }

  struct Result {
    bool committed = false;
    /// Physical write attempts across all ops (>= ops on success).
    std::uint32_t attempts = 0;
    /// Retries after transient failures.
    std::uint32_t retries = 0;
    /// Total simulated backoff.
    std::uint64_t total_backoff_ms = 0;
    /// Ops applied before the failure (== all ops when committed).
    std::size_t applied = 0;
    /// True when a failed commit undid its applied prefix.
    bool rolled_back = false;
    std::string error;

    std::string to_string() const;
  };

  /// Validate, then apply. Throws std::logic_error on re-commit.
  Result commit();

 private:
  enum class OpKind : std::uint8_t {
    kInstallExact,
    kInstallTernary,
    kInstallLpm,
    kRemoveExact,
    kRemoveTernary,
    kRetireExact,
    kRetireTernary,
    kWriteRegister,
  };
  struct Op {
    OpKind kind;
    std::string control;  // empty = every instance of `table`
    std::string table;    // register ops: control block name
    std::string reg;
    std::vector<std::uint64_t> exact_key;
    std::vector<net::TernaryField> ternary_key;
    std::int32_t priority = 0;
    std::uint64_t lpm_value = 0;
    std::uint8_t prefix_len = 0;
    std::uint64_t reg_index = 0;
    std::uint64_t reg_value = 0;
    sim::ActionCall action;
    sim::EpochWindow window;        // installs
    std::uint32_t last_epoch = 0;   // retires

    std::string describe() const;
  };
  struct UndoEntry {
    enum class Kind : std::uint8_t {
      kRemoveExact,      // undo an exact install (that exact version)
      kReinstallExact,   // undo an exact overwrite or removal
      kEraseTernary,     // undo a ternary/LPM install (by handle)
      kReinstallTernary, // undo a ternary removal
      kUnretireExact,    // undo an exact retire (re-open the window)
      kUnretireTernary,  // undo a ternary retire
      kWriteRegister,    // undo a register write
    };
    Kind kind;
    sim::RuntimeTable* target = nullptr;
    std::vector<std::uint64_t> exact_key;
    sim::ActionCall action;
    std::size_t handle = 0;
    std::vector<net::TernaryField> ternary_key;
    std::int32_t priority = 0;
    std::vector<std::uint64_t>* reg_array = nullptr;
    std::uint64_t reg_index = 0;
    std::uint64_t reg_value = 0;
    sim::EpochWindow window;
    std::uint32_t last_epoch = 0;
  };

  /// All-or-nothing pre-flight; empty string == valid.
  std::string validate() const;
  /// The table instances an op addresses (empty = unknown name).
  std::vector<sim::RuntimeTable*> resolve(const Op& op) const;
  /// Apply one op to every instance, appending undo records.
  void apply(const Op& op, std::vector<UndoEntry>& undo);
  void rollback(std::vector<UndoEntry>& undo);

  sim::DataPlane* dp_;
  Backoff retry_;
  sim::FaultInjector* injector_;
  std::vector<Op> ops_;
  bool committed_ = false;
};

}  // namespace dejavu::control
