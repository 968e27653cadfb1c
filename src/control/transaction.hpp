// Transactional rule updates: batch table writes against the running
// data plane and commit them all-or-nothing. A Transaction queues
// RuleOps, the one record of a table or register-cell write, and its
// apply() is the only code that turns a RuleOp into store mutations:
// legacy diffs, a live update's shadow, repair staging and session
// reconciles all commit through it.
//
// A commit first validates every queued op against the batch's running
// state: each op is checked against the state the earlier ops of the
// batch leave (tables exist, kinds and arities match, epoch windows do
// not overlap, capacity holds after the removals before it). It then
// applies op by op while keeping an O(diff) undo log; a write that
// keeps failing after the retry budget — or any permanent error —
// rolls the already-applied prefix back in reverse order, leaving the
// switch byte-identical to its pre-transaction state
// (tests/test_transaction.cpp pins this with Snapshot::to_text()).
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
#include "control/journal.hpp"
#include "sim/dataplane.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {

/// The table instances `op` addresses: its control's instance, or every
/// instance of the name when `op.control` is empty (empty = unknown).
std::vector<sim::RuntimeTable*> resolve_op(sim::DataPlane& dp,
                                           const RuleOp& op);

/// The identity of the entry `op` writes within its table: the exact
/// key, or the ternary key and priority. A string, so it can key maps
/// (TernaryField has no ordering).
std::string entry_identity(const RuleOp& op);

/// A batched, all-or-nothing rule update against one data plane.
/// Queue ops, then commit() once; a Transaction is single-use.
/// Like ControlPlane, an op without a control addresses *every*
/// instance of its table across pipelets (an NF placed in two pipelets
/// keeps its replicas in sync); one with a control addresses that
/// pipelet's instance only.
class Transaction {
 public:
  /// `injector`, when given, is consulted before every physical write
  /// attempt (the write lane of a sim::FaultPlan). Rollback writes
  /// bypass it: undo capacity is modeled as reserved, so rollback
  /// itself cannot fail.
  explicit Transaction(sim::DataPlane& dp, Backoff retry = {},
                       sim::FaultInjector* injector = nullptr);

  /// Queue one write. Ops apply in queue order, and the write lane's
  /// fault indices count them from 0. What each does:
  ///   * install — the entry at `op.window` ([0, open] unset). An exact
  ///     install with the window of an installed version overwrites its
  ///     action; a window overlapping a different version of the same
  ///     key (a packet could see two generations) fails validation.
  ///   * removal with `retire_at` — caps the live version's window at
  ///     that epoch; validation fails when no live version old enough
  ///     is installed.
  ///   * other removal — the live exact version, or the first ternary
  ///     version in match order; validation fails when no instance
  ///     holds one. A removal naming `op.window` takes exactly that
  ///     version, and one already gone is a no-op (a reconcile edit).
  ///   * kRegister — writes one register cell.
  void add(RuleOp op) { ops_.push_back(std::move(op)); }

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
  struct UndoEntry {
    enum class Kind : std::uint8_t {
      kRemoveExact,      // undo an exact install (that exact version)
      kReinstallExact,   // undo an exact overwrite or removal
      kEraseTernary,     // undo a ternary install (by handle)
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

  /// All-or-nothing pre-flight against the batch's running state;
  /// empty string == valid.
  std::string validate() const;
  /// Apply one op to every instance, appending undo records.
  void apply(const RuleOp& op, std::vector<UndoEntry>& undo);
  void rollback(std::vector<UndoEntry>& undo);

  sim::DataPlane* dp_;
  Backoff retry_;
  sim::FaultInjector* injector_;
  std::vector<RuleOp> ops_;
  bool committed_ = false;
};

}  // namespace dejavu::control
