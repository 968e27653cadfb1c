// Parallel traffic replay: drive real packet streams through the
// behavioral DataPlane on N host threads and cross-check the paper's
// §4 claim that chain throughput is *calculable* after placement.
//
// Parallelism model — flow sharding. Distinct flows are independent
// (the NF-parallelism observation of "SDN based Network Function
// Parallelism in Cloud"): every per-flow effect in the switch (LB
// session learning, per-flow register cells) is keyed by the flow's
// own identity. So each worker thread owns a *private* replica of the
// switch under test (same composed program, same installed rules) and
// processes the flows whose FiveTuple hash lands in its shard. No
// locks, no shared mutable state; workers only meet at the final
// merge.
//
// Determinism contract: the merged ReplayCounters are a pure function
// of the flow set and the target — identical for any worker count,
// batch size, or injection order — because (a) a flow's packets always
// hit the same private replica in injection order, and (b) the merge
// is a sum/union over order-independent, worker-independent values.
// Cross-flow state that *steers* packets (e.g. two flows colliding in
// one session-hash slot) is the one thing that can break the
// contract; the differential tests in tests/test_replay_determinism.cpp
// pin it down.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/dataplane.hpp"
#include "sim/throughput.hpp"
#include "sim/workload.hpp"

namespace dejavu::sim {

/// Which execution engine a replay target drives packets through.
/// Both produce bit-identical ReplayCounters (the differential suite's
/// oracle, ctest -L compiled); they differ only in speed and in the
/// perf-side compiled/fallback tallies.
enum class EngineKind : std::uint8_t {
  kInterpreter,  ///< the generic DataPlane::process walk
  kCompiled,     ///< sim::CompiledPipeline with interpreter fallback
};

/// One flow to replay, labeled with the chain path the caller expects
/// it to take (for per-path statistics) and its ingress port.
struct ReplayFlow {
  Flow flow;
  std::uint16_t in_port = 0;
  std::uint16_t path_id = 0;
};

/// Tag `generate_flows(mix)` output for replay on one chain path.
std::vector<ReplayFlow> make_path_flows(const FlowMix& mix,
                                        std::uint16_t path_id,
                                        std::uint16_t in_port = 0);

/// One worker's private copy of the switch under test. The engine
/// builds `workers` of them via a TargetFactory; a target is only ever
/// touched by its owning worker thread.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;
  /// Inject one packet and run it to completion (implementations may
  /// service CPU punts, i.e. behave as dataplane + control plane).
  virtual SwitchOutput inject(net::Packet packet, std::uint16_t in_port) = 0;
  /// The behavioral switch, for port counters and pipeline lookups.
  virtual DataPlane& dataplane() = 0;

  /// Select the execution engine. The base implementation knows only
  /// the interpreter, so kCompiled is a silent no-op — a target that
  /// cannot compile stays correct, just not fast. Overriders must keep
  /// the merged counters engine-independent.
  virtual void set_engine(EngineKind) {}
  virtual EngineKind engine() const { return EngineKind::kInterpreter; }
  /// Cumulative engine tallies since construction (perf side only —
  /// ReplayEngine::run reports per-run deltas). A pure-interpreter
  /// target reports zero for both.
  virtual std::uint64_t compiled_packets() const { return 0; }
  virtual std::uint64_t fallback_packets() const { return 0; }
};

/// Builds worker `index`'s private target. Must be safe to call from
/// the engine's setup phase (single-threaded, in worker order).
using TargetFactory =
    std::function<std::unique_ptr<ReplayTarget>(std::uint32_t index)>;

/// A bare-DataPlane target: processes packets with no CPU behind the
/// switch (punts are counted, not serviced). `setup` installs rules
/// into the private replica.
class DataPlaneTarget : public ReplayTarget {
 public:
  DataPlaneTarget(const p4ir::Program& program, const p4ir::TupleIdTable& ids,
                  asic::SwitchConfig config,
                  const std::function<void(DataPlane&)>& setup = {});

  SwitchOutput inject(net::Packet packet, std::uint16_t in_port) override;
  DataPlane& dataplane() override { return dp_; }

  /// kCompiled builds (or reuses) a CompiledPipeline over the private
  /// replica; a program it refuses falls back to the interpreter
  /// inside the pipeline, so inject() behavior is engine-independent.
  void set_engine(EngineKind kind) override;
  EngineKind engine() const override { return engine_; }
  std::uint64_t compiled_packets() const override;
  std::uint64_t fallback_packets() const override;

  /// The live compiled engine, or nullptr while on the interpreter
  /// (exposed for generation()/stats() assertions in tests).
  CompiledPipeline* compiled() { return compiled_.get(); }

 private:
  DataPlane dp_;
  std::unique_ptr<CompiledPipeline> compiled_;
  EngineKind engine_ = EngineKind::kInterpreter;
};

struct ReplayConfig {
  std::uint32_t workers = 1;
  /// Engine every worker target is switched to before the timed phase.
  /// Changes speed and the report's compiled/fallback tallies, never
  /// the merged ReplayCounters.
  EngineKind engine = EngineKind::kInterpreter;
  std::uint32_t packets_per_flow = 1;
  /// Packets of one flow injected back-to-back before the worker moves
  /// on to its next flow. Affects only interleaving, never the merged
  /// counters.
  std::uint32_t batch = 16;
  /// When set, each worker visits its shard in a shuffled order
  /// (seeded with shuffle_seed ^ worker index). Again: interleaving
  /// only; the merged counters must not change.
  std::optional<std::uint64_t> shuffle_seed;

  /// Concurrent-update replay (§11): fire a reconfiguration mid-stream
  /// and assert per-packet consistency. The flip point is keyed on the
  /// per-flow packet index — every flow sees exactly `at_packet`
  /// packets on the old generation — so the merged counters (including
  /// packets_by_epoch) stay bit-identical across worker counts.
  struct ReplayUpdate {
    /// Per-flow packet index at which the update is applied (clamped
    /// to packets_per_flow).
    std::uint32_t at_packet = 0;
    /// Applies the update to one worker's private replica. Called once
    /// per worker, on that worker's thread, between the two replay
    /// segments; its duration lands in WorkerStats::update_seconds.
    std::function<void(ReplayTarget&, std::uint32_t worker)> apply;
  };
  std::optional<ReplayUpdate> update;
};

/// Per-path slice of the merged counters.
struct PathCounters {
  std::uint64_t offered = 0;    ///< packets injected
  std::uint64_t delivered = 0;  ///< packets with >= 1 front-panel emission
  std::uint64_t dropped = 0;
  std::uint64_t punted = 0;  ///< packets that ended (partly) at the CPU
  std::uint64_t recirculations = 0;
  std::uint64_t resubmissions = 0;
  /// Steady-state recirculation pipeline sequence of the path,
  /// attributed to the delivered flow with the highest session hash —
  /// a worker-count-independent pick, since that flow lives on exactly
  /// one worker under any sharding.
  std::vector<std::uint32_t> loop_pipelines;
  std::uint32_t canon_flow_hash = 0;

  double delivery_fraction() const {
    return offered > 0 ? static_cast<double>(delivered) / offered : 1.0;
  }

  bool operator==(const PathCounters&) const = default;
};

/// The deterministic half of a replay's result: everything here is
/// bit-identical across worker counts / batch sizes / orders.
struct ReplayCounters {
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  std::uint64_t emitted = 0;  ///< total emissions (mirror copies count)
  std::uint64_t dropped = 0;
  std::uint64_t punted = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t resubmissions = 0;
  std::map<std::string, std::uint64_t> drop_reasons;
  std::map<std::uint16_t, DataPlane::PortCounters> ports;
  std::map<std::uint16_t, PathCounters> per_path;
  /// Packets by the epoch stamp their lookups ran under — under a
  /// concurrent update, every packet is attributable to exactly one
  /// generation (§11 per-packet consistency).
  std::map<std::uint32_t, std::uint64_t> packets_by_epoch;

  bool operator==(const ReplayCounters&) const = default;
};

/// The perf half: wall-clock and per-worker timings (never compared).
struct WorkerStats {
  std::uint32_t worker = 0;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  double busy_seconds = 0;
  /// Time spent applying the mid-stream update (flip latency), when
  /// ReplayConfig::update is set.
  double update_seconds = 0;

  double pps() const { return busy_seconds > 0 ? packets / busy_seconds : 0; }
};

struct ReplayReport {
  ReplayCounters counters;
  std::vector<WorkerStats> workers;
  double wall_seconds = 0;
  /// Engine this run used, plus per-run engine tallies (perf side,
  /// deliberately outside ReplayCounters so the determinism oracle
  /// compares counters across engines). Interpreter runs report all
  /// packets as fallback-free interpreter work: both tallies zero.
  EngineKind engine = EngineKind::kInterpreter;
  std::uint64_t compiled_packets = 0;  ///< ran fully on the fast path
  std::uint64_t fallback_packets = 0;  ///< escaped to the interpreter

  double packets_per_second() const {
    return wall_seconds > 0 ? counters.packets / wall_seconds : 0;
  }
  std::string to_table() const;
};

/// The engine. Targets are built lazily (one per worker, serially, via
/// the factory) and kept warm across run() calls, so benches can
/// measure the replay phase alone; port counters are reset at the
/// start of every run.
class ReplayEngine {
 public:
  explicit ReplayEngine(TargetFactory factory)
      : factory_(std::move(factory)) {}

  ReplayReport run(const std::vector<ReplayFlow>& flows,
                   const ReplayConfig& config = {});

 private:
  TargetFactory factory_;
  std::vector<std::unique_ptr<ReplayTarget>> targets_;
};

/// One-shot convenience: cold engine, single run.
ReplayReport run_replay(const TargetFactory& factory,
                        const std::vector<ReplayFlow>& flows,
                        const ReplayConfig& config = {});

/// Feed replay measurements to the fluid solver: per-path offered
/// gbps from the measured packet shares, loop demands from the
/// measured steady-state recirculation sequences, then scale each
/// path's fluid delivery by its behavioral delivery fraction (packets
/// the switch itself dropped or left at the CPU are gone regardless
/// of recirculation capacity). Comparable to estimate_throughput on
/// the same deployment.
ThroughputReport replay_throughput(const ReplayReport& report,
                                   const asic::SwitchConfig& config,
                                   double total_offered_gbps);

}  // namespace dejavu::sim
