// Workload generation and switch set-up for the benchmark.
//
// Every workload drives the Fig. 2 chain pinned to the Fig. 9 placement
// (every path recirculates once through the loopback pipeline) on the
// compiled engine, with LB.lb_session holding kLbTableSize entries when
// the timed phase starts. All inputs are a pure function of the seed:
// two rigs built from one WorkloadSpec hold identical state, which is
// what lets the correctness gate replay a prefix on an interpreter
// replica and compare packet by packet.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "control/deployment.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "net/packet.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kSteady, kChurn, kCommit };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);

/// splitmix64: small, fast, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
  /// Uniform in [lo, hi].
  std::uint32_t between(std::uint32_t lo, std::uint32_t hi) {
    return lo + below(hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// LB.lb_session entries at the start of every timed phase (preload
/// plus the sessions warm-up learns): 1/8 of the table's 65,536 ceiling.
inline constexpr std::uint32_t kLbTableSize = 8192;

struct FlowSpec {
  dejavu::net::PacketSpec spec;
  std::uint16_t path_id = 0;
  std::uint16_t in_port = 0;
};

/// Everything the seed decides before the switch exists.
struct WorkloadSpec {
  Workload kind = Workload::kSteady;
  std::uint64_t seed = 0;
  std::vector<FlowSpec> flows;  ///< established flows
  std::vector<dejavu::net::Packet> packets;  ///< one ingress frame per flow
  std::vector<std::uint32_t> preload;  ///< LB session hashes preloaded
  /// Every LB session hash in use (preload + established path-1 flows):
  /// new flows and commit batches draw keys outside it.
  std::unordered_set<std::uint32_t> used_hashes;
};

WorkloadSpec make_workload(Workload kind, std::uint64_t seed);

/// One step of the single client's closed loop.
struct Op {
  enum class Kind : std::uint8_t {
    kPacket,       ///< a packet of established flow `flow`
    kNewFlow,      ///< the first packet of a never-seen path-1 flow
    kLegacyCommit, ///< a kLegacyDiff rule batch through the session
    kLiveUpdate,   ///< a hitless update through run_update_via_session
  };
  Kind kind = Kind::kPacket;
  std::uint32_t flow = 0;
  FlowSpec new_flow;  ///< kNewFlow
  /// kNewFlow: the LB session that expires once the new one is learned
  /// (oldest first), so LB.lb_session stays at kLbTableSize.
  std::uint32_t evict_hash = 0;
  dejavu::control::RuleDiff diff;  ///< kLegacyCommit
  bool bypass_lb = false;  ///< kLiveUpdate: bypass (true) or restore
};

/// The workload's op sequence. Deterministic: two streams built from
/// one spec yield the same ops in the same order.
class OpStream {
 public:
  explicit OpStream(const WorkloadSpec& spec);
  Op next();

 private:
  FlowSpec fresh_flow();
  dejavu::control::RuleDiff legacy_batch(std::uint32_t batch, bool install);

  const WorkloadSpec* spec_;
  Rng rng_;
  std::unordered_set<std::uint32_t> used_;
  std::deque<std::uint32_t> expiring_;  ///< preloaded, then learned sessions
  std::uint32_t until_event_ = 0;  ///< packets before the next new flow/commit
  std::uint32_t new_flows_ = 0;
  std::uint32_t commits_ = 0;
  std::uint32_t legacy_ = 0;
  std::uint32_t live_updates_ = 0;
  std::vector<std::vector<dejavu::control::RuleOp>> open_batches_;
};

/// Wall time of each set-up step, seconds.
struct SetupTimes {
  double build_s = 0;
  double explore_s = 0;
  double first_compile_s = 0;
  double preload_s = 0;
  double warmup_s = 0;
  double session_s = 0;
  double total_s = 0;
  std::vector<double> install_us;  ///< one per install_lb_session call
};

/// One switch under test: deployment, compiled engine, and for the
/// commit workload a controller session over a clean channel.
struct Rig {
  std::unique_ptr<dejavu::control::DeploymentTarget> target;
  std::unique_ptr<dejavu::control::SwitchAgent> agent;
  std::unique_ptr<dejavu::control::Channel> channel;
  std::unique_ptr<dejavu::control::Session> session;
  SetupTimes times;

  dejavu::control::Deployment& deployment() {
    return *target->fixture().deployment;
  }
  dejavu::sim::DataPlane& dp() { return deployment().dataplane(); }
  dejavu::control::ControlPlane& control() { return deployment().control(); }
  dejavu::sim::CompiledPipeline& compiled() { return *target->compiled(); }
};

/// Build, explore, compile, preload, warm up (and open the session
/// when the workload commits). Throws std::runtime_error when warm-up
/// does not deliver every packet or learns an unexpected session count.
Rig build_rig(const WorkloadSpec& spec);

/// The routing delta that removes the LB from every chain (bypass) or
/// puts it back (restore), against the switch's live state.
dejavu::control::RuleDiff lb_bypass_diff(dejavu::control::Deployment& dep,
                                         bool bypass);

}  // namespace perfbench
