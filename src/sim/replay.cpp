#include "sim/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>

#include "verify/verify.hpp"

namespace dejavu::sim {

std::vector<ReplayFlow> make_path_flows(const FlowMix& mix,
                                        std::uint16_t path_id,
                                        std::uint16_t in_port) {
  std::vector<ReplayFlow> out;
  for (Flow& flow : generate_flows(mix)) {
    out.push_back(ReplayFlow{std::move(flow), in_port, path_id});
  }
  return out;
}

DataPlaneTarget::DataPlaneTarget(const p4ir::Program& program,
                                 const p4ir::TupleIdTable& ids,
                                 asic::SwitchConfig config,
                                 const std::function<void(DataPlane&)>& setup)
    : dp_(program, ids, std::move(config)) {
  // Front-of-setup verification: replaying against a program with VLIW
  // hazards or parser ambiguity produces silently wrong counters, so
  // reject such targets with named diagnostics instead.
  verify::VerifyInput vin;
  vin.program = &program;
  vin.ids = &ids;
  vin.config = &dp_.config();
  const verify::Report report = verify::run_all(vin);
  if (!report.ok()) {
    throw std::runtime_error("chain verifier rejected the replay target:\n" +
                             report.to_string());
  }
  if (setup) setup(dp_);
}

SwitchOutput DataPlaneTarget::inject(net::Packet packet,
                                     std::uint16_t in_port) {
  if (engine_ == EngineKind::kCompiled && compiled_) {
    return compiled_->process(std::move(packet), in_port);
  }
  return dp_.process(std::move(packet), in_port);
}

void DataPlaneTarget::set_engine(EngineKind kind) {
  engine_ = kind;
  if (kind == EngineKind::kCompiled && !compiled_) {
    compiled_ = std::make_unique<CompiledPipeline>(dp_);
  }
}

std::uint64_t DataPlaneTarget::compiled_packets() const {
  return compiled_ ? compiled_->stats().compiled_packets : 0;
}

std::uint64_t DataPlaneTarget::fallback_packets() const {
  return compiled_ ? compiled_->stats().fallback_packets : 0;
}

namespace {

/// Merge `from` into `into`. Every operand is itself deterministic, so
/// order of merging never shows in the result (sums and keyed unions
/// commute; the canonical loop sequence is keyed by max flow hash).
void merge_counters(ReplayCounters& into, const ReplayCounters& from) {
  into.packets += from.packets;
  into.delivered += from.delivered;
  into.emitted += from.emitted;
  into.dropped += from.dropped;
  into.punted += from.punted;
  into.recirculations += from.recirculations;
  into.resubmissions += from.resubmissions;
  for (const auto& [reason, n] : from.drop_reasons) {
    into.drop_reasons[reason] += n;
  }
  for (const auto& [epoch, n] : from.packets_by_epoch) {
    into.packets_by_epoch[epoch] += n;
  }
  for (const auto& [port, pc] : from.ports) into.ports[port] += pc;
  for (const auto& [path, pc] : from.per_path) {
    PathCounters& p = into.per_path[path];
    p.offered += pc.offered;
    p.delivered += pc.delivered;
    p.dropped += pc.dropped;
    p.punted += pc.punted;
    p.recirculations += pc.recirculations;
    p.resubmissions += pc.resubmissions;
    if (pc.canon_flow_hash > p.canon_flow_hash ||
        (pc.canon_flow_hash == p.canon_flow_hash &&
         pc.loop_pipelines < p.loop_pipelines)) {
      p.canon_flow_hash = pc.canon_flow_hash;
      p.loop_pipelines = pc.loop_pipelines;
    }
  }
}

/// One worker's whole job: replay its shard of flows against its
/// private target. Runs on the worker's thread; touches nothing
/// shared.
/// `[from_pkt, to_pkt)` bounds each flow's packet indices — a
/// concurrent-update replay runs [0, at) on the old generation,
/// applies the update, then runs [at, per_flow). Port counters are
/// only collected on the final segment (they accumulate in the
/// dataplane across segments).
ReplayCounters replay_shard(ReplayTarget& target,
                            const std::vector<ReplayFlow>& flows,
                            const std::vector<std::uint32_t>& shard,
                            const ReplayConfig& config,
                            std::uint32_t from_pkt, std::uint32_t to_pkt,
                            bool collect_ports) {
  ReplayCounters c;
  const std::uint32_t batch = std::max(1u, config.batch);

  for (std::uint32_t done = from_pkt; done < to_pkt; done += batch) {
    const std::uint32_t burst = std::min(batch, to_pkt - done);
    for (const std::uint32_t index : shard) {
      const ReplayFlow& rf = flows[index];
      const std::uint32_t hash = rf.flow.tuple().session_hash();
      for (std::uint32_t k = 0; k < burst; ++k) {
        SwitchOutput out = target.inject(rf.flow.packet(), rf.in_port);

        ++c.packets;
        ++c.packets_by_epoch[out.epoch];
        PathCounters& p = c.per_path[rf.path_id];
        ++p.offered;
        if (!out.out.empty()) {
          ++c.delivered;
          ++p.delivered;
        }
        c.emitted += out.out.size();
        if (out.dropped) {
          ++c.dropped;
          ++p.dropped;
          ++c.drop_reasons[out.drop_reason];
        }
        if (!out.to_cpu.empty()) {
          ++c.punted;
          ++p.punted;
        }
        c.recirculations += out.recirculations;
        p.recirculations += out.recirculations;
        c.resubmissions += out.resubmissions;
        p.resubmissions += out.resubmissions;

        if (!out.out.empty() && hash >= p.canon_flow_hash) {
          p.canon_flow_hash = hash;
          p.loop_pipelines.clear();
          for (const std::uint16_t port : out.recirc_ports) {
            p.loop_pipelines.push_back(target.dataplane().pipeline_of(port));
          }
        }
      }
    }
  }

  if (collect_ports) {
    for (const auto& [port, pc] : target.dataplane().all_port_counters()) {
      c.ports[port] += pc;
    }
  }
  return c;
}

}  // namespace

ReplayReport ReplayEngine::run(const std::vector<ReplayFlow>& flows,
                               const ReplayConfig& config) {
  const std::uint32_t workers = std::max(1u, config.workers);

  // Setup phase (untimed): build missing targets, reset counters,
  // shard the flows by FiveTuple hash so a flow's packets always meet
  // the same private switch replica.
  if (targets_.size() < workers) targets_.resize(workers);
  std::vector<std::uint64_t> pre_compiled(workers), pre_fallback(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    if (!targets_[w]) targets_[w] = factory_(w);
    targets_[w]->set_engine(config.engine);
    targets_[w]->dataplane().reset_counters();
    // Per-run engine tallies are deltas against these warm-target
    // baselines (the engine keeps targets across run() calls).
    pre_compiled[w] = targets_[w]->compiled_packets();
    pre_fallback[w] = targets_[w]->fallback_packets();
  }

  std::vector<std::vector<std::uint32_t>> shards(workers);
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    shards[flows[i].flow.tuple().session_hash() % workers].push_back(i);
  }
  if (config.shuffle_seed) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      std::mt19937_64 rng(*config.shuffle_seed ^
                          (0x9e3779b97f4a7c15ULL * (w + 1)));
      std::shuffle(shards[w].begin(), shards[w].end(), rng);
    }
  }

  // Replay phase (timed).
  ReplayReport report;
  report.workers.resize(workers);
  std::vector<ReplayCounters> partial(workers);
  const auto wall_start = std::chrono::steady_clock::now();

  const std::uint32_t per_flow = std::max(1u, config.packets_per_flow);
  const std::uint32_t flip_at =
      config.update ? std::min(config.update->at_packet, per_flow) : per_flow;

  auto work = [&](std::uint32_t w) {
    const auto start = std::chrono::steady_clock::now();
    WorkerStats& stats = report.workers[w];
    if (config.update) {
      // Old generation up to the flip point, per flow...
      partial[w] = replay_shard(*targets_[w], flows, shards[w], config, 0,
                                flip_at, /*collect_ports=*/false);
      // ...the reconfiguration itself (timed: this is the window a
      // hitless update must survive)...
      const auto flip_start = std::chrono::steady_clock::now();
      if (config.update->apply) config.update->apply(*targets_[w], w);
      stats.update_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        flip_start)
              .count();
      // ...and the rest of every flow on whatever the update left live.
      merge_counters(partial[w],
                     replay_shard(*targets_[w], flows, shards[w], config,
                                  flip_at, per_flow, /*collect_ports=*/true));
    } else {
      partial[w] = replay_shard(*targets_[w], flows, shards[w], config, 0,
                                per_flow, /*collect_ports=*/true);
    }
    const auto end = std::chrono::steady_clock::now();
    stats.worker = w;
    stats.flows = shards[w].size();
    stats.packets = partial[w].packets;
    stats.busy_seconds = std::chrono::duration<double>(end - start).count();
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (std::thread& t : threads) t.join();
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  for (const ReplayCounters& c : partial) merge_counters(report.counters, c);
  report.engine = config.engine;
  for (std::uint32_t w = 0; w < workers; ++w) {
    report.compiled_packets += targets_[w]->compiled_packets() -
                               pre_compiled[w];
    report.fallback_packets += targets_[w]->fallback_packets() -
                               pre_fallback[w];
  }
  return report;
}

ReplayReport run_replay(const TargetFactory& factory,
                        const std::vector<ReplayFlow>& flows,
                        const ReplayConfig& config) {
  ReplayEngine engine(factory);
  return engine.run(flows, config);
}

std::string ReplayReport::to_table() const {
  std::string s;
  char buf[192];
  const ReplayCounters& c = counters;
  std::snprintf(buf, sizeof(buf),
                "replayed %llu packets: %llu delivered, %llu dropped, "
                "%llu punted, %llu recirculations, %llu resubmissions\n",
                static_cast<unsigned long long>(c.packets),
                static_cast<unsigned long long>(c.delivered),
                static_cast<unsigned long long>(c.dropped),
                static_cast<unsigned long long>(c.punted),
                static_cast<unsigned long long>(c.recirculations),
                static_cast<unsigned long long>(c.resubmissions));
  s += buf;
  for (const auto& [reason, n] : c.drop_reasons) {
    std::snprintf(buf, sizeof(buf), "  drop '%s': %llu\n", reason.c_str(),
                  static_cast<unsigned long long>(n));
    s += buf;
  }
  if (c.packets_by_epoch.size() > 1 ||
      (c.packets_by_epoch.size() == 1 &&
       c.packets_by_epoch.begin()->first != 0)) {
    for (const auto& [epoch, n] : c.packets_by_epoch) {
      std::snprintf(buf, sizeof(buf), "  epoch %u: %llu packets\n", epoch,
                    static_cast<unsigned long long>(n));
      s += buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%-6s %-9s %-10s %-8s %-8s %-12s %-9s\n",
                "path", "offered", "delivered", "dropped", "punted",
                "recircs/pkt", "fraction");
  s += buf;
  for (const auto& [path, p] : c.per_path) {
    std::snprintf(buf, sizeof(buf),
                  "%-6u %-9llu %-10llu %-8llu %-8llu %-12.2f %-9.3f\n", path,
                  static_cast<unsigned long long>(p.offered),
                  static_cast<unsigned long long>(p.delivered),
                  static_cast<unsigned long long>(p.dropped),
                  static_cast<unsigned long long>(p.punted),
                  p.offered > 0
                      ? static_cast<double>(p.recirculations) / p.offered
                      : 0.0,
                  p.delivery_fraction());
    s += buf;
  }
  std::snprintf(buf, sizeof(buf), "%zu workers, %.3f s wall, %.0f pps\n",
                workers.size(), wall_seconds, packets_per_second());
  s += buf;
  if (engine == EngineKind::kCompiled) {
    std::snprintf(buf, sizeof(buf),
                  "engine compiled: %llu fast-path, %llu fallback\n",
                  static_cast<unsigned long long>(compiled_packets),
                  static_cast<unsigned long long>(fallback_packets));
    s += buf;
  }
  for (const WorkerStats& w : workers) {
    std::snprintf(buf, sizeof(buf),
                  "  worker %u: %llu flows, %llu packets, %.3f s busy, "
                  "%.0f pps\n",
                  w.worker, static_cast<unsigned long long>(w.flows),
                  static_cast<unsigned long long>(w.packets), w.busy_seconds,
                  w.pps());
    s += buf;
  }
  return s;
}

ThroughputReport replay_throughput(const ReplayReport& report,
                                   const asic::SwitchConfig& config,
                                   double total_offered_gbps) {
  const ReplayCounters& c = report.counters;
  std::vector<PathDemand> demands;
  for (const auto& [path, p] : c.per_path) {
    PathDemand d;
    d.path_id = path;
    d.offered_gbps = c.packets > 0 ? total_offered_gbps *
                                         static_cast<double>(p.offered) /
                                         static_cast<double>(c.packets)
                                   : 0;
    d.loop_pipelines = p.loop_pipelines;
    demands.push_back(std::move(d));
  }
  ThroughputReport out = solve_fluid_throughput(demands, config);
  out.total_offered_gbps = total_offered_gbps;
  out.total_delivered_gbps = 0;
  for (ChainThroughput& ct : out.per_path) {
    // Behavioral losses (ACL denies, unservable punts) come off the
    // top of whatever the recirculation fabric could carry.
    ct.delivered_gbps *= c.per_path.at(ct.path_id).delivery_fraction();
    out.total_delivered_gbps += ct.delivered_gbps;
  }
  return out;
}

}  // namespace dejavu::sim
