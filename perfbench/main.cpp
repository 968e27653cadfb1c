// perfbench: the repository benchmark. One process sets up the switch,
// drives one workload from a single closed-loop client for --seconds,
// checks the outputs against an interpreter replica, and prints its
// metrics; the last line of stdout is the JSON result. See README.md
// for the workloads, the metrics and what each layer metric predicts.
//
//   perfbench --workload steady|churn|commit --seed N --seconds S
//             --trace 0|1 [--why TEXT] [--revision TEXT]
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 splits --seconds between an untraced and a traced phase,
// adds isolated timings of single layers, and prints the per-layer
// metrics; its spans are written to .bench_build/traces/<workload>.csv.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "control/live_update.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "net/headers.hpp"
#include "probe.hpp"
#include "rig.hpp"
#include "sfc/header.hpp"
#include "sim/parse.hpp"
#include "sim/replay.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace dejavu;

// ---------------------------------------------------------------------
// Arguments and small statistics helpers

struct Args {
  Workload workload = Workload::kSteady;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string why;
  std::string revision = "unknown";
};

/// Where the traced run writes its spans, relative to the repository root.
constexpr const char* kTraceDir = ".bench_build/traces";

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload steady|churn|commit"
               " --seed N --seconds S --trace 0|1 [--why TEXT]"
               " [--revision TEXT]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      auto w = parse_workload(value);
      if (!w) usage("unknown workload '" + value + "'");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--why") {
      a.why = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <class T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// The timed closed loop

// Span names: the public function each span wraps.
constexpr const char* kSpanInject = "control.replay_target.inject";
constexpr const char* kSpanProcess = "sim.compiled.process";
constexpr const char* kSpanServicePunts = "control.control_plane.service_punts";
constexpr const char* kSpanSessionWrite = "control.session.write";
constexpr const char* kSpanLiveUpdate = "control.live_update.run";
constexpr const char* kSpanRemoveExact = "sim.runtime_table.remove_exact";
/// The client's own work: drawing the next op from the seeded stream,
/// and copying (or, for a new flow, building) the frame handed to inject.
constexpr const char* kSpanNextOp = "client.next_op";
constexpr const char* kSpanMakePacket = "client.make_packet";

/// Send a commit op through the rig's session: a kLegacyDiff write, or
/// a live update planned against the switch's current routing. True
/// when the switch confirmed it.
bool commit(Rig& rig, Op& op) {
  if (op.kind == Op::Kind::kLiveUpdate) {
    return control::run_update_via_session(
               *rig.session, lb_bypass_diff(rig.deployment(), op.bypass_lb),
               nullptr)
        .committed;
  }
  control::WriteCommand cmd;
  cmd.verb = control::WriteCommand::Verb::kLegacyDiff;
  cmd.diff = std::move(op.diff);
  return rig.session->write(std::move(cmd)).ok;
}

/// Expire one LB session (the churn workload's idle timeout) from
/// every instance of the table; false when some instance lacked it.
bool expire_session(Rig& rig, std::uint32_t hash) {
  bool removed = true;
  for (sim::RuntimeTable* t : rig.dp().tables_named("LB.lb_session")) {
    removed = t->remove_exact({hash}) && removed;
  }
  return removed;
}

constexpr std::uint32_t kNoSpan = 0xffffffff;

/// Outputs of the first `ops` ops, for the correctness gate.
struct Prefix {
  std::size_t ops = 3000;
  bool done = false;
  std::vector<sim::SwitchOutput> outs;
  std::map<std::uint16_t, sim::DataPlane::PortCounters> ports;
};

/// One window of a phase: a fixed amount of work (kWindowPackets
/// packets on steady; kWindowEvents new flows or commits, with the
/// packets between them, otherwise), so that windows differ only in
/// how long the host let them take.
/// Timings are raw; probe_ms is the host probe's time around the window
/// (mean of the runs just before and after it), which corrected() uses.
struct Window {
  std::uint64_t packets = 0;  ///< also the window's latency sample count
  double pps = 0;
  double goodput_mbps = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double probe_ms = 0;

  /// The window as it would have measured at the probe's reference speed.
  Window corrected() const {
    const double k = HostProbe::time_scale(probe_ms);
    return {packets, pps / k, goodput_mbps / k, lat_p50_us * k, lat_p99_us * k,
            probe_ms};
  }
};
constexpr std::uint64_t kWindowPackets = 16384;
/// New flows (churn) or commits (commit) per window. Twenty commits hold
/// two live updates, one bypassing the LB and one restoring it, so every
/// window spends as long with the LB bypassed as the next.
constexpr std::uint64_t kWindowEvents[] = {0, 32, 20};  // by Workload

struct Phase {
  double wall_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t punted = 0;
  std::uint64_t vanished = 0;  ///< neither delivered, dropped nor punted
  std::uint64_t new_flows = 0;
  std::uint64_t commits = 0;
  std::uint64_t live_updates = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t expiry_failed = 0;
  std::uint64_t recompiles = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t learned = 0;
  std::uint64_t allocs = 0;  ///< inside inject (untraced) / process (traced)
  std::uint64_t punts_handled = 0;
  std::int64_t punt_service_ns = 0;  ///< service_punts calls that handled one
  std::vector<Window> windows;
  std::vector<double> c2f_us;  ///< commit start -> next packet's return
  /// Traced only: process spans during which generation() advanced, and
  /// for each commit (its first packet's recompile span or kNoSpan, c2f).
  std::vector<std::uint32_t> recompile_spans;
  std::vector<std::pair<std::uint32_t, double>> c2f_recompile;

  double pps() const { return ratio(static_cast<double>(packets), wall_s); }
};

/// Drive `stream` through `rig` for `seconds`. The untraced phase cuts
/// its run into Windows and probes the host between them; the traced
/// phase records spans into `tracer` instead.
template <bool kTraced>
void run_phase(Rig& rig, const WorkloadSpec& spec, OpStream& stream,
               double seconds, HostProbe& probe, Tracer* tracer, Phase& ph,
               Prefix* prefix) {
  sim::CompiledPipeline& engine = rig.compiled();
  control::ControlPlane& cp = rig.control();
  const std::uint64_t gen0 = engine.generation();
  const std::uint64_t fallback0 = engine.stats().fallback_packets;
  const std::size_t learned0 = cp.sessions_learned();

  const std::uint64_t events_per_window =
      kTraced ? 0 : kWindowEvents[static_cast<int>(spec.kind)];
  double probe_before = kTraced ? 0 : probe.run_ms();
  double probe_s = 0;  // host probing inside this phase, not charged to it
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_start = start;
  std::uint64_t window_packets = 0;
  std::uint64_t window_bytes = 0;
  std::uint64_t window_events = 0;
  std::vector<float> window_lat;  // per-packet inject time, us
  window_lat.reserve(kWindowPackets);
  // A partial window at the deadline is dropped.
  const auto close_window = [&] {
    const std::int64_t end = now_ns();
    const double dt = (end - window_start) * 1e-9;
    const double probe_after = probe.run_ms();
    ph.windows.push_back({window_packets, window_packets / dt, window_bytes * 8 / dt / 1e6,
                          quantile(window_lat, 0.5), quantile(window_lat, 0.99),
                          (probe_before + probe_after) / 2});
    probe_before = probe_after;
    window_packets = 0;
    window_bytes = 0;
    window_events = 0;
    window_lat.clear();
    window_start = now_ns();
    probe_s += (window_start - end) * 1e-9;
  };
  std::int64_t commit_start = -1;
  std::size_t op_index = 0;

  for (;;) {
    if (now_ns() >= deadline) break;
    if constexpr (kTraced) {
      if (tracer->full()) break;
    }

    std::uint32_t next_span = 0;
    if constexpr (kTraced) next_span = tracer->open(kSpanNextOp, op_index);
    Op op = stream.next();
    if constexpr (kTraced) tracer->close(next_span);
    ++op_index;
    if (op.kind != Op::Kind::kPacket && events_per_window > 0 &&
        window_events++ == events_per_window) {
      close_window();
      window_events = 1;
    }
    switch (op.kind) {
      case Op::Kind::kLegacyCommit:
      case Op::Kind::kLiveUpdate: {
        const bool live = op.kind == Op::Kind::kLiveUpdate;
        const std::int64_t t0 = now_ns();
        std::uint32_t span = 0;
        if constexpr (kTraced) {
          span = tracer->open(live ? kSpanLiveUpdate : kSpanSessionWrite,
                              ph.commits);
        }
        const bool ok = commit(rig, op);
        if constexpr (kTraced) tracer->close(span);
        ++ph.commits;
        ph.live_updates += live;
        ph.writes_failed += !ok;
        commit_start = t0;
        break;
      }
      case Op::Kind::kPacket:
      case Op::Kind::kNewFlow: {
        const bool fresh = op.kind == Op::Kind::kNewFlow;
        const FlowSpec& flow = fresh ? op.new_flow : spec.flows[op.flow];
        std::uint32_t make_span = 0;
        if constexpr (kTraced) make_span = tracer->open(kSpanMakePacket, ph.packets);
        net::Packet packet =
            fresh ? net::Packet::make(flow.spec) : spec.packets[op.flow];
        if constexpr (kTraced) tracer->close(make_span);
        ph.new_flows += fresh;

        sim::SwitchOutput out;
        std::uint32_t recompile_span = kNoSpan;
        const std::int64_t t0 = now_ns();
        if constexpr (kTraced) {
          // DeploymentTarget::inject, call by call.
          const std::uint64_t id = ph.packets;
          const std::uint32_t inject = tracer->open(kSpanInject, id);
          const std::uint32_t process = tracer->open(kSpanProcess, id);
          const std::uint64_t gen = engine.generation();
          const std::uint64_t a0 = thread_allocations();
          out = engine.process(std::move(packet), flow.in_port);
          ph.allocs += thread_allocations() - a0;
          tracer->close(process);
          if (engine.generation() != gen) {
            recompile_span = process;
            ph.recompile_spans.push_back(process);
          }
          const std::uint32_t punts = tracer->open(kSpanServicePunts, id);
          const std::size_t handled = cp.service_punts(out);
          tracer->close(punts);
          tracer->close(inject);
          if (handled > 0) {
            ph.punts_handled += handled;
            ph.punt_service_ns += tracer->spans()[punts].duration_ns();
          }
        } else {
          const std::uint64_t a0 = thread_allocations();
          out = rig.target->inject(std::move(packet), flow.in_port);
          ph.allocs += thread_allocations() - a0;
        }
        const std::int64_t t1 = now_ns();
        if (!kTraced) window_lat.push_back(static_cast<float>((t1 - t0) * 1e-3));
        if (commit_start >= 0) {
          const double c2f = (t1 - commit_start) * 1e-3;
          ph.c2f_us.push_back(c2f);
          if constexpr (kTraced) ph.c2f_recompile.emplace_back(recompile_span, c2f);
          commit_start = -1;
        }
        if (fresh) {
          std::uint32_t span = 0;
          if constexpr (kTraced) span = tracer->open(kSpanRemoveExact, ph.packets);
          ph.expiry_failed += !expire_session(rig, op.evict_hash);
          if constexpr (kTraced) tracer->close(span);
        }

        ++ph.packets;
        ++window_packets;
        if (out.delivered()) {
          ++ph.delivered;
          window_bytes += flow.spec.payload_size;
        } else if (!out.to_cpu.empty()) {
          ++ph.punted;
        } else if (out.dropped) {
          ++ph.dropped;
        } else {
          ++ph.vanished;
        }
        if (prefix != nullptr && !prefix->done) {
          prefix->outs.push_back(std::move(out));
        }
        if (!kTraced && events_per_window == 0 &&
            window_packets == kWindowPackets) {
          close_window();
        }
        break;
      }
    }
    if (prefix != nullptr && !prefix->done && op_index == prefix->ops) {
      prefix->ports = rig.dp().all_port_counters();
      prefix->done = true;
    }
  }
  ph.wall_s = (now_ns() - start) * 1e-9 - probe_s;
  if (prefix != nullptr && !prefix->done) {
    prefix->ops = op_index;
    prefix->ports = rig.dp().all_port_counters();
    prefix->done = true;
  }
  ph.recompiles = engine.generation() - gen0;
  ph.fallbacks = engine.stats().fallback_packets - fallback0;
  ph.learned = cp.sessions_learned() - learned0;
}

// ---------------------------------------------------------------------
// Correctness gate

struct Gate {
  std::vector<std::string> errors;
  std::size_t packets_compared = 0;
  std::vector<double> interp_process_us;

  void fail(std::string e) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
  bool ok() const { return errors.empty(); }
};

/// Replay the prefix's ops on the interpreter replica, which was built
/// from the same spec; every packet and the port counters must match.
void check_prefix(Rig& replica, const WorkloadSpec& spec, const Prefix& prefix,
                  Gate& gate) {
  replica.dp().reset_counters();
  OpStream stream(spec);
  std::size_t packet = 0;
  for (std::size_t i = 0; i < prefix.ops; ++i) {
    Op op = stream.next();
    if (op.kind == Op::Kind::kLegacyCommit ||
        op.kind == Op::Kind::kLiveUpdate) {
      if (!commit(replica, op)) {
        gate.fail("replica: commit at op " + std::to_string(i) + " failed");
      }
      continue;
    }
    const bool fresh = op.kind == Op::Kind::kNewFlow;
    const FlowSpec& flow = fresh ? op.new_flow : spec.flows[op.flow];
    net::Packet pkt = fresh ? net::Packet::make(flow.spec) : spec.packets[op.flow];
    const std::int64_t t0 = now_ns();
    sim::SwitchOutput out = replica.dp().process(std::move(pkt), flow.in_port);
    gate.interp_process_us.push_back((now_ns() - t0) * 1e-3);
    replica.control().service_punts(out);
    if (fresh && !expire_session(replica, op.evict_hash)) {
      gate.fail("replica: session to expire at op " + std::to_string(i) +
                " was not installed");
    }
    if (packet >= prefix.outs.size()) {
      gate.fail("prefix holds fewer packets than the replay");
      return;
    }
    if (!sim::semantically_equal(out, prefix.outs[packet])) {
      gate.fail("packet " + std::to_string(packet) + " (op " +
                std::to_string(i) +
                ") differs between compiled engine and interpreter");
    }
    ++packet;
  }
  gate.packets_compared = packet;
  if (packet != prefix.outs.size()) {
    gate.fail("prefix packet count differs: " + std::to_string(packet) +
              " vs " + std::to_string(prefix.outs.size()));
  }
  if (replica.dp().all_port_counters() != prefix.ports) {
    gate.fail("port counters differ at the end of the prefix");
  }
}

/// Whole-run invariants of the primary switch.
void check_invariants(Workload w, const Phase& ph, Gate& gate) {
  if (ph.vanished != 0) {
    gate.fail("delivered + dropped + punted != offered: " +
              std::to_string(ph.vanished) + " packets are none of these");
  }
  if (ph.expiry_failed != 0) {
    gate.fail(std::to_string(ph.expiry_failed) +
              " expiring LB sessions were not installed");
  }
  const auto diff = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  switch (w) {
    case Workload::kSteady:
      if (ph.recompiles != 0) {
        gate.fail("steady recompiled " + std::to_string(ph.recompiles) +
                  " times (expected 0)");
      }
      break;
    case Workload::kChurn:
      if (ph.learned != ph.new_flows) {
        gate.fail("churn learned " + std::to_string(ph.learned) +
                  " sessions for " + std::to_string(ph.new_flows) +
                  " new flows");
      }
      if (diff(ph.recompiles, ph.new_flows) > 1) {
        gate.fail("churn recompiles " + std::to_string(ph.recompiles) +
                  " != new flows " + std::to_string(ph.new_flows));
      }
      break;
    case Workload::kCommit:
      if (diff(ph.recompiles, ph.commits) > 1) {
        gate.fail("commit recompiles " + std::to_string(ph.recompiles) +
                  " != commits " + std::to_string(ph.commits));
      }
      break;
  }
}

// ---------------------------------------------------------------------
// Isolated layer timings (traced run only)

/// Median over `reps` batches of the per-call time of `batch` calls.
template <class F>
double ns_per_call(F&& f, int reps, int batch) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int b = 0; b < batch; ++b) f(b);
    per_call.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
  return median(per_call);
}

net::Packet frame_of(std::uint32_t bytes) {
  net::PacketSpec s;
  s.ip_src = net::Ipv4Addr(192, 168, 0, 1);
  s.ip_dst = net::Ipv4Addr(10, 1, 0, 10);
  s.src_port = 40000;
  s.dst_port = 443;
  s.payload_size = bytes - 54;
  return net::Packet::make(s);
}

struct LayerTimings {
  double run_parser_ns = 0;
  double lookup_ns = 0;
  double push_pop_ns[3] = {};
  double ipv4_reencode_ns = 0;
  double txn_commit_us = 0;
};

constexpr std::uint32_t kFrameSizes[3] = {64, 576, 1500};

LayerTimings time_layers(Rig& replica, const WorkloadSpec& spec) {
  LayerTimings lt;
  volatile std::size_t sink = 0;
  const sim::DataPlane& dp = replica.dp();
  const auto n = static_cast<int>(spec.packets.size());

  lt.run_parser_ns = ns_per_call(
      [&](int b) {
        sink = sink + sim::run_parser(dp.program(), dp.ids(), spec.packets[b % n])
                          .order()
                          .size();
      },
      101, 64);

  const sim::RuntimeTable* table =
      replica.dp().tables_named("LB.lb_session").front();
  std::vector<std::vector<std::optional<std::uint64_t>>> keys;
  for (std::size_t i = 0; i < 1024 && i < spec.preload.size(); ++i) {
    keys.push_back({spec.preload[i]});
  }
  const std::uint32_t epoch = replica.dp().epoch();
  lt.lookup_ns = ns_per_call(
      [&](int b) {
        sink = sink + table->lookup(keys[b % keys.size()], epoch).hit;
      },
      101, 256);

  for (int s = 0; s < 3; ++s) {
    net::Packet pkt = frame_of(kFrameSizes[s]);
    sfc::SfcHeader header;
    header.service_path_id = 1;
    header.service_index = 1;
    lt.push_pop_ns[s] = ns_per_call(
        [&](int) {
          sfc::push_sfc(pkt, header);
          sink = sink + sfc::pop_sfc(pkt).service_index;
        },
        101, 64);
  }

  net::Packet pkt = frame_of(64);
  const auto ip = pkt.data().mutable_view().subspan(14, net::Ipv4Header::kMinSize);
  lt.ipv4_reencode_ns = ns_per_call(
      [&](int) {
        const auto h = net::Ipv4Header::decode(ip);
        h->encode(ip, /*fill_checksum=*/true);
      },
      101, 256);

  if (spec.kind == Workload::kCommit) {
    // The workload's own legacy batches, committed directly on a
    // scratch replica holding the same entries.
    sim::DataPlane scratch(dp.program(), dp.ids(), dp.config());
    control::restore_snapshot(control::take_snapshot(replica.dp()), scratch);
    OpStream stream(spec);
    std::vector<double> us;
    while (us.size() < 200) {
      Op op = stream.next();
      if (op.kind != Op::Kind::kLegacyCommit) continue;
      control::Transaction txn(scratch);
      control::fill_transaction(txn, op.diff);
      const std::int64_t t0 = now_ns();
      const control::Transaction::Result r = txn.commit();
      us.push_back((now_ns() - t0) * 1e-3);
      if (!r.committed) throw std::runtime_error("scratch commit: " + r.error);
    }
    lt.txn_commit_us = median(us);
  }
  return lt;
}

// ---------------------------------------------------------------------
// Replay scaling (steady, traced run only)

struct ReplayFigures {
  std::uint32_t workers = 0;
  double pps = 0;
  double busy_imbalance = 0;
  double overhead_frac = 0;
  std::size_t runs = 0;
};

ReplayFigures measure_replay(const WorkloadSpec& spec, double seconds,
                             Gate& gate) {
  ReplayFigures rf;
  rf.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<sim::ReplayFlow> flows;
  for (const FlowSpec& f : spec.flows) {
    flows.push_back(sim::ReplayFlow{sim::Flow{f.spec}, f.in_port, f.path_id});
  }
  sim::ReplayEngine engine([&spec](std::uint32_t) {
    return std::unique_ptr<sim::ReplayTarget>(build_rig(spec).target.release());
  });
  sim::ReplayConfig config;
  config.workers = rf.workers;
  config.engine = sim::EngineKind::kCompiled;
  config.packets_per_flow = 64;
  config.batch = 4;

  std::vector<double> pps, imbalance, overhead;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  engine.run(flows, config);  // builds the replicas, warms their caches
  while (now_ns() < deadline || pps.size() < 3) {
    const sim::ReplayReport r = engine.run(flows, config);
    if (r.counters.delivered != r.counters.packets) {
      gate.fail("replay delivered " + std::to_string(r.counters.delivered) +
                " of " + std::to_string(r.counters.packets));
    }
    if (r.compiled_packets != r.counters.packets) {
      gate.fail("replay ran " +
                std::to_string(r.counters.packets - r.compiled_packets) +
                " packets off the fast path");
    }
    double busy_sum = 0;
    double busy_max = 0;
    for (const sim::WorkerStats& w : r.workers) {
      busy_sum += w.busy_seconds;
      busy_max = std::max(busy_max, w.busy_seconds);
    }
    pps.push_back(r.packets_per_second());
    imbalance.push_back(ratio(busy_max, busy_sum / r.workers.size()));
    overhead.push_back(1 - ratio(busy_sum, rf.workers * r.wall_seconds));
  }
  rf.pps = median(pps);
  rf.busy_imbalance = median(imbalance);
  rf.overhead_frac = median(overhead);
  rf.runs = pps.size();
  return rf;
}

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_provenance(const Args& a) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              to_string(a.workload), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  if (!a.why.empty()) std::printf("# why: %s\n", a.why.c_str());
  std::printf("# revision: %s\n", a.revision.c_str());
  std::printf("# build: %s, flags '%s', compiler %s, nproc %u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, __VERSION__,
              std::thread::hardware_concurrency());
#if !defined(__OPTIMIZE__)
  std::printf("# WARNING: built without optimisation; timings are not "
              "representative\n");
#endif
}

void print_setup(const std::vector<SetupTimes>& setups) {
  for (const SetupTimes& s : setups) {
    std::printf("# setup %.3f s: build %.3f, explore %.3f, first compile "
                "%.4f, preload %.3f, warm-up %.3f, session %.3f\n",
                s.total_s, s.build_s, s.explore_s, s.first_compile_s,
                s.preload_s, s.warmup_s, s.session_s);
  }
}

/// Median over windows of one Window field.
double window_median(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(w.*field);
  return median(v);
}

std::vector<Window> corrected(const std::vector<Window>& windows) {
  std::vector<Window> out;
  for (const Window& w : windows) out.push_back(w.corrected());
  return out;
}

void print_phase(const char* label, const Phase& ph) {
  std::printf("# %s: %llu packets in %.3f s (%.0f pps), %llu new flows, %llu commits (%llu live updates), %llu "
              "recompiles, %.2f allocs/pkt in inject\n",
              label, static_cast<unsigned long long>(ph.packets), ph.wall_s,
              ph.pps(),
              static_cast<unsigned long long>(ph.new_flows),
              static_cast<unsigned long long>(ph.commits),
              static_cast<unsigned long long>(ph.live_updates),
              static_cast<unsigned long long>(ph.recompiles),
              ratio(ph.allocs, ph.packets));
  const std::uint64_t attempted = ph.packets + ph.commits;
  const std::uint64_t failed = ph.packets - ph.delivered + ph.writes_failed;
  std::printf("# %s: fail_frac %.6f (%llu of %llu packets + writes)\n", label,
              ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!ph.windows.empty()) {
    std::uint64_t fewest = ph.windows.front().packets;
    for (const Window& w : ph.windows) fewest = std::min(fewest, w.packets);
    std::printf("# %s: %zu windows of >= %llu packets (latency samples)\n",
                label, ph.windows.size(),
                static_cast<unsigned long long>(fewest));
    std::printf("# %s: %zu windows, medians raw / host-corrected: pps %.0f / "
                "%.0f, lat p50 %.3f / %.3f us, lat p99 %.3f / %.3f us, host "
                "probe %.3f ms (reference %.3f)\n",
                label, ph.windows.size(), window_median(ph.windows, &Window::pps),
                window_median(corrected(ph.windows), &Window::pps),
                window_median(ph.windows, &Window::lat_p50_us),
                window_median(corrected(ph.windows), &Window::lat_p50_us),
                window_median(ph.windows, &Window::lat_p99_us),
                window_median(corrected(ph.windows), &Window::lat_p99_us),
                window_median(ph.windows, &Window::probe_ms),
                HostProbe::kReferenceMs);
  }
  if (!ph.c2f_us.empty()) {
    std::printf("# %s: commit_to_first_pkt p50 %.1f us, p99 %.1f us over %zu "
                "commits\n",
                label, quantile(ph.c2f_us, 0.5), quantile(ph.c2f_us, 0.99),
                ph.c2f_us.size());
  }
}

void print_gate(const Gate& gate, const Prefix& prefix) {
  std::printf("# gate: %zu prefix ops, %zu packets compared with the "
              "interpreter replica: %s\n",
              prefix.ops, gate.packets_compared, gate.ok() ? "ok" : "FAILED");
  for (const std::string& e : gate.errors) std::printf("# gate: %s\n", e.c_str());
}

/// Only a run that passed the gate prints this line; `correct` then
/// still reports whether every packet was delivered and every write
/// confirmed.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------
// The two runs

constexpr int kSetups = 9;

int run_end_to_end(const Args& a, const WorkloadSpec& spec) {
  HostProbe probe;
  // Set up kSetups identical switches, probing the host around each:
  // the median corrected set-up time is setup_s, the last switch is
  // measured, the first becomes the interpreter oracle.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  Rig oracle;
  Rig primary;
  double probe_before = probe.run_ms();
  for (int i = 0; i < kSetups; ++i) {
    Rig rig = build_rig(spec);
    setups.push_back(rig.times);
    const double probe_after = probe.run_ms();
    setup_s.push_back(setups.back().total_s *
                      HostProbe::time_scale((probe_before + probe_after) / 2));
    probe_before = probe_after;
    if (i == 0) oracle = std::move(rig);
    if (i == kSetups - 1) primary = std::move(rig);
  }
  print_setup(setups);

  OpStream stream(spec);
  Prefix prefix;
  Phase ph;
  primary.dp().reset_counters();
  run_phase<false>(primary, spec, stream, a.seconds, probe, nullptr, ph,
                   &prefix);
  print_phase("timed", ph);

  Gate gate;
  check_invariants(a.workload, ph, gate);
  if (ph.windows.size() < 5) {
    gate.fail("only " + std::to_string(ph.windows.size()) +
              " timing windows completed; raise --seconds");
  }
  check_prefix(oracle, spec, prefix, gate);
  print_gate(gate, prefix);
  if (!gate.ok()) return 1;  // a wrong run reports no numbers

  const std::vector<Window> windows = corrected(ph.windows);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"pps", window_median(windows, &Window::pps), "1/s"},
      {"goodput_mbps", window_median(windows, &Window::goodput_mbps),
       "Mbit/s"},
      {"lat_p50_us", window_median(windows, &Window::lat_p50_us), "us"},
      {"lat_p99_us", window_median(windows, &Window::lat_p99_us), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const std::uint64_t failed = ph.packets - ph.delivered + ph.writes_failed;
  print_result(ph.packets + ph.commits, failed, metrics);
  return 0;
}

int run_traced(const Args& a, const WorkloadSpec& spec) {
  HostProbe probe;
  Rig primary = build_rig(spec);
  Rig oracle = build_rig(spec);
  print_setup({primary.times, oracle.times});

  // Untraced first (it records the gate's prefix), then traced, on
  // the same switch and the same op stream.
  OpStream stream(spec);
  Prefix prefix;
  Phase plain;
  Phase traced;
  Tracer tracer(600000);
  primary.dp().reset_counters();
  run_phase<false>(primary, spec, stream, a.seconds / 2, probe, nullptr, plain,
                   &prefix);
  run_phase<true>(primary, spec, stream, a.seconds / 2, probe, &tracer, traced,
                  nullptr);
  print_phase("untraced", plain);
  print_phase("traced", traced);

  Gate gate;
  check_invariants(a.workload, plain, gate);
  check_invariants(a.workload, traced, gate);
  check_prefix(oracle, spec, prefix, gate);
  print_gate(gate, prefix);

  const LayerTimings lt = time_layers(oracle, spec);
  ReplayFigures replay;
  if (a.workload == Workload::kSteady) {
    replay = measure_replay(spec, std::min(2.0, a.seconds / 4), gate);
    std::printf("# replay: %u workers, %zu runs, %.0f pps, busy imbalance "
                "%.3f, overhead %.3f\n",
                replay.workers, replay.runs, replay.pps, replay.busy_imbalance,
                replay.overhead_frac);
  }

  // Span statistics.
  const std::vector<SpanRecord>& spans = tracer.spans();
  const std::vector<std::int64_t> self = tracer.self_times();
  std::vector<bool> is_recompile(spans.size());
  std::vector<double> recompile_ms;
  for (const std::uint32_t i : traced.recompile_spans) {
    is_recompile[i] = true;
    recompile_ms.push_back(spans[i].duration_ns() * 1e-6);
  }
  std::vector<double> process_ns, write_us, live_us;
  std::map<std::string, std::int64_t> layer_ns;
  std::int64_t recompile_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    layer_ns[s.name] += self[i];
    if (s.name == kSpanProcess) {
      if (is_recompile[i]) {
        recompile_ns += s.duration_ns();
      } else {
        process_ns.push_back(static_cast<double>(self[i]));
      }
    } else if (s.name == kSpanSessionWrite) {
      write_us.push_back(s.duration_ns() * 1e-3);
    } else if (s.name == kSpanLiveUpdate) {
      live_us.push_back(s.duration_ns() * 1e-3);
    }
  }
  double c2f_total = 0;
  double c2f_recompile = 0;
  for (const auto& [span, c2f] : traced.c2f_recompile) {
    c2f_total += c2f;
    if (span != kNoSpan) {
      c2f_recompile += spans[span].duration_ns() * 1e-3;
    }
  }
  std::int64_t layer_sum = 0;
  for (const auto& [name, ns] : layer_ns) layer_sum += ns;
  const double wall_ns = traced.wall_s * 1e9;
  const double layer_frac = ratio(layer_sum, wall_ns);
  std::printf("# layers vs end to end (traced phase): layer self-time sum "
              "%.3f s of %.3f s wall = %.3f%s\n",
              layer_sum * 1e-9, traced.wall_s, layer_frac,
              layer_frac < 0.9 ? "  GAP > 10%: a layer is missing from the "
                                 "breakdown"
                               : "");
  for (const auto& [name, ns] : layer_ns) {
    std::printf("#   %-40s %8.3f s  %5.1f%%\n", name.c_str(), ns * 1e-9,
                100 * ratio(ns, wall_ns));
  }
  std::printf("#   %-40s %8.3f s  %5.1f%%\n", "(outside any layer span)",
              (wall_ns - layer_sum) * 1e-9, 100 * (1 - layer_frac));

  // Commits of both phases: per-layer figures, tracing adds only ns to
  // millisecond-scale commits.
  std::vector<double> c2f = plain.c2f_us;
  c2f.insert(c2f.end(), traced.c2f_us.begin(), traced.c2f_us.end());
  const control::SessionStats* ss =
      primary.session ? &primary.session->stats() : nullptr;
  const SetupTimes& st = primary.times;

  const std::vector<Metric> metrics = {
      {"sim.compiled.process_self_ns", median(process_ns), "ns"},
      {"sim.compiled.allocs_per_pkt", ratio(traced.allocs, traced.packets),
       "allocs/pkt"},
      {"sim.compiled.fallback_frac",
       ratio(plain.fallbacks + traced.fallbacks, plain.packets + traced.packets),
       "ratio"},
      {"sim.compiled.recompiles", static_cast<double>(traced.recompiles),
       "count"},
      {"sim.compiled.recompile_ms", median(recompile_ms), "ms"},
      {"sim.compiled.recompile_wall_frac", ratio(recompile_ns, wall_ns),
       "ratio"},
      {"sim.compiled.first_compile_ms", st.first_compile_s * 1e3, "ms"},
      {"sim.replay.pps_parallel", replay.pps, "1/s"},
      {"sim.replay.workers", static_cast<double>(replay.workers), "count"},
      {"sim.replay.busy_imbalance", replay.busy_imbalance, "ratio"},
      {"sim.replay.overhead_frac", replay.overhead_frac, "ratio"},
      {"sim.dataplane.process_us", median(gate.interp_process_us), "us"},
      {"sim.parse.run_parser_ns", lt.run_parser_ns, "ns"},
      {"sim.runtime_table.lookup_ns", lt.lookup_ns, "ns"},
      {"sfc.push_pop_ns.64", lt.push_pop_ns[0], "ns"},
      {"sfc.push_pop_ns.576", lt.push_pop_ns[1], "ns"},
      {"sfc.push_pop_ns.1500", lt.push_pop_ns[2], "ns"},
      {"net.ipv4_reencode_ns", lt.ipv4_reencode_ns, "ns"},
      {"control.control_plane.service_punts_us",
       ratio(traced.punt_service_ns * 1e-3, traced.punts_handled), "us"},
      {"control.control_plane.install_lb_session_us", median(st.install_us),
       "us"},
      {"control.control_plane.preload_s", st.preload_s, "s"},
      {"control.deployment.build_s", st.build_s, "s"},
      {"explore.run_s", st.explore_s, "s"},
      {"control.session.write_us.p50", quantile(write_us, 0.5), "us"},
      {"control.session.write_us.p99", quantile(write_us, 0.99), "us"},
      {"control.session.attempts_per_write",
       ss ? ratio(ss->write_attempts, ss->writes) : 0, "count"},
      {"control.transaction.commit_us", lt.txn_commit_us, "us"},
      {"control.live_update.run_us", median(live_us), "us"},
      {"control.commit_to_first_pkt_p50_us", quantile(c2f, 0.5), "us"},
      {"control.commit_to_first_pkt_p99_us", quantile(c2f, 0.99), "us"},
      {"control.commit_to_first_pkt.recompile_frac",
       ratio(c2f_recompile, c2f_total), "ratio"},
      {"obs.layer_sum_frac", layer_frac, "ratio"},
      {"obs.trace_overhead_frac", 1 - ratio(traced.pps(), plain.pps()),
       "ratio"},
      {"host.probe_ms", window_median(plain.windows, &Window::probe_ms), "ms"},
  };

  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path =
      std::string(kTraceDir) + "/" + to_string(a.workload) + ".csv";
  if (!tracer.write_csv(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  } else {
    std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
  }

  const std::uint64_t attempted =
      plain.packets + plain.commits + traced.packets + traced.commits;
  const std::uint64_t failed = plain.packets - plain.delivered +
                               plain.writes_failed + traced.packets -
                               traced.delivered + traced.writes_failed;
  if (!gate.ok()) return 1;
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    print_provenance(args);
    const WorkloadSpec spec = make_workload(args.workload, args.seed);
    const int rc =
        args.trace ? run_traced(args, spec) : run_end_to_end(args, spec);
    std::fflush(stdout);
    return rc;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
