// Audit-lane overhead (ISSUE 10 acceptance): what the silent-state
// defense costs on the packet path and how fast it pays off. Three
// tables: (1) shadow-sampling overhead — pps through Auditor::process
// at several sampling rates vs the bare dataplane, with the ≤5%
// budget checked at the default rate; (2) digest-audit tick cost and
// the full-sweep detection bound; (3) corruption-detection latency —
// seeded corruptions per table, audit ticks to first finding, and the
// scrub-to-byte-identical repair time.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "control/auditor.hpp"
#include "control/deployment.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "sim/dataplane.hpp"
#include "sim/runtime_table.hpp"

namespace {

using namespace dejavu;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kFlows = 240;
constexpr int kPasses = 40;  // best-of passes; each pass = all flows once

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A fig2 deployment warmed with every flow (LB sessions learned), the
/// prebuilt probe packets, and an intended-state mirror of the warmed
/// dataplane — the steady state the auditor watches in production.
struct Warmed {
  control::DeploymentTarget target;
  std::vector<std::pair<net::Packet, std::uint16_t>> packets;
  sim::DataPlane mirror;

  Warmed()
      : target(control::make_fig2_deployment()),
        mirror(target.dataplane().program(), target.dataplane().ids(),
               target.dataplane().config()) {
    const auto flows = control::fig2_replay_flows(kFlows, /*seed=*/1);
    for (const sim::ReplayFlow& f : flows) {
      (void)target.inject(f.flow.packet(), f.in_port);
      packets.emplace_back(f.flow.packet(), f.in_port);
    }
    control::restore_snapshot(control::take_snapshot(target.dataplane()),
                              mirror);
  }
};

/// Best-of-kPasses pps for one packet-path variant.
template <typename ProcessFn>
double best_pps(const Warmed& w, ProcessFn&& process) {
  double best = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto start = Clock::now();
    for (const auto& [packet, port] : w.packets) {
      process(packet, port);
    }
    const double wall = seconds_since(start);
    const double pps =
        wall > 0 ? static_cast<double>(w.packets.size()) / wall : 0;
    if (pps > best) best = pps;
  }
  return best;
}

void print_sampling_overhead() {
  bench::heading("Shadow-sampling overhead: Auditor::process vs bare plane");
  Warmed w;
  sim::DataPlane& dp = w.target.dataplane();

  const double baseline = best_pps(
      w, [&](const net::Packet& p, std::uint16_t port) {
        (void)dp.process(p, port);
      });
  std::printf("%zu warmed flows, best of %d passes\n", w.packets.size(),
              kPasses);
  std::printf("%-16s %-14s %-10s\n", "path", "pps", "overhead");
  std::printf("%-16s %-14.0f %-10s\n", "bare plane", baseline, "-");

  const std::uint64_t default_rate = control::AuditorOptions{}.sample_every;
  for (const std::uint64_t rate : {std::uint64_t{32}, default_rate,
                                   std::uint64_t{1024}}) {
    control::AuditorOptions options;
    options.sample_every = rate;
    control::Auditor auditor(dp, w.mirror, options);
    const double pps = best_pps(
        w, [&](const net::Packet& p, std::uint16_t port) {
          (void)auditor.process(p, port);
        });
    const double overhead = baseline > 0 ? 1.0 - pps / baseline : 0.0;
    char label[32];
    std::snprintf(label, sizeof(label), "sampled 1/%llu",
                  static_cast<unsigned long long>(rate));
    std::printf("%-16s %-14.0f %-9.2f%%\n", label, pps, overhead * 100);
    if (rate == default_rate && overhead > 0.05) {
      std::printf("OVER BUDGET: default-rate sampling costs %.2f%% "
                  "(acceptance bound 5%%)\n",
                  overhead * 100);
    }
  }
  std::printf("(every sampled packet re-runs on the mirror; the budget is "
              "<=5%% at the default rate)\n");
}

void print_digest_cost() {
  bench::heading("Digest audit: tick cost and full-sweep bound");
  Warmed w;
  control::AuditorOptions options;
  control::Auditor auditor(w.target.dataplane(), w.mirror, options);

  const std::size_t objects = w.target.dataplane().state_objects().size();
  const std::uint64_t sweep =
      (objects + options.digest_objects_per_tick - 1) /
      options.digest_objects_per_tick;
  constexpr int kTicks = 2000;
  const auto start = Clock::now();
  for (int i = 0; i < kTicks; ++i) auditor.tick();
  const double us_per_tick = seconds_since(start) / kTicks * 1e6;

  std::printf("%zu auditable objects, %u compared per tick -> full sweep "
              "in %llu ticks\n",
              objects, options.digest_objects_per_tick,
              static_cast<unsigned long long>(sweep));
  std::printf("digest tick: %.2f us (worst-case detection bound: one "
              "sweep, %.2f us)\n",
              us_per_tick, us_per_tick * static_cast<double>(sweep));
}

void print_detection_latency() {
  bench::heading("Corruption-detection latency and scrub repair");
  std::printf("%-28s %-14s %-12s %-10s %-10s\n", "corruption", "ticks to",
              "scrub (us)", "ops", "identical");
  std::printf("%-28s %-14s\n", "", "detect");

  // The same victim set the seeded state lane targets (see
  // FaultProfile::state_default): merged table names are NF-dotted.
  const std::vector<std::string> victims = {
      "Classifier.traffic_class", "FW.acl", "LB.lb_session",
      "Router.ipv4_lpm", "VGW.vip_map"};
  for (const std::string& name : victims) {
    Warmed w;
    sim::DataPlane& dp = w.target.dataplane();
    control::AuditorOptions options;
    control::Auditor auditor(dp, w.mirror, options);
    auto tables = dp.tables_named(name);
    if (tables.empty() || tables.front()->entry_count() == 0) continue;
    const std::string note = tables.front()->corrupt(
        sim::RuntimeTable::CorruptKind::kKeyFlip, /*salt=*/0x9e3779b97f4a7c15ULL);

    std::uint64_t ticks = 0;
    while (auditor.findings().empty() && ticks < 64) {
      auditor.tick();
      ++ticks;
    }
    const auto start = Clock::now();
    const control::ScrubReport rep = auditor.scrub();
    const double scrub_us = seconds_since(start) * 1e6;

    std::printf("%-28s %-14llu %-12.1f %-10llu %-10s\n", name.c_str(),
                static_cast<unsigned long long>(ticks), scrub_us,
                static_cast<unsigned long long>(rep.ops),
                rep.identical ? "yes" : "NO");
  }
  std::printf("(detection bound: one digest sweep; every scrub must end "
              "byte-identical to the mirror)\n");
}

}  // namespace

int main() {
  print_sampling_overhead();
  print_digest_cost();
  print_detection_latency();
  return 0;
}
