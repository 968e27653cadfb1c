// Library performance benchmarks: how fast the behavioral substrate
// itself runs (parser execution, table lookups, end-to-end packets
// through the composed Fig. 2 program). These time OUR simulator, not
// the ASIC — they bound how large a workload the reproduction can
// drive.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.hpp"
#include "control/deployment.hpp"
#include "nf/parser_lib.hpp"
#include "sfc/header.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/dataplane.hpp"
#include "sim/parse.hpp"

namespace {

using namespace dejavu;

void BM_ParserExecution(benchmark::State& state) {
  p4ir::TupleIdTable ids;
  p4ir::Program program("p");
  nf::add_standard_parser(program, ids);
  auto packet = net::Packet::make({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_parser(program, ids, packet));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParserExecution);

void BM_ExactTableLookup(benchmark::State& state) {
  p4ir::Table def;
  def.name = "t";
  def.keys = {p4ir::TableKey{"a.x", p4ir::MatchKind::kExact, 32}};
  def.actions = {"act"};
  def.max_entries = 1 << 16;
  p4ir::ControlBlock control("c");
  control.add_action(p4ir::Action{"act", {{"p", 32}}, {}});
  control.add_table(def);
  sim::RuntimeTable rt(control, control.tables().front());
  for (std::uint64_t i = 0; i < 10000; ++i) {
    rt.add_exact({i}, sim::ActionCall{"act", {{"p", i}}});
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.lookup({key++ % 10000}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactTableLookup);

void BM_TernaryTableLookup(benchmark::State& state) {
  p4ir::Table def;
  def.name = "acl";
  def.keys = {p4ir::TableKey{"ipv4.src", p4ir::MatchKind::kTernary, 32}};
  def.actions = {"permit"};
  def.max_entries = 4096;
  p4ir::ControlBlock control("c");
  control.add_action(p4ir::Action{"permit", {}, {}});
  control.add_table(def);
  sim::RuntimeTable rt(control, control.tables().front());
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    rt.add_ternary({net::TernaryField{i << 8, 0xffffff00}},
                   static_cast<std::int32_t>(i),
                   sim::ActionCall{"permit", {}});
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.lookup({(key++ % n) << 8}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TernaryTableLookup)->Arg(64)->Arg(1024);

void BM_EndToEndFig2(benchmark::State& state) {
  auto fx = control::make_fig2_deployment();
  auto& cp = fx.deployment->control();
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 3, 0, 1);
  auto packet = net::Packet::make(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cp.inject(packet, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndFig2);

void BM_EndToEndFig2Compiled(benchmark::State& state) {
  auto fx = control::make_fig2_deployment();
  sim::CompiledPipeline fast(fx.deployment->dataplane());
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 3, 0, 1);
  auto packet = net::Packet::make(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.process(packet, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndFig2Compiled);

void BM_SfcPushPop(benchmark::State& state) {
  auto packet = net::Packet::make({});
  for (auto _ : state) {
    sfc::push_sfc(packet, sfc::SfcHeader{});
    benchmark::DoNotOptimize(sfc::pop_sfc(packet));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SfcPushPop);

/// Quick headline measurement (outside the google-benchmark timers)
/// recorded as BENCH_dataplane.json: per-packet nanoseconds through
/// the composed Fig. 2 program on both engines, path 3 steady state.
void emit_bench_json() {
  auto fx = control::make_fig2_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  sim::CompiledPipeline fast(dp);
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 3, 0, 1);
  const auto packet = net::Packet::make(spec);
  constexpr int kPackets = 20000;

  auto time_ns = [&](auto&& process) {
    process(packet);  // warm
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPackets; ++i) {
      benchmark::DoNotOptimize(process(packet));
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count() /
           kPackets;
  };
  const double interp_ns =
      time_ns([&](const net::Packet& p) { return dp.process(p, 0); });
  const double compiled_ns =
      time_ns([&](const net::Packet& p) { return fast.process(p, 0); });

  bench::BenchJson json("dataplane");
  json.add("target", std::string("fig2-chain/path3"));
  json.add("packets", static_cast<std::uint64_t>(kPackets));
  json.add("interpreter_ns_per_packet", interp_ns);
  json.add("compiled_ns_per_packet", compiled_ns);
  json.add("speedup_compiled_vs_interp",
           compiled_ns > 0 ? interp_ns / compiled_ns : 0);
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  emit_bench_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
