// exa_100k — single-threaded runs over generative graphs at exascale rank
// counts: the 50x50x40 periodic stencil (100,000 ranks; baseline plus one
// firmware-logging noisy run at the Cielo x10 exascale MTBCE) and generative
// LULESH at 16,000 ranks (baseline; one iteration at 100,000 ranks alone
// takes ~30 s, more than a run's budget). Set-up is the lazy graph
// construction plus the first stencil run, which sizes the engine's run
// context; the timed phase is at least three passes over the three runs,
// and the end-to-end figures come from the median pass. This is the
// cache-cold event-queue and match-table regime; it does almost no noise or
// core work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/logging_mode.hpp"
#include "core/system_config.hpp"
#include "goal/generative.hpp"
#include "noise/noise_model.hpp"
#include "sim/run_context.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace celogbench {
namespace {

using namespace celog;

constexpr int kSetupReps = 3;
constexpr double kHorizon = 100.0;
/// Passes per second of --seconds (a pass takes ~8 s on a 4-core Xeon
/// host); never fewer than three, so the median pass is meaningful.
constexpr double kPassesPerSecond = 0.3;

struct Shape {
  std::vector<goal::Rank> dims{50, 50, 40};
  std::int32_t stencil_iterations = 1;
  goal::Rank lulesh_ranks = 16000;
  int lulesh_iterations = 1;
};

Shape shape_for(bool tiny) {
  Shape s;
  if (tiny) {
    s.dims = {10, 10, 8};
    s.lulesh_ranks = 1000;
  }
  return s;
}

/// The fig. 5 addendum's stencil: coarse 500 ms halo steps, 4 KiB halos,
/// 1 ms of per-(rank, iteration) jitter hashed from the seed.
goal::StencilSpec stencil_spec(const Shape& shape, std::uint64_t seed) {
  goal::StencilSpec spec;
  spec.dims = shape.dims;
  spec.compute_ns = 500 * kMillisecond;
  spec.iterations = shape.stencil_iterations;
  spec.message_bytes = 4096;
  spec.jitter_ns = kMillisecond;
  spec.seed = seed;
  return spec;
}

goal::GenerativeGraph lulesh_graph(const Shape& shape, std::uint64_t seed) {
  workloads::WorkloadConfig config;
  config.ranks = shape.lulesh_ranks;
  config.trace_block = 0;
  config.iterations = shape.lulesh_iterations;
  config.seed = seed;
  auto g = workloads::find_workload("lulesh")->build_generative(config);
  if (!g) throw std::runtime_error("lulesh has no generative twin");
  return std::move(*g);
}

struct Graphs {
  goal::GenerativeGraph stencil;
  goal::GenerativeGraph lulesh;
};

/// The noise of the stencil's noisy run: firmware logging at the native
/// per-node MTBCE of the Cielo x10 exascale system.
const core::SystemConfig& noisy_system() {
  static const core::SystemConfig sys = core::systems::exascale_cielo(10);
  return sys;
}

/// Closed-form cross-checks of a run against its graph: every op ran, so
/// every send delivered one data message and every op and message arrival
/// was one event.
void check_counts(const goal::GenerativeGraph& g, const sim::SimResult& r,
                  const std::string& what, Report& report) {
  const auto sends = g.count_ops(goal::OpKind::kSend);
  report.check(r.data_messages == sends,
               what + ": data messages " + std::to_string(r.data_messages) +
                   " != sends " + std::to_string(sends));
  report.check(r.events_processed ==
                   g.total_ops() + r.data_messages + r.control_messages,
               what + ": events " + std::to_string(r.events_processed) +
                   " != ops + messages");
  report.check(r.rank_finish.size() == static_cast<std::size_t>(g.ranks()) &&
                   r.makespan > 0,
               what + ": rank finish times");
}

struct RunOutcome {
  sim::SimResult result;
  double wall_s = 0.0;
};

struct Pass {
  RunOutcome stencil_base, stencil_noisy, lulesh_base;
};

class Runs {
 public:
  explicit Runs(const Graphs& g)
      : stencil_(g.stencil, sim::NetworkParams::cray_xc40()),
        lulesh_(g.lulesh, sim::NetworkParams::cray_xc40()) {}

  Pass pass(std::uint64_t noise_seed) {
    Pass p;
    {
      const Span span("sim.baseline");
      p.stencil_base.result = stencil_.run_baseline(stencil_ctx_);
      p.stencil_base.wall_s = span.seconds();
    }
    {
      const noise::UniformCeNoiseModel noise(
          noisy_system().mtbce_node(),
          core::cost_model(core::LoggingMode::kFirmware));
      const auto horizon = static_cast<TimeNs>(
          kHorizon * static_cast<double>(p.stencil_base.result.makespan));
      const Span span("noise.noisy_run");
      p.stencil_noisy.result =
          stencil_.run(noise, noise_seed, stencil_ctx_, horizon);
      p.stencil_noisy.wall_s = span.seconds();
    }
    {
      const Span span("sim.baseline");
      p.lulesh_base.result = lulesh_.run_baseline(lulesh_ctx_);
      p.lulesh_base.wall_s = span.seconds();
    }
    return p;
  }

  /// The first run through each context sizes it; the stencil's is part
  /// of set-up.
  void warm_up() { stencil_.run_baseline(stencil_ctx_); }

  double context_bytes() const {
    return static_cast<double>(stencil_ctx_.resident_bytes() +
                               lulesh_ctx_.resident_bytes());
  }

 private:
  sim::Simulator stencil_;
  sim::Simulator lulesh_;
  sim::RunContext stencil_ctx_;
  sim::RunContext lulesh_ctx_;
};

/// Digest at a recorded seed, on a 4K-rank stencil and a 4K-rank LULESH
/// (the same code paths as the timed runs, at a size that costs little).
std::uint64_t recorded_digest(std::uint64_t seed, Report& report) {
  Shape small;
  small.dims = {16, 16, 16};
  small.stencil_iterations = 2;
  small.lulesh_ranks = 4096;
  const Graphs g{goal::GenerativeGraph(stencil_spec(small, seed)),
                 lulesh_graph(small, seed)};
  Runs runs(g);
  const Pass p = runs.pass(seed);
  check_counts(g.stencil, p.stencil_base.result, "recorded stencil", report);
  check_counts(g.lulesh, p.lulesh_base.result, "recorded lulesh", report);
  Digest d;
  d.sim_result(p.stencil_base.result);
  d.sim_result(p.stencil_noisy.result);
  d.sim_result(p.lulesh_base.result);
  return d.value();
}

}  // namespace

void run_exa_100k(const RunConfig& cfg, Report& report) {
  const Shape shape = shape_for(cfg.tiny);

  std::vector<double> setup;
  std::optional<Graphs> graphs;
  std::optional<Runs> runs;  // borrows *graphs; declared after it
  for (int rep = 0; rep < kSetupReps; ++rep) {
    runs.reset();
    graphs.reset();
    const bench::WallTimer timer;
    graphs.emplace(Graphs{goal::GenerativeGraph(stencil_spec(shape, cfg.seed)),
                          lulesh_graph(shape, cfg.seed)});
    runs.emplace(*graphs);
    runs->warm_up();
    setup.push_back(timer.seconds());
  }

  const int passes = std::max(
      3, static_cast<int>(std::lround(cfg.seconds * kPassesPerSecond)));
  struct Timed {
    std::vector<Pass> passes;
    std::vector<double> wall, cpu, events_per_s;
  };
  const auto timed = [&](bool traced) {
    Tracer::set_enabled(traced);
    Timed t;
    for (int p = 0; p < passes; ++p) {
      const double cpu0 = cpu_seconds();
      const bench::WallTimer timer;
      t.passes.push_back(
          runs->pass(mix(cfg.seed, static_cast<std::uint64_t>(p))));
      t.wall.push_back(timer.seconds());
      t.cpu.push_back(cpu_seconds() - cpu0);
      const Pass& done = t.passes.back();
      t.events_per_s.push_back(
          static_cast<double>(done.stencil_base.result.events_processed +
                              done.stencil_noisy.result.events_processed +
                              done.lulesh_base.result.events_processed) /
          t.wall.back());
    }
    Tracer::set_enabled(false);
    return t;
  };
  const Timed t = timed(false);

  std::vector<double> latency_ms;
  const Pass& first = t.passes.front();
  for (const Pass& p : t.passes) {
    check_counts(graphs->stencil, p.stencil_base.result, "stencil baseline",
                 report);
    check_counts(graphs->stencil, p.stencil_noisy.result, "stencil firmware",
                 report);
    check_counts(graphs->lulesh, p.lulesh_base.result, "lulesh baseline",
                 report);
    report.check(p.stencil_noisy.result.makespan >=
                     p.stencil_base.result.makespan,
                 "noisy stencil finished before its baseline");
    Digest a, b;
    a.sim_result(p.stencil_base.result);
    a.sim_result(p.lulesh_base.result);
    b.sim_result(first.stencil_base.result);
    b.sim_result(first.lulesh_base.result);
    report.check(a.value() == b.value(), "baselines differ across passes");
    for (const RunOutcome* r :
         {&p.stencil_base, &p.stencil_noisy, &p.lulesh_base}) {
      latency_ms.push_back(r->wall_s * 1e3);
    }
  }

  // Expected CEs of the noisy cell against what it observed.
  const double expected =
      static_cast<double>(graphs->stencil.ranks()) *
      static_cast<double>(first.stencil_base.result.makespan) /
      static_cast<double>(noisy_system().mtbce_node());
  std::printf("cell   stencil100k/firmware/%s expects %.4g CEs, observed %llu "
              "detours%s\n",
              noisy_system().name.c_str(), expected,
              static_cast<unsigned long long>(
                  first.stencil_noisy.result.detours_charged),
              expected < 1.0 ? " (0-CE cell: n/a)" : "");
  report.info("noise.expected_ces", expected, "count", "stencil firmware cell");

  for (const std::uint64_t s : kRecordedSeeds) {
    report.digest(s, recorded_digest(s, report));
  }

  // The median pass stands for the timed phase: a pass-long stall of the
  // host moves one pass, not the figures.
  report.e2e("setup_s", median(setup), "s");
  report.e2e("cpu_s", passes * median(t.cpu), "s");
  report.e2e("cells_per_s", 3.0 / median(t.wall), "1/s");
  report.e2e("sim_events_per_s", median(t.events_per_s), "1/s");
  report_latency(latency_ms, report);
  report.info("ops", static_cast<double>(graphs->stencil.total_ops() +
                                         graphs->lulesh.total_ops()),
              "count", "stencil + lulesh ops per pass");

  if (cfg.trace) {
    Tracer::clear();
    Tracer::set_enabled(true);
    double build_s = 0.0;
    {
      const Span span("goal.build");
      const Graphs again{
          goal::GenerativeGraph(stencil_spec(shape, cfg.seed)),
          lulesh_graph(shape, cfg.seed)};
      build_s = span.seconds();
    }
    Tracer::set_enabled(false);
    const Timed traced_t = timed(true);
    const std::vector<Pass>& traced = traced_t.passes;
    const auto by_name = totals_by_name(Tracer::collect());
    const auto total = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.total_s;
    };
    double ev = 0, data = 0, ctrl = 0, detours = 0, stolen = 0, extra = 0;
    for (const Pass& p : traced) {
      for (const RunOutcome* r :
           {&p.stencil_base, &p.stencil_noisy, &p.lulesh_base}) {
        ev += static_cast<double>(r->result.events_processed);
        data += static_cast<double>(r->result.data_messages);
        ctrl += static_cast<double>(r->result.control_messages);
      }
      detours += static_cast<double>(p.stencil_noisy.result.detours_charged);
      stolen += to_seconds(p.stencil_noisy.result.noise_stolen);
      extra += static_cast<double>(p.stencil_noisy.result.events_processed) -
               static_cast<double>(p.stencil_base.result.events_processed);
    }
    const double run_s = total("sim.baseline") + total("noise.noisy_run");
    double stencil_base_s = 0.0, noisy_s = 0.0;
    for (const Pass& p : traced) {
      stencil_base_s += p.stencil_base.wall_s;
      noisy_s += p.stencil_noisy.wall_s;
    }
    report.layer("goal.build_s", build_s, "s");
    report.layer("goal.ops",
                 static_cast<double>(graphs->stencil.total_ops() +
                                     graphs->lulesh.total_ops()),
                 "count");
    report.layer("goal.resident_mib",
                 static_cast<double>(graphs->stencil.resident_bytes() +
                                     graphs->lulesh.resident_bytes()) /
                     (1024.0 * 1024.0),
                 "MiB");
    report.layer("sim.baseline_s", total("sim.baseline"), "s");
    report.layer("sim.run_s", run_s, "s");
    report.layer("sim.events", ev, "count");
    report.layer("sim.data_msgs", data, "count");
    report.layer("sim.ctrl_msgs", ctrl, "count");
    report.layer("sim.ns_per_event", ev > 0 ? run_s * 1e9 / ev : 0.0, "ns");
    report.layer("sim.context_mib", runs->context_bytes() / (1024.0 * 1024.0),
                 "MiB");
    report.layer("noise.detours", detours, "count");
    report.layer("noise.extra_events", extra, "count");
    report.layer("noise.stolen_s", stolen, "s");
    report.layer("noise.host_overhead",
                 stencil_base_s > 0 ? noisy_s / stencil_base_s : 0.0, "ratio");
    report.layer("noise.expected_ces", expected, "count");
    report.layer("noise.zero_ce_cells", expected < 1.0 ? 1.0 : 0.0, "count");
    report.layer("trace.overhead_frac",
                 median(traced_t.wall) / median(t.wall) - 1.0, "ratio");
    report_layer_self_times(Tracer::collect(), report);
  }
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace celogbench
