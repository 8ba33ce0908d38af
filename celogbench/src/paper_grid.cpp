// paper_grid — the Fig. 5 cell grid through ExperimentRunner::measure: the
// nine application models x the five exascale systems x the three logging
// modes, at 128 materialized ranks with rate-preserving scaling, spread over
// at most four threads. Set-up builds the nine graphs and their baselines;
// the timed phase measures whole passes over the grid, each cell with its
// own noise seed derived from --seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/logging_mode.hpp"
#include "core/system_config.hpp"
#include "noise/noise_model.hpp"
#include "server/protocol.hpp"
#include "sim/run_context.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace celogbench {
namespace {

using namespace celog;

constexpr int kSeedsPerCell = 2;
constexpr double kHorizon = 100.0;
constexpr unsigned kThreads = 4;
constexpr int kSetupReps = 5;
/// Jitter seed of the grid's graphs, as in the figure benches; --seed
/// drives every cell's noise.
constexpr std::uint64_t kGraphSeed = 1;
/// Cells measured per second of --seconds: sizes the fixed work of the
/// timed phase (about one pass over the grid per 10 s on a 4-core host).
constexpr double kCellsPerSecond = 14.0;

struct Shape {
  goal::Rank ranks = 128;
  TimeNs sim_target = 4 * kSecond;
  std::size_t workloads = 9;
  std::size_t systems = 5;
};

Shape shape_for(const RunConfig& cfg) {
  Shape s;
  if (cfg.tiny) {
    s.ranks = 16;
    s.sim_target = kSecond / 2;
    s.workloads = 3;
    s.systems = 2;
  }
  return s;
}

/// One graph of the grid: the workload at the scaled rank count and trace
/// block, iterations covering the target simulated time (the figure
/// benches' rule), jitter seeded from `graph_seed`.
workloads::WorkloadConfig grid_config(const workloads::Workload& w,
                                      const core::ScaledSystem& scale,
                                      TimeNs sim_target,
                                      std::uint64_t graph_seed) {
  workloads::WorkloadConfig config;
  config.ranks = scale.ranks;
  config.trace_block = core::scaled_trace_block(w, scale);
  const auto syncs_per_iter =
      std::max<TimeNs>(1, w.sync_period() / w.iteration_time());
  const int min_iters = std::max(20, static_cast<int>(2 * syncs_per_iter));
  config.iterations = w.iterations_for(sim_target, min_iters);
  config.seed = graph_seed;
  return config;
}

struct Grid {
  std::vector<std::shared_ptr<const workloads::Workload>> workloads;
  std::vector<core::SystemConfig> systems;
  std::vector<core::LoggingMode> modes;
  core::ScaledSystem scale;

  std::size_t cells() const {
    return workloads.size() * systems.size() * modes.size();
  }
  // Cells are numbered workload-major, then system, then mode.
  std::size_t workload_of(std::size_t cell) const {
    return cell / (systems.size() * modes.size());
  }
  const core::SystemConfig& system_of(std::size_t cell) const {
    return systems[(cell / modes.size()) % systems.size()];
  }
  core::LoggingMode mode_of(std::size_t cell) const {
    return modes[cell % modes.size()];
  }
  TimeNs mtbce(std::size_t cell) const {
    return core::scaled_mtbce(system_of(cell), scale);
  }
};

Grid make_grid(const Shape& shape) {
  Grid g;
  const auto& all = workloads::all_workloads();
  g.workloads.assign(all.begin(),
                     all.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(shape.workloads, all.size())));
  const auto systems = core::systems::exascale_systems();
  g.systems.assign(systems.begin(),
                   systems.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         shape.systems, systems.size())));
  g.modes = core::all_logging_modes();
  g.scale = core::scale_system(g.systems.front().simulated_nodes, shape.ranks);
  for (const auto& sys : g.systems) {
    if (sys.simulated_nodes != g.systems.front().simulated_nodes) {
      throw std::runtime_error("paper_grid assumes one machine size");
    }
  }
  return g;
}

using Runners = std::vector<std::unique_ptr<core::ExperimentRunner>>;

Runners build_runners(const Grid& grid, const Shape& shape,
                      std::uint64_t graph_seed, util::ThreadPool& pool) {
  Runners runners(grid.workloads.size());
  pool.parallel_for_indexed(runners.size(), [&](std::size_t i) {
    const auto& w = *grid.workloads[i];
    const Span span("core.runner_build");
    runners[i] = std::make_unique<core::ExperimentRunner>(
        w, grid_config(w, grid.scale, shape.sim_target, graph_seed));
  });
  return runners;
}

core::SlowdownResult measure_cell(const Grid& grid, const Runners& runners,
                                  std::size_t cell, std::uint64_t base_seed) {
  const noise::UniformCeNoiseModel noise(grid.mtbce(cell),
                                         core::cost_model(grid.mode_of(cell)));
  const Span span("core.measure");
  return runners[grid.workload_of(cell)]->measure(noise, kSeedsPerCell,
                                                  base_seed, kHorizon, 1);
}

struct CellOutcome {
  core::SlowdownResult result;
  double wall_s = 0.0;
};

/// Grid cells heaviest first (by their graph's baseline event count, then
/// firmware before software before hardware-only), so a pass ends on light
/// cells instead of waiting on a straggler.
std::vector<std::size_t> heaviest_first(const Grid& grid,
                                        const Runners& runners) {
  std::vector<std::size_t> order(grid.cells());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  const auto events = [&](std::size_t c) {
    return runners[grid.workload_of(c)]->baseline().events_processed;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (events(a) != events(b)) return events(a) > events(b);
                     return grid.mode_of(a) > grid.mode_of(b);
                   });
  return order;
}

/// The timed phase: `cells` work items over the pool, whole passes over the
/// grid in heaviest-first order; outcome i is grid cell i % grid.cells().
std::vector<CellOutcome> timed_cells(const Grid& grid, const Runners& runners,
                                     std::uint64_t seed, std::size_t cells,
                                     util::ThreadPool& pool) {
  const std::vector<std::size_t> order = heaviest_first(grid, runners);
  std::vector<CellOutcome> out(cells);
  pool.parallel_for_indexed(cells, [&](std::size_t k) {
    const std::size_t i =
        k - k % grid.cells() + order[k % grid.cells()];
    const Span span("core.cell");
    out[i].result = measure_cell(grid, runners, i % grid.cells(),
                                 mix(seed, i));
    out[i].wall_s = span.seconds();
  });
  return out;
}

/// Result digest at a recorded seed: two workloads of the full-size grid
/// across every system and mode, on graphs jittered from that seed —
/// baselines, served result lines, and one single run's full SimResult.
std::uint64_t recorded_digest(std::uint64_t seed, util::ThreadPool& pool) {
  const Shape shape;
  Grid sub = make_grid(shape);
  sub.workloads = {workloads::find_workload("lulesh"),
                   workloads::find_workload("lammps-lj")};
  const Runners runners = build_runners(sub, shape, seed, pool);
  std::vector<std::string> lines(sub.cells());
  pool.parallel_for_indexed(sub.cells(), [&](std::size_t c) {
    lines[c] = server::result_line(static_cast<std::int64_t>(c),
                                   measure_cell(sub, runners, c, mix(seed, c)));
  });
  Digest d;
  for (const auto& r : runners) d.sim_result(r->baseline());
  for (const auto& l : lines) d.bytes(l);
  const noise::UniformCeNoiseModel noise(
      sub.mtbce(0), core::cost_model(core::LoggingMode::kFirmware));
  d.sim_result(runners[0]->run_once(noise, seed, kHorizon));
  return d.value();
}

/// Per-layer probes for the traced run: the graph build, the baseline and
/// one noisy run of every workload, called layer by layer.
void layer_probes(const Grid& grid, const Shape& shape, std::uint64_t seed,
                  const Runners& runners, Report& report) {
  double build_s = 0.0, baseline_s = 0.0, noisy_s = 0.0;
  double ops = 0.0, resident = 0.0, context = 0.0;
  double events = 0.0, data = 0.0, ctrl = 0.0, detours = 0.0, stolen = 0.0;
  double extra = 0.0;
  for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi) {
    const auto& w = *grid.workloads[wi];
    const auto config =
        grid_config(w, grid.scale, shape.sim_target, kGraphSeed);
    std::optional<goal::TaskGraph> graph;
    {
      const Span span("goal.build");
      graph.emplace(w.build(config));
      build_s += span.seconds();
    }
    ops += static_cast<double>(graph->total_ops());
    resident += static_cast<double>(graph->resident_bytes());
    const sim::Simulator simulator(*graph, sim::NetworkParams::cray_xc40());
    sim::RunContext ctx;
    sim::SimResult base;
    {
      const Span span("sim.baseline");
      base = simulator.run_baseline(ctx);
      baseline_s += span.seconds();
    }
    // The firmware cell at the Cielo x10 system: the paper's headline.
    const std::size_t cell =
        wi * grid.systems.size() * grid.modes.size() +
        std::min<std::size_t>(1, grid.systems.size() - 1) * grid.modes.size() +
        2;
    const noise::UniformCeNoiseModel noise(
        grid.mtbce(cell), core::cost_model(grid.mode_of(cell)));
    sim::SimResult noisy;
    {
      const Span span("noise.noisy_run");
      noisy = simulator.run(noise, mix(seed, cell), ctx,
                            static_cast<TimeNs>(kHorizon *
                                                static_cast<double>(
                                                    base.makespan)));
      noisy_s += span.seconds();
    }
    context = std::max(context, static_cast<double>(ctx.resident_bytes()));
    for (const auto* r : {&base, &noisy}) {
      events += static_cast<double>(r->events_processed);
      data += static_cast<double>(r->data_messages);
      ctrl += static_cast<double>(r->control_messages);
    }
    detours += static_cast<double>(noisy.detours_charged);
    stolen += to_seconds(noisy.noise_stolen);
    extra += static_cast<double>(noisy.events_processed) -
             static_cast<double>(base.events_processed);
    report.check(base.events_processed ==
                     runners[wi]->baseline().events_processed,
                 "baseline probe of " + w.name() + " disagrees with runner");
  }
  report.layer("goal.build_s", build_s, "s");
  report.layer("goal.ops", ops, "count");
  report.layer("goal.resident_mib", resident / (1024.0 * 1024.0), "MiB");
  report.layer("sim.baseline_s", baseline_s, "s");
  report.layer("sim.run_s", baseline_s + noisy_s, "s");
  report.layer("sim.events", events, "count");
  report.layer("sim.data_msgs", data, "count");
  report.layer("sim.ctrl_msgs", ctrl, "count");
  report.layer("sim.ns_per_event",
               events > 0 ? (baseline_s + noisy_s) * 1e9 / events : 0.0, "ns");
  report.layer("sim.context_mib", context / (1024.0 * 1024.0), "MiB");
  report.layer("noise.detours", detours, "count");
  report.layer("noise.extra_events", extra, "count");
  report.layer("noise.stolen_s", stolen, "s");
  report.layer("noise.host_overhead",
               baseline_s > 0 ? noisy_s / baseline_s : 0.0, "ratio");
}

}  // namespace

void run_paper_grid(const RunConfig& cfg, Report& report) {
  const Shape shape = shape_for(cfg);
  const Grid grid = make_grid(shape);
  util::ThreadPool pool(kThreads);

  // Set-up: graph builds + baselines, several times; keep the last.
  std::vector<double> setup;
  Runners runners;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    runners.clear();
    const bench::WallTimer timer;
    runners = build_runners(grid, shape, kGraphSeed, pool);
    setup.push_back(timer.seconds());
  }
  report.check(runners.size() == grid.workloads.size(), "runner build");

  // Whole passes over the grid, so every run measures the same cell mix.
  const std::size_t cells =
      grid.cells() *
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                   cfg.seconds * kCellsPerSecond /
                                   static_cast<double>(grid.cells()))));
  const auto timed = [&](bool traced) {
    Tracer::set_enabled(traced);
    const double cpu0 = cpu_seconds();
    const bench::WallTimer timer;
    auto out = timed_cells(grid, runners, cfg.seed, cells, pool);
    const double wall = timer.seconds();
    const double cpu = cpu_seconds() - cpu0;
    Tracer::set_enabled(false);
    return std::make_tuple(std::move(out), wall, cpu);
  };
  auto [outcomes, wall, cpu] = timed(false);

  // Checks at the run's seed: every cell completed all its seeds or is
  // flagged no-progress, with finite statistics.
  double events = 0.0;
  std::vector<double> latency_ms;
  int no_progress_seeds = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const core::SlowdownResult& r = outcomes[i].result;
    const std::size_t c = i % grid.cells();
    report.check(
        (r.seeds == kSeedsPerCell || r.no_progress) && r.seeds >= 0 &&
            std::isfinite(r.mean_pct) && r.baseline_makespan > 0,
        "cell " + std::to_string(i) + " result is inconsistent");
    no_progress_seeds += kSeedsPerCell - r.seeds;
    events += static_cast<double>(r.seeds) *
              static_cast<double>(
                  runners[grid.workload_of(c)]->baseline().events_processed);
    latency_ms.push_back(outcomes[i].wall_s * 1e3);
  }
  // The slowest cells set the tail of the timed phase.
  std::vector<std::size_t> by_time(outcomes.size());
  for (std::size_t i = 0; i < by_time.size(); ++i) by_time[i] = i;
  std::sort(by_time.begin(), by_time.end(), [&](std::size_t a, std::size_t b) {
    return outcomes[a].wall_s > outcomes[b].wall_s;
  });
  for (std::size_t k = 0; k < std::min<std::size_t>(5, by_time.size()); ++k) {
    const std::size_t c = by_time[k] % grid.cells();
    std::printf("slow   %s/%s/%s %.3f s\n",
                grid.workloads[grid.workload_of(c)]->name().c_str(),
                grid.system_of(c).name.c_str(),
                core::to_string(grid.mode_of(c)), outcomes[by_time[k]].wall_s);
  }
  // Reuse must not leak into results: re-measure the first cells serially
  // on the warm runners and compare the serialized results byte for byte.
  for (std::size_t i = 0; i < std::min<std::size_t>(4, cells); ++i) {
    const auto again = measure_cell(grid, runners, i % grid.cells(),
                                    mix(cfg.seed, i));
    report.check(server::result_line(0, again) ==
                     server::result_line(0, outcomes[i].result),
                 "cell " + std::to_string(i) + " not reproducible");
  }

  // Numbers that mean nothing: expected CEs per run (ranks x simulated time
  // / MTBCE) against observed detours, per grid cell.
  double expected_ces = 0.0, observed = 0.0;
  int zero_ce_cells = 0;
  for (std::size_t c = 0; c < grid.cells(); ++c) {
    const auto& runner = *runners[grid.workload_of(c)];
    const double expected =
        static_cast<double>(grid.scale.ranks) *
        static_cast<double>(runner.baseline().makespan) /
        static_cast<double>(grid.mtbce(c));
    expected_ces += expected;
    observed += outcomes[c].result.mean_detours;
    if (expected < 1.0) ++zero_ce_cells;
    std::printf("cell   %s/%s/%s expects %.4g CEs per run, observed %.4g "
                "detours%s\n",
                grid.workloads[grid.workload_of(c)]->name().c_str(),
                grid.system_of(c).name.c_str(),
                core::to_string(grid.mode_of(c)), expected,
                outcomes[c].result.mean_detours,
                expected < 1.0 ? " (0-CE cell: n/a)" : "");
  }
  report.info("noise.expected_ces", expected_ces, "count",
              "per run, summed over one pass of the grid");
  report.info("noise.detours", observed, "count",
              "observed per run, summed over one pass of the grid");
  report.info("noise.zero_ce_cells", zero_ce_cells, "count");
  report.info("core.no_progress_seeds", no_progress_seeds, "count");

  for (const std::uint64_t s : kRecordedSeeds) {
    report.digest(s, recorded_digest(s, pool));
  }

  report.e2e("setup_s", median(setup), "s");
  report.e2e("cpu_s", cpu, "s");
  report.e2e("cells_per_s", static_cast<double>(cells) / wall, "1/s");
  report.e2e("sim_events_per_s", events / wall, "1/s");
  report_latency(latency_ms, report);
  report.info("cells", static_cast<double>(cells), "count",
              "timed grid cells (" + std::to_string(grid.cells()) +
                  " per pass)");

  if (cfg.trace) {
    Tracer::clear();
    auto [traced, traced_wall, traced_cpu] = timed(true);
    static_cast<void>(traced_cpu);
    std::vector<double> cell_s;
    double busy = 0.0;
    int lost = 0;
    for (const CellOutcome& o : traced) {
      cell_s.push_back(o.wall_s);
      busy += o.wall_s;
      lost += kSeedsPerCell - o.result.seeds;
    }
    report.layer("core.cell_s.p50", quantile(cell_s, 0.5), "s");
    report.layer("core.cell_s.max", quantile(cell_s, 1.0), "s");
    report.layer("core.pool_busy_frac",
                 busy / (traced_wall * static_cast<double>(pool.threads())),
                 "ratio");
    report.layer("core.no_progress_seeds", lost, "count");
    report.layer("trace.overhead_frac", traced_wall / wall - 1.0, "ratio");
    Tracer::set_enabled(true);
    layer_probes(grid, shape, cfg.seed, runners, report);
    Tracer::set_enabled(false);
    report.layer("noise.expected_ces", expected_ces, "count");
    report.layer("noise.zero_ce_cells", zero_ce_cells, "count");
    report_layer_self_times(Tracer::collect(), report);
  }
  runners.clear();
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace celogbench
