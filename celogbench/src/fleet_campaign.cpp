// fleet_campaign — a fleetdb::CampaignRunner under the threshold
// maintenance policy: each epoch runs its observation runs in parallel on
// four threads with fleet collectors attached, folds them into the MemDb,
// and lets the policy offline rows and replace DIMMs. Every few epochs the
// benchmark checkpoints the campaign and restores it in place. Set-up is
// the runner's construction (graph build + baseline); the timed phase is a
// fixed number of epochs sized by --seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "fleetdb/campaign.hpp"
#include "fleetdb/fleet_noise.hpp"
#include "fleetdb/maintenance.hpp"
#include "sim/run_context.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace celogbench {
namespace {

using namespace celog;

constexpr int kSetupReps = 5;
constexpr unsigned kSetupThreads = 4;
constexpr int kCheckpointEvery = 5;
/// Epochs per second of --seconds (sizes the timed phase: about 10 s of
/// epochs on a 4-core host).
constexpr double kEpochsPerSecond = 3.5;

fleetdb::CampaignConfig campaign_config(bool tiny, std::uint64_t seed) {
  fleetdb::CampaignConfig c;
  c.workload = "lammps-crack";
  c.ranks = tiny ? 16 : 64;
  // More runs than threads per epoch, so one slow thread does not hold
  // the epoch's barrier.
  c.runs_per_epoch = tiny ? 2 : 16;
  c.sim_target_s = tiny ? 0.02 : 0.05;
  c.campaign_seed = seed;
  // Accelerated aging (ablation_fleet's default): rows heat over several
  // epochs instead of tripping every threshold in the first.
  c.noise.mtbce = 4 * kMillisecond;
  c.jobs = 4;
  return c;
}

/// The graph configuration CampaignRunner builds for `c` (its documented
/// sizing rule), for the benchmark's own event accounting and probes.
workloads::WorkloadConfig twin_config(const fleetdb::CampaignConfig& c) {
  const auto w = workloads::find_workload(c.workload);
  workloads::WorkloadConfig wc;
  wc.ranks = c.ranks;
  const auto syncs_per_iter =
      std::max<TimeNs>(1, w->sync_period() / w->iteration_time());
  wc.iterations = w->iterations_for(
      from_seconds(c.sim_target_s),
      std::max(20, static_cast<int>(2 * syncs_per_iter)));
  wc.seed = 1;
  return wc;
}

/// Checkpoint -> restore into a fresh runner -> continue must match the
/// uninterrupted campaign byte for byte. Returns the uninterrupted
/// campaign's digest (stats + serialized DB).
std::uint64_t continuation_digest(const fleetdb::CampaignConfig& c, int epochs,
                                  Report& report) {
  fleetdb::ThresholdMaintenancePolicy p1, p2, p3;
  fleetdb::CampaignRunner whole(c, p1);
  whole.run(epochs);
  fleetdb::CampaignRunner first(c, p2);
  first.run(epochs / 2);
  const std::string cut = first.checkpoint();
  fleetdb::CampaignRunner resumed(c, p3);
  resumed.restore(cut);
  resumed.run(epochs - epochs / 2);
  report.check(resumed.stats() == whole.stats() &&
                   resumed.db().serialize() == whole.db().serialize(),
               "checkpoint -> restore -> continue diverged (seed " +
                   std::to_string(c.campaign_seed) + ")");
  Digest d;
  d.campaign(whole.stats());
  d.bytes(whole.db().serialize());
  return d.value();
}

}  // namespace

void run_fleet_campaign(const RunConfig& cfg, Report& report) {
  const fleetdb::CampaignConfig config = campaign_config(cfg.tiny, cfg.seed);
  fleetdb::ThresholdMaintenancePolicy policy;

  // Set-up: CampaignRunner construction (graph build + baseline), one
  // runner per thread on all threads at once; a round records the mean
  // construction time. One thread alone reads 0.07 or 0.10 s on the
  // reference host, as its core's SMT sibling is idle or busy with other
  // tenants' work, and that changes from second to second; the mean over
  // every core follows the host instead of one core.
  std::vector<double> setup;
  std::unique_ptr<fleetdb::CampaignRunner> runner;
  {
    util::ThreadPool pool(kSetupThreads);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      std::vector<std::unique_ptr<fleetdb::CampaignRunner>> built(
          kSetupThreads);
      std::vector<double> seconds(kSetupThreads);
      pool.parallel_for_indexed(kSetupThreads, [&](std::size_t i) {
        const bench::WallTimer timer;
        built[i] = std::make_unique<fleetdb::CampaignRunner>(config, policy);
        seconds[i] = timer.seconds();
      });
      double sum = 0.0;
      for (const double s : seconds) sum += s;
      setup.push_back(sum / kSetupThreads);
      runner = std::move(built[0]);
    }
  }
  // The traced pass restores this and repeats the untraced pass's epochs.
  const std::string fresh_campaign = runner->checkpoint();
  // Events per run, from an identically configured runner's baseline (a
  // CE detour stretches intervals but adds no events; exa_100k checks that
  // events == ops + messages on noisy runs).
  const auto workload = workloads::find_workload(config.workload);
  const core::ExperimentRunner twin(*workload, twin_config(config));
  const double events_per_run =
      static_cast<double>(twin.baseline().events_processed);

  const int epochs = std::max(
      2, static_cast<int>(std::lround(cfg.seconds * kEpochsPerSecond)));
  struct Timed {
    std::vector<double> epoch_s, checkpoint_s, restore_s;
    double checkpoint_bytes = 0.0;
    double wall = 0.0, cpu = 0.0, years = 0.0;
    std::uint64_t runs = 0;
  };
  const auto timed = [&](bool traced) {
    Tracer::set_enabled(traced);
    Timed t;
    const auto runs0 = runner->stats().runs;
    const double years0 = runner->fleet_years();
    const double cpu0 = cpu_seconds();
    const bench::WallTimer timer;
    for (int e = 0; e < epochs; ++e) {
      {
        const Span span("fleetdb.epoch");
        runner->run_epoch();
        t.epoch_s.push_back(span.seconds());
      }
      if ((e + 1) % kCheckpointEvery == 0) {
        std::string text;
        {
          const Span span("fleetdb.checkpoint");
          text = runner->checkpoint();
          t.checkpoint_s.push_back(span.seconds());
        }
        {
          const Span span("fleetdb.restore");
          runner->restore(text);
          t.restore_s.push_back(span.seconds());
        }
        t.checkpoint_bytes = static_cast<double>(text.size());
        report.check(runner->checkpoint() == text,
                     "restore changed the campaign state at epoch " +
                         std::to_string(runner->epochs_done()));
      }
    }
    t.wall = timer.seconds();
    t.cpu = cpu_seconds() - cpu0;
    t.runs = runner->stats().runs - runs0;
    t.years = runner->fleet_years() - years0;
    Tracer::set_enabled(false);
    return t;
  };
  const Timed t = timed(false);

  report.check(t.runs == static_cast<std::uint64_t>(epochs) *
                             static_cast<std::uint64_t>(config.runs_per_epoch),
               "campaign ran " + std::to_string(t.runs) + " runs");
  report.check(runner->epochs_done() == static_cast<std::uint64_t>(epochs),
               "campaign epoch cursor");
  const auto summary = runner->db().summary();
  report.check(summary.total_ces == runner->db().total_ces() &&
                   summary.total_ces > 0,
               "campaign observed no CEs");

  // Continuation at the run's seed (small) and digests at recorded seeds.
  fleetdb::CampaignConfig small = campaign_config(true, cfg.seed);
  continuation_digest(small, 8, report);
  for (const std::uint64_t s : kRecordedSeeds) {
    small.campaign_seed = s;
    report.digest(s, continuation_digest(small, 8, report));
  }

  std::vector<double> latency_ms;
  for (const double s : t.epoch_s) latency_ms.push_back(s * 1e3);
  report.e2e("setup_s", median(setup), "s");
  report.e2e("cpu_s", t.cpu, "s");
  report.e2e("cells_per_s", static_cast<double>(t.runs) / t.wall, "1/s");
  report.e2e("sim_events_per_s",
             static_cast<double>(t.runs) * events_per_run / t.wall, "1/s");
  report_latency(latency_ms, report);
  report.info("fleet_years_per_hour", t.years / t.wall * 3600.0, "yr/h",
              std::to_string(epochs) + " epochs x " +
                  std::to_string(config.runs_per_epoch) + " runs, " +
                  std::to_string(config.ranks) + " nodes");

  if (cfg.trace) {
    Tracer::clear();
    const std::string untraced_end = runner->checkpoint();
    runner->restore(fresh_campaign);
    const Timed tr = timed(true);
    report.check(runner->checkpoint() == untraced_end,
                 "traced pass diverged from the untraced one");
    const auto& stats = runner->stats();
    const auto& db = runner->db();
    report.layer("fleetdb.epoch_s.p50", median(tr.epoch_s), "s");
    report.layer("fleetdb.checkpoint_s", median(tr.checkpoint_s), "s");
    report.layer("fleetdb.restore_s", median(tr.restore_s), "s");
    report.layer("fleetdb.checkpoint_kib", tr.checkpoint_bytes / 1024.0, "KiB");
    report.layer("fleetdb.runs", static_cast<double>(stats.runs), "count");
    report.layer("fleetdb.ces", static_cast<double>(db.total_ces()), "count");
    report.layer("fleetdb.suppressed",
                 static_cast<double>(db.total_suppressed()), "count");
    report.layer("fleetdb.pages_offlined",
                 static_cast<double>(stats.pages_offlined), "count");
    report.layer("fleetdb.dimms_replaced",
                 static_cast<double>(stats.dimms_replaced), "count");
    report.layer("trace.overhead_frac", tr.wall / t.wall - 1.0, "ratio");

    // Layer probes: the graph build, a baseline and one collector-observed
    // noisy run under the campaign's current fleet state.
    Tracer::set_enabled(true);
    const auto wc = twin_config(config);
    double build_s = 0.0;
    std::optional<goal::TaskGraph> graph;
    {
      const Span span("goal.build");
      graph.emplace(workload->build(wc));
      build_s = span.seconds();
    }
    const sim::Simulator simulator(*graph, sim::NetworkParams::cray_xc40());
    sim::RunContext ctx;
    sim::SimResult base, noisy;
    double base_s = 0.0, noisy_s = 0.0;
    {
      const Span span("sim.baseline");
      base = simulator.run_baseline(ctx);
      base_s = span.seconds();
    }
    // The first epoch's fleet state: every fault row still serving.
    fleetdb::MemDb fresh;
    fresh.install_fleet(config.ranks, config.noise.geometry.dimms, 0);
    const auto state = fleetdb::FleetEpochState::build(
        config.noise, config.campaign_seed, config.ranks, fresh);
    const fleetdb::FleetCeNoiseModel noise(config.noise, state);
    fleetdb::FleetCollector collector(config.noise, state);
    collector.begin_run(config.ranks, cfg.seed);
    {
      const Span span("noise.noisy_run");
      noisy = simulator.run(noise, cfg.seed, ctx,
                            static_cast<TimeNs>(100.0 * static_cast<double>(
                                                            base.makespan)),
                            {}, &collector);
      noisy_s = span.seconds();
    }
    Tracer::set_enabled(false);
    const double ev = static_cast<double>(base.events_processed +
                                          noisy.events_processed);
    report.layer("goal.build_s", build_s, "s");
    report.layer("goal.ops", static_cast<double>(graph->total_ops()), "count");
    report.layer("goal.resident_mib",
                 static_cast<double>(graph->resident_bytes()) /
                     (1024.0 * 1024.0),
                 "MiB");
    report.layer("sim.baseline_s", base_s, "s");
    report.layer("sim.run_s", base_s + noisy_s, "s");
    report.layer("sim.events", ev, "count");
    report.layer("sim.data_msgs",
                 static_cast<double>(base.data_messages + noisy.data_messages),
                 "count");
    report.layer("sim.ctrl_msgs",
                 static_cast<double>(base.control_messages +
                                     noisy.control_messages),
                 "count");
    report.layer("sim.ns_per_event", ev > 0 ? (base_s + noisy_s) * 1e9 / ev : 0,
                 "ns");
    report.layer("sim.context_mib",
                 static_cast<double>(ctx.resident_bytes()) / (1024.0 * 1024.0),
                 "MiB");
    report.layer("noise.detours", static_cast<double>(noisy.detours_charged),
                 "count");
    report.layer("noise.extra_events",
                 static_cast<double>(noisy.events_processed) -
                     static_cast<double>(base.events_processed),
                 "count");
    report.layer("noise.stolen_s", to_seconds(noisy.noise_stolen), "s");
    report.layer("noise.host_overhead", base_s > 0 ? noisy_s / base_s : 0.0,
                 "ratio");
    const double expected = static_cast<double>(config.ranks) *
                            static_cast<double>(base.makespan) /
                            static_cast<double>(config.noise.mtbce);
    report.layer("noise.expected_ces", expected, "count");
    report.layer("noise.zero_ce_cells", expected < 1.0 ? 1.0 : 0.0, "count");
    report_layer_self_times(Tracer::collect(), report);
  }
  runner.reset();
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace celogbench
