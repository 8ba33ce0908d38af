// celogbench/src/workloads.hpp
//
// The four workloads. Each builds its inputs from cfg.seed, sets up, runs a
// timed phase of fixed work sized by cfg.seconds, verifies every output, and
// fills the report. End-to-end metrics every workload reports (names in
// BENCHMARK.json):
//
//   setup_s           median of several set-ups (work before the timed phase)
//   peak_rss_mib      peak resident set of the process
//   cpu_s             user + system CPU of the timed phase
//   cells_per_s       units of work per second of timed wall time
//                     (serve_open: per second of summed sweep service time)
//   sim_events_per_s  simulator events per second of the same time
//
// Every workload also prints the latency of one unit of work (median and
// tail, see tail()) by name; it is not in the result line because its
// run-to-run spread on the reference host is wider than any bound.
//
// In a traced run (cfg.trace) the timed phase runs once untraced and once
// traced; the per-layer metrics come from the traced pass and
// trace.overhead_frac compares the two.
#pragma once

#include "common.hpp"

namespace celogbench {

void run_paper_grid(const RunConfig& cfg, Report& report);
void run_exa_100k(const RunConfig& cfg, Report& report);
void run_serve_open(const RunConfig& cfg, Report& report);
void run_fleet_campaign(const RunConfig& cfg, Report& report);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Per-layer metrics every traced run reports, with their units; a
/// workload that does no work in a layer reports 0 for it.
extern const MetricSpec kLayerMetrics[];
extern const std::size_t kLayerMetricCount;

/// The end-to-end metric names and units (every untraced run reports all).
extern const MetricSpec kEndToEndMetrics[];
extern const std::size_t kEndToEndMetricCount;

/// Prints latency_p50_ms and latency_tail_ms of `latency_ms`, with the
/// percentile the tail is.
void report_latency(const std::vector<double>& latency_ms, Report& report);

/// Records the per-layer self time and call count of every layer seen in
/// `spans` as "<layer>.self_s" / "<layer>.calls".
void report_layer_self_times(const std::vector<SpanRec>& spans,
                             Report& report);

}  // namespace celogbench
