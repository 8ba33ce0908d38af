// celogbench — one benchmark for celog: four workloads, end-to-end metrics
// from untraced runs, per-layer metrics from traced runs, and correctness
// checks (result digests at recorded seeds, invariants at the run's seed)
// in the same command. See celogbench/README.md.
//
//   celogbench --workload <paper_grid|exa_100k|serve_open|fleet_campaign>
//              --seed N --seconds S --trace 0|1
//              [--expected FILE] [--record-digests FILE] [--tiny]
//              [--scratch DIR]
//
// The last line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 0 only when every check passed.
#include <sys/stat.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace celogbench {

const MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
    {"cpu_s", "s"},             {"cells_per_s", "1/s"},
    {"sim_events_per_s", "1/s"},
};
const std::size_t kEndToEndMetricCount = std::size(kEndToEndMetrics);

const MetricSpec kLayerMetrics[] = {
    {"goal.build_s", "s"},
    {"goal.ops", "count"},
    {"goal.resident_mib", "MiB"},
    {"sim.baseline_s", "s"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.data_msgs", "count"},
    {"sim.ctrl_msgs", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.context_mib", "MiB"},
    {"noise.detours", "count"},
    {"noise.extra_events", "count"},
    {"noise.stolen_s", "s"},
    {"noise.host_overhead", "ratio"},
    {"noise.expected_ces", "count"},
    {"noise.zero_ce_cells", "count"},
    {"core.cell_s.p50", "s"},
    {"core.cell_s.max", "s"},
    {"core.pool_busy_frac", "ratio"},
    {"core.no_progress_seeds", "count"},
    {"fleetdb.epoch_s.p50", "s"},
    {"fleetdb.checkpoint_s", "s"},
    {"fleetdb.restore_s", "s"},
    {"fleetdb.checkpoint_kib", "KiB"},
    {"fleetdb.runs", "count"},
    {"fleetdb.ces", "count"},
    {"fleetdb.suppressed", "count"},
    {"fleetdb.pages_offlined", "count"},
    {"fleetdb.dimms_replaced", "count"},
    {"server.ping_rtt_us.p50", "us"},
    {"server.ping_rtt_us.p99", "us"},
    {"server.parse_us", "us"},
    {"server.serialize_us", "us"},
    {"server.sweep_ms.p50", "ms"},
    {"server.registry_hit_ratio", "ratio"},
    {"server.registry_builds", "count"},
    {"server.registry_evictions", "count"},
    {"server.queue_depth.max", "count"},
    {"server.rejected", "count"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.backlog_growth", "count"},
    {"trace.overhead_frac", "ratio"},
    {"goal.self_s", "s"},
    {"sim.self_s", "s"},
    {"noise.self_s", "s"},
    {"core.self_s", "s"},
    {"fleetdb.self_s", "s"},
    {"server.self_s", "s"},
    {"loadgen.self_s", "s"},
    {"goal.calls", "count"},
    {"sim.calls", "count"},
    {"noise.calls", "count"},
    {"core.calls", "count"},
    {"fleetdb.calls", "count"},
    {"server.calls", "count"},
    {"loadgen.calls", "count"},
};
const std::size_t kLayerMetricCount = std::size(kLayerMetrics);

void report_layer_self_times(const std::vector<SpanRec>& spans,
                             Report& report) {
  for (const auto& [layer, t] : totals_by_layer(spans)) {
    report.layer(layer + ".self_s", t.self_s, "s");
    report.layer(layer + ".calls", static_cast<double>(t.count), "count");
  }
}

void report_latency(const std::vector<double>& latency_ms, Report& report) {
  int pct = 0;
  const double t = tail(latency_ms, pct);
  const std::string n = "n=" + std::to_string(latency_ms.size());
  report.info("latency_p50_ms", quantile(latency_ms, 0.5), "ms", n);
  report.info("latency_tail_ms", t, "ms",
              "p" + std::to_string(pct) + " of " + n);
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifndef __has_feature
#define __has_feature(x) 0
#endif

/// The sanitizer this translation unit was compiled with, as the compiler
/// reports it (GCC: __SANITIZE_*__; Clang: __has_feature), or "none".
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
  return "address";
#elif defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(memory_sanitizer)
  return "memory";
#else
  return "none";
#endif
}

bool sanitized_build() { return std::string(sanitizer()) != "none"; }

bool optimized_build() {
  const std::string type = CELOGBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
}

void print_fingerprint() {
  std::printf(
      "host   {\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"sanitizer\":\"%s\"}\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      CELOGBENCH_COMPILER, CELOGBENCH_BUILD_TYPE, sanitizer());
}

/// expected_digests.txt: "<workload> <seed> <hex digest>" per line, '#'
/// comments.
std::map<std::string, std::uint64_t> load_expected(const std::string& path,
                                                   bool& ok) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  ok = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string hex;
    if (!(ls >> workload >> seed >> hex)) continue;
    out[workload + " " + std::to_string(seed)] =
        std::strtoull(hex.c_str(), nullptr, 16);
  }
  return out;
}

void record_digests(const std::string& path, const std::string& workload,
                    const std::map<std::uint64_t, std::uint64_t>& digests) {
  // Keep other workloads' lines; replace this workload's.
  std::string kept;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(workload + " ", 0) == 0) continue;
    kept += line + "\n";
  }
  if (kept.empty()) {
    kept =
        "# celogbench result digests at the recorded seeds: <workload> "
        "<seed> <fnv1a-64>.\n"
        "# Seed 2 is held out: cite it for claims, tune nothing against "
        "it.\n";
  }
  for (const auto& [seed, d] : digests) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 " %016" PRIx64 "\n",
                  workload.c_str(), seed, d);
    kept += buf;
  }
  std::ofstream(path) << kept;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "celogbench: %s\nusage: celogbench --workload W --seed N "
               "--seconds S --trace 0|1 [--expected FILE] "
               "[--record-digests FILE] [--tiny] [--scratch DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace celogbench

int main(int argc, char** argv) {
  using namespace celogbench;
  RunConfig cfg;
  std::string expected_path;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--expected") {
      expected_path = value();
    } else if (arg == "--record-digests") {
      record_path = value();
    } else if (arg == "--scratch") {
      cfg.scratch_dir = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (cfg.scratch_dir.empty()) cfg.scratch_dir = ".";
  ::mkdir(cfg.scratch_dir.c_str(), 0755);

  print_fingerprint();
  if (!cfg.trace && !cfg.tiny && (!optimized_build() || sanitized_build())) {
    std::fprintf(stderr,
                 "celogbench: refusing to record end-to-end numbers from a "
                 "%s build%s\n",
                 CELOGBENCH_BUILD_TYPE,
                 sanitized_build() ? " with a sanitizer" : "");
    return 3;
  }

  Report report;
  Tracer::set_enabled(false);
  try {
    if (cfg.workload == "paper_grid") {
      run_paper_grid(cfg, report);
    } else if (cfg.workload == "exa_100k") {
      run_exa_100k(cfg, report);
    } else if (cfg.workload == "serve_open") {
      run_serve_open(cfg, report);
    } else if (cfg.workload == "fleet_campaign") {
      run_fleet_campaign(cfg, report);
    } else {
      return usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("uncaught exception: ") + e.what());
  }

  // Digests at the recorded seeds against the committed expectations.
  if (!record_path.empty()) {
    record_digests(record_path, cfg.workload, report.digests());
  } else if (!expected_path.empty()) {
    bool readable = false;
    const auto expected = load_expected(expected_path, readable);
    report.check(readable, "cannot read expected digests " + expected_path);
    for (const std::uint64_t seed : kRecordedSeeds) {
      const auto got = report.digests().find(seed);
      const auto want =
          expected.find(cfg.workload + " " + std::to_string(seed));
      if (got == report.digests().end() || want == expected.end()) {
        report.fail("no digest for " + cfg.workload + " seed " +
                    std::to_string(seed));
        continue;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "digest %s seed %" PRIu64 ": got %016" PRIx64
                    " want %016" PRIx64,
                    cfg.workload.c_str(), seed, got->second, want->second);
      if (report.check(got->second == want->second, buf)) {
        std::printf("ok     %s\n", buf);
      }
    }
  }

  if (cfg.trace) {
    const std::string path = cfg.scratch_dir + "/trace_" + cfg.workload +
                             "_" + std::to_string(cfg.seed) + ".jsonl";
    if (Tracer::write_jsonl(path)) {
      std::printf("trace  %zu spans -> %s\n", Tracer::collect().size(),
                  path.c_str());
    }
  }

  // Exactly the declared metric set for this mode, each with its unit.
  std::map<std::string, Metric> out;
  const auto& got = cfg.trace ? report.layer_metrics() : report.e2e_metrics();
  const MetricSpec* specs = cfg.trace ? kLayerMetrics : kEndToEndMetrics;
  const std::size_t n = cfg.trace ? kLayerMetricCount : kEndToEndMetricCount;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = got.find(specs[i].name);
    Metric m{0.0, specs[i].unit};
    if (it != got.end()) m.value = it->second.value;
    if (!std::isfinite(m.value)) {
      report.fail(std::string("non-finite metric ") + specs[i].name);
      m.value = 0.0;
    }
    if (!cfg.trace && it == got.end()) {
      report.fail(std::string("missing metric ") + specs[i].name);
    }
    std::printf("%s %-36s %18.6f %s\n", cfg.trace ? "layer " : "e2e   ",
                specs[i].name, m.value, m.unit.c_str());
    out[specs[i].name] = m;
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted(), 1);
  const std::uint64_t failed = report.failed();
  std::printf("e2e    %-36s %18.6f %s\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
