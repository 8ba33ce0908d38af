// celogbench/src/common.hpp
//
// Plumbing shared by the four workloads: the run options, the report every
// workload fills (metrics with units, failures, result digests), the
// in-memory span tracer, result digests, and process resource readings.
//
// Wall-clock time is read only through bench/wall_clock.hpp (WallTimer), the
// repository's single sanctioned clock seam.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fleetdb/campaign.hpp"
#include "sim/engine.hpp"
#include "wall_clock.hpp"

namespace celogbench {

/// What one invocation runs. `tiny` shrinks every size for the self-test.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  /// Run-scoped scratch directory inside the checkout (sockets, dumps).
  std::string scratch_dir;
};

/// SplitMix64 finalizer: independent seeds from (run seed, salt).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// The two seeds whose digests are committed in expected_digests.txt. The
/// second is held out: tune nothing against it, cite it for claims.
inline constexpr std::uint64_t kRecordedSeeds[] = {1, 2};

/// FNV-1a over bytes, with helpers for the result types the workloads
/// verify.
class Digest {
 public:
  void bytes(std::string_view s);
  void u64(std::uint64_t v);
  void sim_result(const celog::sim::SimResult& r);
  void campaign(const celog::fleetdb::CampaignStats& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run produces. Thread-safe: workloads record
/// failures from pool threads.
class Report {
 public:
  /// End-to-end metric (untraced runs only).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (traced runs).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Informational figure printed by name and unit but not in the result
  /// line (per-workload figures such as serve_open's low-rate latency).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

  void attempt();
  /// One failed operation; `what` is printed.
  void fail(const std::string& what);
  /// Checks `ok`; a false check is one attempted and failed operation.
  bool check(bool ok, const std::string& what);

  /// Digest of the workload's verification outputs at a recorded seed.
  void digest(std::uint64_t seed, std::uint64_t value);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
  const std::map<std::string, Metric>& layer_metrics() const { return layer_; }
  const std::map<std::uint64_t, std::uint64_t>& digests() const {
    return digests_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::uint64_t, std::uint64_t> digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing ---------------------------------------------------------------

/// One recorded span. `name` is "<layer>.<call>"; the layer is the module
/// the wrapped call enters (goal, sim, noise, core, fleetdb, server) or the
/// benchmark's own loadgen.
struct SpanRec {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  std::uint32_t thread = 0;
};

/// Process-wide span store. Spans are appended to a per-thread buffer (no
/// lock on the hot path) and only read after every worker has joined.
class Tracer {
 public:
  /// Seconds since process start, through the WallTimer seam.
  static double now();
  static bool enabled();
  static void set_enabled(bool on);
  /// All spans recorded so far, every thread's buffer concatenated.
  static std::vector<SpanRec> collect();
  /// Drops every recorded span.
  static void clear();
  /// Writes the spans as JSON lines to `path`; false on I/O failure.
  static bool write_jsonl(const std::string& path);
  /// Records a span whose ends were observed apart (an open-loop request:
  /// due at `start_s`, answered at `end_s`); parented to the innermost
  /// open span of the calling thread.
  static void record(const char* name, double start_s, double end_s,
                     std::int64_t request);
};

/// RAII span around one call into a layer. A no-op (one branch) while
/// tracing is off; `seconds()` works either way, so callers time their
/// calls through it unconditionally.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double seconds() const { return Tracer::now() - start_; }

 private:
  const char* name_;
  std::int64_t request_;
  double start_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
};

/// Per-name totals from a span set: summed duration, summed self time
/// (duration minus the time its direct children cover) and count.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRec>& spans);
/// The same, folded to the layer (name prefix before the first '.').
std::map<std::string, SpanTotals> totals_by_layer(
    const std::vector<SpanRec>& spans);

// --- resources & statistics --------------------------------------------------

/// User + system CPU seconds of this process so far (getrusage).
double cpu_seconds();
/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mib();
/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// The tail percentile of a latency sample: the highest of p99 and p90
/// that has at least ten samples beyond it, else the maximum. Returns the
/// value and sets `pct` to the percentile used (99, 90 or 100).
double tail(const std::vector<double>& values, int& pct);

}  // namespace celogbench
