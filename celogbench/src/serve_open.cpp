// serve_open — an in-process celogd (server::Daemon, two sweep workers) on
// a Unix socket, driven open-loop: one generator thread sends a seeded
// Poisson schedule over two connections at two fixed offered rates (`low`
// and `high`, both below saturation), then probes a fixed ladder of higher
// rates for the sustained rate. Every request is timed from its scheduled
// send time.
//
// The mix: cached sweeps, --stream-runs sweeps, a small share of cold-key
// sweeps (distinct rank counts, forcing RunnerRegistry builds and, past 32
// entries, evictions), and ping/stats/memdb reads; the memdb dump is written
// during set-up. Daemon loop + 2 workers + the generator = 4 busy threads.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/logging_mode.hpp"
#include "fleetdb/campaign.hpp"
#include "fleetdb/maintenance.hpp"
#include "noise/noise_model.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "server/runner_registry.hpp"
#include "util/net.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace celogbench {
namespace {

using namespace celog;

// Offered rates are constants of the benchmark, never recomputed per run.
// The reference host's capacity for this mix drifts by a third with its
// neighbours' load; `high` stays at about half of the slow end, so its
// latency measures service and not a queue that the slow minutes let grow.
constexpr double kLowRps = 10.0;
constexpr double kHighRps = 40.0;
/// The sustained-rate ladder: kHighRps x kLadderStep^k, k = 1..kLadderSteps.
constexpr double kLadderStep = 1.15;
constexpr int kLadderSteps = 10;
/// Latency limit on the p99 (from scheduled send) for a ladder rate.
constexpr double kP99LimitMs = 100.0;
/// A request unanswered this long after its phase ends has timed out.
constexpr double kTimeoutS = 20.0;
constexpr int kSetupReps = 5;
constexpr int kWorkers = 2;

struct SweepShape {
  const char* workload;
  int ranks;
  double sim_s;
  int seeds;
  double mtbce_ms;
  const char* mode;
};

/// Cached request shapes: small cells the registry keeps warm.
constexpr SweepShape kShapes[] = {
    {"lulesh", 16, 0.02, 2, 10.0, "software"},
    {"lammps-lj", 16, 0.02, 2, 10.0, "firmware"},
    {"hpcg", 16, 0.02, 2, 50.0, "software"},
    {"milc", 16, 0.02, 2, 20.0, "hardware"},
};

/// Cold-key workloads (ranks vary per request; one seed each).
constexpr SweepShape kColdShapes[] = {
    {"lulesh", 0, 0.02, 1, 10.0, "software"},
    {"hpcg", 0, 0.02, 1, 10.0, "software"},
    {"milc", 0, 0.02, 1, 10.0, "software"},
    {"lammps-lj", 0, 0.02, 1, 10.0, "software"},
    {"lammps-crack", 0, 0.02, 1, 10.0, "software"},
    {"cth", 0, 0.02, 1, 10.0, "software"},
};

enum class Kind { kSweep, kStream, kCold, kPing, kStats, kMemdb };

bool is_sweep(Kind k) {
  return k == Kind::kSweep || k == Kind::kStream || k == Kind::kCold;
}

/// The request mix, per 100 requests: every block of 100 consecutive
/// requests is a seeded shuffle of exactly these shares. The shares are
/// assumptions, not measured traffic; README.md gives the reason for each.
std::vector<Kind> mix_deck() {
  std::vector<Kind> deck;
  for (const auto& [kind, n] : {std::pair{Kind::kSweep, 60},
                                {Kind::kStream, 15},
                                {Kind::kCold, 4},
                                {Kind::kPing, 11},
                                {Kind::kStats, 5},
                                {Kind::kMemdb, 5}}) {
    deck.insert(deck.end(), n, kind);
  }
  return deck;
}

struct Request {
  std::int64_t id = 0;
  Kind kind = Kind::kPing;
  std::string line;
  double due_s = 0.0;   // scheduled send (absolute Tracer time)
  double sent_s = 0.0;  // actual send
  double done_s = -1.0;
  std::string terminal;
  std::vector<std::string> runs;  // streamed run lines
};

std::string sweep_line(std::int64_t id, const SweepShape& s, int ranks,
                       std::uint64_t base_seed, bool stream) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "sweep --id %lld --workload %s --ranks %d --sim-s %s "
                "--seeds %d --seed %llu --jobs 1 --mtbce-ms %s --mode %s%s",
                static_cast<long long>(id), s.workload, ranks,
                server::format_double(s.sim_s).c_str(), s.seeds,
                static_cast<unsigned long long>(base_seed),
                server::format_double(s.mtbce_ms).c_str(), s.mode,
                stream ? " --stream-runs" : "");
  return buf;
}

/// Seeded request generator shared by every phase of a run.
class Planner {
 public:
  explicit Planner(std::uint64_t seed) : rng_(seed) {}

  /// An open-loop schedule of round(rate x duration_s) requests with
  /// exponential gaps (a Poisson process conditioned on its count), due
  /// times as offsets from the phase start.
  std::vector<Request> plan(double rate, double duration_s) {
    const auto n = static_cast<std::size_t>(std::llround(rate * duration_s));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> due(n + 1);
    double t = 0.0;
    for (auto& d : due) {
      t += -std::log1p(-unit(rng_));
      d = t;
    }
    std::vector<Request> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      Request& r = out[i];
      r.id = next_id_++;
      r.due_s = due[i] / t * duration_s;
      if (deck_pos_ == deck_.size()) {
        std::shuffle(deck_.begin(), deck_.end(), rng_);
        deck_pos_ = 0;
      }
      r.kind = deck_[deck_pos_++];
      const std::uint64_t base_seed = rng_() % 1000000;
      switch (r.kind) {
        case Kind::kSweep:
        case Kind::kStream: {
          const SweepShape& s = kShapes[sweeps_++ % std::size(kShapes)];
          r.line = sweep_line(r.id, s, s.ranks, base_seed,
                              r.kind == Kind::kStream);
          break;
        }
        case Kind::kCold: {
          // A key the registry has not seen this cycle: 6 workloads x 12
          // small rank counts, so builds stay cheap and the 32-entry
          // registry evicts.
          const SweepShape& s = kColdShapes[cold_ % std::size(kColdShapes)];
          const int ranks =
              4 + static_cast<int>(cold_ / std::size(kColdShapes)) % 12;
          ++cold_;
          r.line = sweep_line(r.id, s, ranks, base_seed, false);
          break;
        }
        case Kind::kPing:
          r.line = "ping --id " + std::to_string(r.id);
          break;
        case Kind::kStats:
          r.line = "stats --id " + std::to_string(r.id);
          break;
        case Kind::kMemdb:
          r.line = "memdb --id " + std::to_string(r.id);
          break;
      }
    }
    return out;
  }

  std::int64_t take_id() { return next_id_++; }

 private:
  std::mt19937_64 rng_;
  std::vector<Kind> deck_ = mix_deck();
  std::size_t deck_pos_ = deck_.size();
  std::int64_t next_id_ = 1;
  std::size_t sweeps_ = 0;
  std::size_t cold_ = 0;
};

std::int64_t field_int(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const auto pos = line.find(k);
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + k.size(), nullptr, 10);
}

std::string event_of(const std::string& line) {
  const std::string k = "\"event\":\"";
  const auto pos = line.find(k);
  if (pos == std::string::npos) return "";
  const auto end = line.find('"', pos + k.size());
  return line.substr(pos + k.size(), end - pos - k.size());
}

struct PhaseStats {
  std::vector<double> latency_ms;  // every request, from scheduled send
  std::vector<double> lag_ms;      // generator lateness
  std::vector<double> ping_rtt_us;
  std::vector<double> queue_depth;
  std::vector<double> service_ms;  // answered sweeps, from actual send
  double backlog_growth = 0.0;
  double wall_s = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t sweeps = 0;
};

/// The open-loop client: one thread, two non-blocking connections.
class Client {
 public:
  explicit Client(const std::string& sock) {
    for (auto& c : conns_) {
      c.fd = util::connect_unix(sock);
      util::set_nonblocking(c.fd.get());
    }
  }

  /// Sends `reqs` on their schedule (offsets from now plus a short lead)
  /// and collects every response into the requests.
  PhaseStats run(std::vector<Request>& reqs, const char* phase,
                 Report& report) {
    PhaseStats st;
    const double t0 = Tracer::now() + 0.005;
    for (auto& r : reqs) r.due_s += t0;
    const double end_s = reqs.empty() ? t0 : reqs.back().due_s;
    const double half_s = t0 + (end_s - t0) / 2;
    std::size_t next = 0, done = 0;
    double outstanding_half = -1.0;
    bool backlog_recorded = false;
    by_id_.clear();
    for (auto& r : reqs) by_id_[r.id] = &r;
    while (done < reqs.size()) {
      const double now = Tracer::now();
      while (next < reqs.size() && reqs[next].due_s <= now) {
        Request& r = reqs[next];
        const Span span("loadgen.send", r.id);
        r.sent_s = Tracer::now();
        st.lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
        if (!send_line(conns_[next % 2].fd.get(), r.line)) {
          report.fail(std::string(phase) + ": daemon hung up");
          return st;
        }
        ++next;
        if (outstanding_half < 0 && r.due_s >= half_s) {
          outstanding_half = static_cast<double>(next - done);
        }
      }
      // Backlog growth: requests outstanding when the last one is sent,
      // minus those outstanding halfway through the schedule.
      if (next == reqs.size() && !backlog_recorded) {
        st.backlog_growth = static_cast<double>(next - done) -
                            std::max(0.0, outstanding_half);
        backlog_recorded = true;
      }
      if (now > end_s + kTimeoutS) break;
      const double wait_s =
          next < reqs.size() ? std::max(0.0, reqs[next].due_s - now) : 0.05;
      done += pump(std::min(wait_s, 0.05));
    }
    st.wall_s = Tracer::now() - t0;
    for (const auto& r : reqs) {
      if (r.done_s < 0) {
        report.fail(std::string(phase) + ": request " + std::to_string(r.id) +
                    " timed out");
        st.latency_ms.push_back(kTimeoutS * 1e3);
        ++st.failed;
        continue;
      }
      Tracer::record("loadgen.request", r.due_s, r.done_s, r.id);
      st.latency_ms.push_back((r.done_s - r.due_s) * 1e3);
      const std::string ev = event_of(r.terminal);
      const bool ok = (r.kind == Kind::kPing && ev == "pong") ||
                      (r.kind == Kind::kStats && ev == "stats") ||
                      (r.kind == Kind::kMemdb && ev == "memdb") ||
                      (is_sweep(r.kind) && ev == "result");
      if (!report.check(ok, std::string(phase) + ": request " +
                                std::to_string(r.id) + " answered " +
                                r.terminal)) {
        ++st.failed;
      }
      if (r.kind == Kind::kPing) {
        st.ping_rtt_us.push_back((r.done_s - r.sent_s) * 1e6);
      }
      if (r.kind == Kind::kStats) {
        st.queue_depth.push_back(
            static_cast<double>(field_int(r.terminal, "queue_depth")));
      }
      if (ev == "result") {
        ++st.sweeps;
        st.service_ms.push_back((r.done_s - r.sent_s) * 1e3);
      }
    }
    return st;
  }

  /// One request/response exchange outside any phase; returns the terminal
  /// line and collects streamed run lines into `runs` when given.
  std::string exchange(std::int64_t id, const std::string& line,
                       std::vector<std::string>* runs = nullptr) {
    Request r;
    r.id = id;
    by_id_.clear();
    by_id_[id] = &r;
    if (!send_line(conns_[0].fd.get(), line)) return "";
    const double deadline = Tracer::now() + 60.0;
    while (r.done_s < 0 && Tracer::now() < deadline) pump(0.05);
    by_id_.clear();
    if (runs != nullptr) *runs = std::move(r.runs);
    return r.terminal;
  }

 private:
  struct Conn {
    util::ScopedFd fd;
    std::string in;
  };

  /// Writes `line` + '\n' to a non-blocking socket, waiting for room when
  /// the socket buffer is full. False when the peer is gone.
  static bool send_line(int fd, const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const auto n = util::write_some(fd, data.data() + off, data.size() - off);
      if (n >= 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 1000) < 0 && errno != EINTR) return false;
    }
    return true;
  }

  /// Waits up to `timeout_s` for input, then consumes every complete line.
  /// Returns the number of requests completed.
  std::size_t pump(double timeout_s) {
    pollfd pfds[2];
    for (int i = 0; i < 2; ++i) pfds[i] = {conns_[i].fd.get(), POLLIN, 0};
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
    if (::ppoll(pfds, 2, &ts, nullptr) <= 0) return 0;
    std::size_t completed = 0;
    char buf[65536];
    for (int i = 0; i < 2; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const auto n = util::read_some(conns_[i].fd.get(), buf, sizeof(buf));
        if (n <= 0) break;
        conns_[i].in.append(buf, static_cast<std::size_t>(n));
      }
      const double now = Tracer::now();
      std::string& in = conns_[i].in;
      std::size_t start = 0;
      for (;;) {
        const auto nl = in.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = in.substr(start, nl - start + 1);
        start = nl + 1;
        const auto it = by_id_.find(field_int(line, "id"));
        if (it == by_id_.end()) continue;
        Request& r = *it->second;
        if (event_of(line) == "run") {
          r.runs.push_back(std::move(line));
        } else if (r.done_s < 0) {
          r.terminal = std::move(line);
          r.done_s = now;
          ++completed;
        }
      }
      in.erase(0, start);
    }
    return completed;
  }

  Conn conns_[2];
  std::map<std::int64_t, Request*> by_id_;
};

/// A daemon serving on a Unix socket from its own loop thread; drained and
/// joined on destruction.
class ServedDaemon {
 public:
  ServedDaemon(const std::string& sock, const std::string& memdb) {
    server::DaemonConfig config;
    config.workers = kWorkers;
    config.quota = 256;
    config.max_queue = 1024;
    config.jobs_cap = 1;
    config.memdb_path = memdb;
    std::vector<util::ScopedFd> listeners;
    listeners.push_back(util::listen_unix(sock));
    daemon_ = std::make_unique<server::Daemon>(std::move(listeners), config);
    thread_ = std::thread([this] { daemon_->run(); });
  }
  ~ServedDaemon() {
    daemon_->request_drain();
    thread_.join();
  }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

 private:
  std::unique_ptr<server::Daemon> daemon_;
  std::thread thread_;
};

core::LoggingMode mode_of(const std::string& mode) {
  if (mode == "hardware") return core::LoggingMode::kHardwareOnly;
  if (mode == "firmware") return core::LoggingMode::kFirmware;
  return core::LoggingMode::kSoftware;
}

/// Batch twin of the daemon: one ExperimentRunner per (workload, ranks,
/// sim-s) built from RunnerRegistry::config_for, serialized through the
/// same protocol functions.
class Batch {
 public:
  const core::ExperimentRunner& runner(const server::SweepRequest& req) {
    const std::string key = req.workload + "/" + std::to_string(req.ranks) +
                            "/" + server::format_double(req.sim_s);
    auto& slot = runners_[key];
    if (!slot) {
      const auto w = workloads::find_workload(req.workload);
      slot = std::make_unique<core::ExperimentRunner>(
          *w, server::RunnerRegistry::config_for(*w, req.ranks, req.sim_s));
    }
    return *slot;
  }

  /// The terminal line and streamed run lines the daemon owes `line`.
  std::pair<std::string, std::vector<std::string>> expect(
      const std::string& line) {
    const server::SweepRequest req = server::parse_request(line).sweep;
    const core::ExperimentRunner& r = runner(req);
    const noise::UniformCeNoiseModel noise(from_seconds(req.mtbce_ms * 1e-3),
                                           core::cost_model(mode_of(req.mode)));
    std::vector<std::string> runs;
    if (req.stream_runs) {
      for (int i = 0; i < req.seeds; ++i) {
        const auto seed = req.base_seed + static_cast<std::uint64_t>(i);
        try {
          runs.push_back(server::run_line(
              req.id, seed, r.run_once(noise, seed, req.horizon)));
        } catch (const NoProgressError&) {
          runs.push_back(server::run_no_progress_line(req.id, seed));
        }
      }
    }
    return {server::result_line(req.id, r.measure(noise, req.seeds,
                                                  req.base_seed, req.horizon,
                                                  1)),
            runs};
  }

  double baseline_events(const std::string& line) {
    const server::SweepRequest req = server::parse_request(line).sweep;
    return static_cast<double>(runner(req).baseline().events_processed);
  }

 private:
  std::map<std::string, std::unique_ptr<core::ExperimentRunner>> runners_;
};

/// Served bytes must equal batch bytes for `r`.
bool verify(Batch& batch, const Request& r, Report& report) {
  const auto [terminal, runs] = batch.expect(r.line);
  return report.check(r.terminal == terminal && r.runs == runs,
                      "served result of request " + std::to_string(r.id) +
                          " differs from batch:\n  served: " + r.terminal +
                          "  batch:  " + terminal);
}

std::string stats_exchange(Client& client, Planner& planner) {
  const std::int64_t id = planner.take_id();
  return client.exchange(id, "stats --id " + std::to_string(id));
}

/// The memdb dump the daemon serves: a short threshold campaign's DB.
void write_memdb(const std::string& path, std::uint64_t seed) {
  fleetdb::CampaignConfig c;
  c.ranks = 16;
  c.runs_per_epoch = 1;
  c.sim_target_s = 0.02;
  c.campaign_seed = seed;
  c.noise.mtbce = 4 * kMillisecond;
  fleetdb::ThresholdMaintenancePolicy policy;
  fleetdb::CampaignRunner runner(c, policy);
  runner.run(3);
  runner.db().save(path);
}

/// Digest at a recorded seed: every cached shape, plain and streamed,
/// served and checked against batch.
std::uint64_t recorded_digest(Client& client, Batch& batch,
                              Planner& planner, std::uint64_t seed,
                              Report& report) {
  Digest d;
  for (const SweepShape& s : kShapes) {
    for (const bool stream : {false, true}) {
      Request r;
      r.id = planner.take_id();
      r.line = sweep_line(r.id, s, s.ranks, seed, stream);
      r.terminal = client.exchange(r.id, r.line, &r.runs);
      verify(batch, r, report);
      // Ids differ run to run; digest the payloads after the id.
      for (const auto& l : r.runs) d.bytes(l.substr(l.find(',')));
      d.bytes(r.terminal.substr(r.terminal.find(',')));
    }
  }
  return d.value();
}

}  // namespace

void run_serve_open(const RunConfig& cfg, Report& report) {
  const std::string sock = cfg.scratch_dir + "/celogd.sock";
  const std::string memdb = cfg.scratch_dir + "/fleet.memdb";
  const double scale = cfg.tiny ? 0.25 : 1.0;
  Planner planner(cfg.seed);

  // Set-up: memdb dump + daemon start + registry warm-up over the cached
  // shapes, several times; the last daemon serves the timed phases.
  std::vector<double> setup;
  std::unique_ptr<ServedDaemon> daemon;
  std::unique_ptr<Client> client;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    client.reset();
    daemon.reset();
    const bench::WallTimer timer;
    write_memdb(memdb, cfg.seed);
    daemon = std::make_unique<ServedDaemon>(sock, memdb);
    client = std::make_unique<Client>(sock);
    for (const SweepShape& s : kShapes) {
      const std::int64_t id = planner.take_id();
      report.check(event_of(client->exchange(
                       id, sweep_line(id, s, s.ranks, 1, false))) == "result",
                   "warm-up request failed");
    }
    setup.push_back(timer.seconds());
  }

  auto low = planner.plan(kLowRps * scale, 0.2 * cfg.seconds);
  // 0.8 s of --seconds at `high`: past 1000 samples at 10 s, so its p99
  // has ten samples beyond it.
  auto high = planner.plan(kHighRps * scale, 0.8 * cfg.seconds);
  const double cpu0 = cpu_seconds();
  const PhaseStats low_st = client->run(low, "low", report);
  const PhaseStats high_st = client->run(high, "high", report);
  const double cpu = cpu_seconds() - cpu0;
  // Before the ladder, whose length depends on the host's capacity.
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");

  // The sustained rate: walk the fixed ladder up from `high` until a rate
  // misses the p99 limit, fails a request or grows a backlog.
  double sustained = 0.0;
  for (int k = 1; k <= kLadderSteps; ++k) {
    const double rate = kHighRps * scale * std::pow(kLadderStep, k);
    auto reqs = planner.plan(rate, 0.1 * cfg.seconds);
    const PhaseStats st = client->run(reqs, "ladder", report);
    const double p99 = quantile(st.latency_ms, 0.99);
    const bool ok = st.failed == 0 && p99 <= kP99LimitMs &&
                    st.backlog_growth <=
                        4.0 + 0.02 * static_cast<double>(reqs.size());
    std::printf("ladder %8.1f req/s  p99 %8.2f ms  backlog %+5.0f  %s\n",
                rate, p99, st.backlog_growth, ok ? "ok" : "over the limit");
    if (!ok) break;
    sustained = rate;
  }

  // Served == batch, byte for byte: every cold request and every 8th
  // other sweep of both fixed-rate phases, streamed run lines included.
  Batch batch;
  double events = 0.0;
  for (const auto* phase : {&low, &high}) {
    for (std::size_t i = 0; i < phase->size(); ++i) {
      const Request& r = (*phase)[i];
      if (!is_sweep(r.kind)) continue;
      if (phase == &high) {
        events += batch.baseline_events(r.line) *
                  static_cast<double>(server::parse_request(r.line).sweep.seeds);
      }
      if (r.kind == Kind::kCold || i % 8 == 0) verify(batch, r, report);
    }
  }
  for (const std::uint64_t s : kRecordedSeeds) {
    report.digest(s, recorded_digest(*client, batch, planner, s, report));
  }

  const std::string final_stats =
      stats_exchange(*client, planner);
  const auto rejected = field_int(final_stats, "rejected_quota") +
                        field_int(final_stats, "rejected_queue") +
                        field_int(final_stats, "rejected_parse");
  report.check(rejected == 0,
               "daemon refused " + std::to_string(rejected) + " requests");

  report.e2e("setup_s", median(setup), "s");
  report.e2e("cpu_s", cpu, "s");
  // Throughput per second of the daemon's service time (send to answer,
  // summed over the `high` phase's sweeps), not per second of wall time:
  // the wall-time rate is the offered rate, which the daemon cannot move
  // short of saturation.
  double service_s = 0.0;
  for (const double ms : high_st.service_ms) service_s += ms * 1e-3;
  report.e2e("cells_per_s", static_cast<double>(high_st.sweeps) / service_s,
             "1/s");
  report.e2e("sim_events_per_s", events / service_s, "1/s");
  report.info("sweep_service_ms.p50", quantile(high_st.service_ms, 0.5), "ms",
              "n=" + std::to_string(high_st.service_ms.size()));
  // Latency from scheduled send: printed, not gated (see workloads.hpp).
  for (const auto& [name, st] :
       {std::pair{".low", &low_st}, std::pair{".high", &high_st}}) {
    int pct = 0;
    const double t = tail(st->latency_ms, pct);
    const std::string n = "n=" + std::to_string(st->latency_ms.size());
    report.info(std::string("latency_p50_ms") + name,
                quantile(st->latency_ms, 0.5), "ms", n);
    report.info("latency_p" + std::to_string(pct) + "_ms" + name, t, "ms",
                n);
  }
  report.info("sustained_rps", sustained, "1/s",
              "ladder x1.15 steps above " +
                  std::to_string(static_cast<int>(kHighRps)) +
                  " req/s, p99 limit " +
                  std::to_string(static_cast<int>(kP99LimitMs)) + " ms");
  report.info("loadgen.lag_ms.p99", quantile(high_st.lag_ms, 0.99), "ms");
  report.info("loadgen.backlog_growth", high_st.backlog_growth, "count");

  if (cfg.trace) {
    // A traced repeat of the high phase, then direct per-layer probes over
    // the same request lines.
    Tracer::clear();
    auto traced = planner.plan(kHighRps * scale, 0.8 * cfg.seconds);
    Tracer::set_enabled(true);
    const PhaseStats tr = client->run(traced, "high-traced", report);
    std::vector<double> parse_us, serialize_us, direct_ms;
    server::RunnerRegistry registry;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      server::Request parsed;
      {
        const Span span("server.parse_request");
        parsed = server::parse_request(traced[i].line);
        parse_us.push_back(span.seconds() * 1e6);
      }
      if (parsed.verb != server::Verb::kSweep || i % 4 != 0) continue;
      const server::SweepRequest& req = parsed.sweep;
      core::SlowdownResult result;
      {
        const Span span("server.sweep");
        const auto runner = registry.get(req);
        const noise::UniformCeNoiseModel noise(
            from_seconds(req.mtbce_ms * 1e-3),
            core::cost_model(mode_of(req.mode)));
        result = runner->measure(noise, req.seeds, req.base_seed,
                                 req.horizon, 1);
        direct_ms.push_back(span.seconds() * 1e3);
      }
      const Span span("server.serialize");
      const std::string line = server::result_line(req.id, result);
      serialize_us.push_back(span.seconds() * 1e6);
    }
    Tracer::set_enabled(false);
    const std::string stats = stats_exchange(*client, planner);
    const double hits = static_cast<double>(field_int(stats, "runner_hits"));
    const double builds =
        static_cast<double>(field_int(stats, "runner_builds"));
    report.layer("server.ping_rtt_us.p50", quantile(tr.ping_rtt_us, 0.5),
                 "us");
    report.layer("server.ping_rtt_us.p99", quantile(tr.ping_rtt_us, 0.99),
                 "us");
    report.layer("server.parse_us", median(parse_us), "us");
    report.layer("server.serialize_us", median(serialize_us), "us");
    report.layer("server.sweep_ms.p50", median(direct_ms), "ms");
    report.layer("server.registry_hit_ratio",
                 hits + builds > 0 ? hits / (hits + builds) : 0.0, "ratio");
    report.layer("server.registry_builds", builds, "count");
    report.layer("server.registry_evictions",
                 static_cast<double>(field_int(stats, "runner_evictions")),
                 "count");
    report.layer("server.queue_depth.max", quantile(tr.queue_depth, 1.0),
                 "count");
    report.layer("server.rejected", static_cast<double>(rejected), "count");
    report.layer("loadgen.lag_ms.p99", quantile(tr.lag_ms, 0.99), "ms");
    report.layer("loadgen.backlog_growth", tr.backlog_growth, "count");
    report.layer("trace.overhead_frac",
                 quantile(tr.latency_ms, 0.5) /
                         quantile(high_st.latency_ms, 0.5) -
                     1.0,
                 "ratio");
    report_layer_self_times(Tracer::collect(), report);
  }
  client.reset();
  daemon.reset();
  ::unlink(sock.c_str());
  ::unlink(memdb.c_str());
}

}  // namespace celogbench
