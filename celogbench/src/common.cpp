#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>

namespace celogbench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Digest ------------------------------------------------------------------

void Digest::bytes(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::sim_result(const celog::sim::SimResult& r) {
  u64(static_cast<std::uint64_t>(r.makespan));
  u64(r.data_messages);
  u64(r.control_messages);
  u64(static_cast<std::uint64_t>(r.noise_stolen));
  u64(r.detours_charged);
  u64(r.events_processed);
  u64(r.rank_finish.size());
  for (const auto t : r.rank_finish) u64(static_cast<std::uint64_t>(t));
}

void Digest::campaign(const celog::fleetdb::CampaignStats& s) {
  for (const std::uint64_t v :
       {s.epochs, s.runs, s.total_ces, s.ue_exposure_epochs,
        s.ue_avoided_epochs, s.page_offline_epochs, s.dimms_replaced,
        s.pages_offlined}) {
    u64(v);
  }
}

// --- Report ------------------------------------------------------------------

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  e2e_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  layer_[name] = {value, unit};
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::printf("info   %-36s %14.6g %-8s %s\n", name.c_str(), value,
              unit.c_str(), note.c_str());
}

void Report::attempt() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
}

void Report::fail(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  std::printf("FAIL   %s\n", what.c_str());
}

bool Report::check(bool ok, const std::string& what) {
  if (ok) {
    attempt();
  } else {
    fail(what);
  }
  return ok;
}

void Report::digest(std::uint64_t seed, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mu_);
  digests_[seed] = value;
}

std::uint64_t Report::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Report::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

// --- Tracer ------------------------------------------------------------------

namespace {

const celog::bench::WallTimer& process_clock() {
  static const celog::bench::WallTimer clock;
  return clock;
}

struct ThreadBuffer {
  std::vector<SpanRec> spans;
  std::vector<std::int64_t> open;  // ids of this thread's open spans
  std::uint32_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{0};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    b->spans.reserve(1024);
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

double Tracer::now() { return process_clock().seconds(); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<SpanRec> Tracer::collect() {
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRec> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

bool Tracer::write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRec& s : collect()) {
    std::fprintf(f,
                 "{\"id\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"thread\":%u,\"request\":%" PRId64 "}\n",
                 s.id, s.parent, s.name, s.start_s, s.end_s, s.thread,
                 s.request);
  }
  return std::fclose(f) == 0;
}

void Tracer::record(const char* name, double start_s, double end_s,
                    std::int64_t request) {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  SpanRec rec;
  rec.name = name;
  rec.start_s = start_s;
  rec.end_s = end_s;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = b.open.empty() ? -1 : b.open.back();
  rec.request = request;
  rec.thread = b.thread;
  b.spans.push_back(rec);
}

Span::Span(const char* name, std::int64_t request)
    : name_(name), request_(request), start_(Tracer::now()) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& b = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = b.open.empty() ? -1 : b.open.back();
  b.open.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  ThreadBuffer& b = local_buffer();
  b.open.pop_back();
  SpanRec rec;
  rec.name = name_;
  rec.start_s = start_;
  rec.end_s = Tracer::now();
  rec.id = id_;
  rec.parent = parent_;
  rec.request = request_;
  rec.thread = b.thread;
  b.spans.push_back(rec);
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRec>& spans) {
  std::map<std::int64_t, double> child_time;
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRec& s : spans) {
    SpanTotals& t = out[s.name];
    const double d = s.end_s - s.start_s;
    const auto it = child_time.find(s.id);
    t.total_s += d;
    t.self_s += std::max(0.0, d - (it == child_time.end() ? 0.0 : it->second));
    ++t.count;
  }
  return out;
}

std::map<std::string, SpanTotals> totals_by_layer(
    const std::vector<SpanRec>& spans) {
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, t] : totals_by_name(spans)) {
    SpanTotals& l = out[name.substr(0, name.find('.'))];
    l.total_s += t.total_s;
    l.self_s += t.self_s;
    l.count += t.count;
  }
  return out;
}

// --- resources & statistics --------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double tail(const std::vector<double>& values, int& pct) {
  pct = values.size() >= 1000 ? 99 : values.size() >= 100 ? 90 : 100;
  return quantile(values, pct / 100.0);
}

}  // namespace celogbench
