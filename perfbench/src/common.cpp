#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

double tail_quantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n <= 10) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

SampleLog::SampleLog(std::size_t capacity, std::uint64_t seed)
    : v_(capacity), rng_(seed) {
  // A non-zero fill really writes every page (a zero fill of fresh memory
  // may be left to the kernel's zero pages), so RSS is paid here, once.
  std::fill(v_.begin(), v_.end(), 0xFFFFFFFFu);
}

void SampleLog::add(std::uint64_t ns) {
  const auto clipped =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xFFFFFFFFu));
  ++seen_;
  if (size_ < v_.size()) {
    v_[size_++] = clipped;
    return;
  }
  const std::uint64_t slot = rng_.next() % seen_;
  if (slot < v_.size()) v_[slot] = clipped;
}

double SampleLog::quantile_ms(double q) {
  if (size_ == 0) return 0.0;
  std::sort(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(size_));
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(size_)));
  return v_[rank == 0 ? 0 : std::min(rank, size_) - 1] * 1e-6;
}

std::uint32_t SpanBuffer::begin(const char* name, std::uint32_t parent,
                                std::uint64_t arg) {
  if (!armed_) return 0;
  SpanRec s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.arg = arg;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanBuffer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

void SpanBuffer::append(const SpanBuffer& other, std::uint32_t thread) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (SpanRec s : other.spans_) {
    s.id += offset;
    if (s.parent != 0) s.parent += offset;
    s.thread = thread;
    spans_.push_back(s);
  }
}

SpanBuffer::Agg SpanBuffer::aggregate(std::string_view name) const {
  Agg a;
  for (const SpanRec& s : spans_) {
    if (s.end_ns == 0 || name != s.name) continue;
    ++a.count;
    a.total_ns += s.end_ns - s.start_ns;
    a.arg_sum += s.arg;
  }
  return a;
}

void SpanBuffer::write_json(const std::string& path,
                            const std::string& fingerprint,
                            std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"otherData\":" << fingerprint << ",\"traceEvents\":[";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans_[i];
    if (s.end_ns == 0) continue;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                  "\"arg\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                  s.parent, static_cast<unsigned long long>(s.arg));
    out << line;
  }
  out << "\n]}\n";
}

ObsSnapshot obs_snapshot() {
  ObsSnapshot s;
  auto& reg = pfl::obs::registry();
  reg.for_each_counter([&](const std::string& name, const pfl::obs::Counter& c) {
    s.counters[name] = c.value();
  });
  reg.for_each_histogram(
      [&](const std::string& name, const pfl::obs::Histogram& h) {
        s.histograms[name] = {h.count(), h.sum()};
      });
  return s;
}

namespace {

std::uint64_t lookup(const ObsSnapshot& s, std::string_view name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

std::uint64_t counter_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                            std::string_view name) {
  return lookup(after, name) - lookup(before, name);
}

std::uint64_t counter_delta_prefix(const ObsSnapshot& before,
                                   const ObsSnapshot& after,
                                   std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : after.counters)
    if (std::string_view(name).substr(0, prefix.size()) == prefix)
      sum += value - lookup(before, name);
  return sum;
}

std::pair<std::uint64_t, std::uint64_t> histogram_delta(
    const ObsSnapshot& before, const ObsSnapshot& after,
    std::string_view name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {0, 0};
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return a->second;
  return {a->second.first - b->second.first,
          a->second.second - b->second.second};
}

std::uint64_t clock_overhead_ns() {
  std::vector<double> samples;
  for (int rep = 0; rep < 9; ++rep) {
    constexpr int kN = 4096;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kN; ++i) {
      volatile std::uint64_t sink = now_ns();
      (void)sink;
    }
    const std::uint64_t t1 = now_ns();
    samples.push_back(static_cast<double>(t1 - t0) / kN);
  }
  return static_cast<std::uint64_t>(median(samples));
}

CpuPin::CpuPin(std::size_t k) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  const int count = CPU_COUNT(&mask);
  if (count <= 1) return;
  int target = static_cast<int>(k % static_cast<std::size_t>(count));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask) || target-- != 0) continue;
    CPU_SET(cpu, &one);
    break;
  }
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  saved_.resize(sizeof(mask));
  std::memcpy(saved_.data(), &mask, sizeof(mask));
}

CpuPin::~CpuPin() {
  if (saved_.empty()) return;
  cpu_set_t mask;
  std::memcpy(&mask, saved_.data(), sizeof(mask));
  sched_setaffinity(0, sizeof(mask), &mask);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::replace(model.begin(), model.end(), '"', '\'');
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(const Args& args) {
  std::ostringstream o;
  o << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
    << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
    << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu\":\""
    << cpu_model() << "\",\"compiler\":\""
#if defined(__clang__)
    << "clang "
#elif defined(__GNUC__)
    << "gcc "
#endif
    << __VERSION__ << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"march\":\"" << PERFBENCH_MARCH
    << "\",\"PFL_OBS\":" << PFL_OBS_ENABLED
    << ",\"PFL_SIMD\":" << PFL_SIMD_ENABLED
    << ",\"PFL_CONTRACT_CHECKS\":" << PFL_CONTRACT_CHECKS
    << ",\"simd_isa\":\"" << pfl::simd::active_isa() << "\"}";
  return o.str();
}

namespace {

/// Every per-layer metric with its unit, in report order. README.md maps
/// each to the end-to-end metric and workload it should move.
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"core.pair_batch_ns.diagonal", "ns"},
      {"core.pair_batch_ns.square-shell", "ns"},
      {"core.pair_batch_ns.szudzik", "ns"},
      {"core.pair_batch_ns.aspect-2x3", "ns"},
      {"core.pair_batch_ns.hyperbolic", "ns"},
      {"core.unpair_batch_ns.diagonal", "ns"},
      {"core.unpair_batch_ns.square-shell", "ns"},
      {"core.unpair_batch_ns.szudzik", "ns"},
      {"core.unpair_batch_ns.aspect-2x3", "ns"},
      {"core.unpair_batch_ns.hyperbolic", "ns"},
      {"core.checked_elem_share", "ratio"},
      {"core.simd_elem_share", "ratio"},
      {"core.batch_elems", "count"},
      {"numtheory.bracket_ns", "ns"},
      {"numtheory.divisors_ns", "ns"},
      {"numtheory.table_hit_ratio", "ratio"},
      {"numtheory.table_queries", "count"},
      {"numtheory.walk_reuse_ratio", "ratio"},
      {"numtheory.walk_advances", "count"},
      {"storage.at_ns", "ns"},
      {"storage.get_ns", "ns"},
      {"storage.resize_ns", "ns"},
      {"storage.addressing_share", "ratio"},
      {"storage.fill_ratio", "ratio"},
      {"storage.dropped_per_reshape", "ratio"},
      {"storage.reshapes", "count"},
      {"apf.task_index_ns", "ns"},
      {"wbc.request_task_ns", "ns"},
      {"wbc.submit_result_ns", "ns"},
      {"wbc.heartbeat_ns", "ns"},
      {"wbc.tick_ns", "ns"},
      {"wbc.ns_per_rpc", "ns"},
      {"wbc.credit_ratio", "ratio"},
      {"wbc.tasks_issued", "count"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.wire_ns_per_rpc", "ns"},
      {"net.client_rpc_ns.get_task", "ns"},
      {"net.client_rpc_ns.submit", "ns"},
      {"net.client_rpc_ns.heartbeat", "ns"},
      {"net.client_rpc_ns.all", "ns"},
      {"net.server_service_ns", "ns"},
      {"net.residual_ns", "ns"},
      {"net.retries", "count"},
      {"net.reconnects", "count"},
      {"net.reject_ratio", "ratio"},
      {"net.requests", "count"},
      {"obs.counter_add_ns", "ns"},
      {"obs.histogram_record_ns", "ns"},
      {"obs.span_ns", "ns"},
      {"bench.trace_overhead", "ratio"},
  };
  return catalog;
}

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : layer_catalog())
    entries_.push_back({name, {0.0, unit}});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second.first = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown layer metric " + name);
}

void measure_obs_costs(LayerMetrics& layers) {
  constexpr int kN = 200000;
  auto& counter = pfl::obs::registry().counter("pfl_bench_probe_total");
  auto& histogram = pfl::obs::registry().histogram("pfl_bench_probe_ns");
  const auto per_op = [](auto&& body) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kN; ++i) body(i);
      reps.push_back(static_cast<double>(now_ns() - t0) / kN);
    }
    return median(reps);
  };
  layers.set("obs.counter_add_ns", per_op([&](int) { counter.add(); }));
  layers.set("obs.histogram_record_ns", per_op([&](int i) {
               histogram.record(static_cast<std::uint64_t>(i));
             }));
  layers.set("obs.span_ns",
             per_op([](int) { const pfl::obs::Span span("bench.probe"); }));
}

namespace {

void json_number(std::ostringstream& o, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  o << buf;
}

}  // namespace

void EndToEnd::set_latency(SampleLog& log) {
  op_samples = log.seen();
  op_tail_q = tail_quantile(op_samples);
  op_p50_ms = log.quantile_ms(0.5);
  op_tail_ms = log.quantile_ms(op_tail_q);
}

int emit(const Args& args, Report& report) {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  bool valid = true;
  if (!args.trace) {
    const EndToEnd& e = report.e2e;
    metrics = {
        {"setup_s", {median(e.setup_s), "s"}},
        {"ops_per_s", {e.ops_per_s, "1/s"}},
        {"pair_per_s", {e.pair_per_s, "1/s"}},
        {"unpair_per_s", {e.unpair_per_s, "1/s"}},
        {"op_p50_ms", {e.op_p50_ms, "ms"}},
        {"op_p99_ms", {e.op_tail_ms, "ms"}},
        {"peak_rss_mib", {peak_rss_mib(), "MiB"}},
    };
    char line[160];
    std::snprintf(line, sizeof(line),
                  "latency: %llu samples, tail reported at p%.2f; setup: %zu "
                  "repetitions",
                  static_cast<unsigned long long>(e.op_samples),
                  e.op_tail_q * 100.0,
                  e.setup_s.size());
    report.notes.push_back(line);
    for (const auto& [name, vu] : metrics) {
      if (!std::isfinite(vu.first) || vu.first <= 0.0) {
        valid = false;
        report.notes.push_back("invalid end-to-end value for " + name);
      }
    }
  } else {
    metrics = report.layers.entries();
    for (const auto& [name, vu] : metrics)
      if (!std::isfinite(vu.first)) {
        valid = false;
        report.notes.push_back("invalid per-layer value for " + name);
      }
  }

  char line[160];
  std::snprintf(line, sizeof(line), "fail_ratio: %.6g (%llu failed / %llu attempted)",
                ratio(static_cast<double>(report.failed),
                      static_cast<double>(report.attempted)),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
  report.notes.push_back(line);
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf("# fingerprint: %s\n", fingerprint_json(args).c_str());

  const bool correct = valid && report.failed == 0 && report.attempted > 0;
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << std::max<std::uint64_t>(report.attempted, 1)
    << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    json_number(o, std::isfinite(vu.first) ? vu.first : 0.0);
    o << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
