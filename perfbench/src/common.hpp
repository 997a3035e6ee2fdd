// Shared plumbing for the pfl benchmark: seeded inputs, sample logs and
// percentiles, the benchmark-owned span buffer, before/after reads of the
// library's obs counters, the machine fingerprint, and the result line.
//
// Every workload fills a Report. With tracing off it carries the
// end-to-end metrics (EndToEnd); with tracing on it carries the per-layer
// metrics (LayerMetrics), which always list every layer metric -- a layer
// the workload does not touch reads 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (modulo bias is below 2^-40 for our ranges).
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_;
};

/// Nearest-rank quantile of `v` (taken by value: it is sorted).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The tail quantile reported as op_p99_ms: p99, or the highest quantile
/// that still leaves at least ten samples beyond it when n < 1000.
double tail_quantile(std::size_t n);

/// Latency samples in a buffer whose memory is touched up front, so the
/// process's peak RSS does not grow with run length or throughput. Once
/// full it keeps a uniform reservoir sample.
class SampleLog {
 public:
  SampleLog(std::size_t capacity, std::uint64_t seed);
  void add(std::uint64_t ns);
  std::uint64_t seen() const { return seen_; }
  /// Nearest-rank quantile in milliseconds. Sorts the samples in place,
  /// so it allocates nothing; add() after it is still correct.
  double quantile_ms(double q);

 private:
  std::vector<std::uint32_t> v_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

/// One recorded span: a named interval, its parent (0 = root) and one
/// numeric argument (element count, volunteer id, ...).
struct SpanRec {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;
};

/// The benchmark's own span store. Only armed units record; begin()
/// returns 0 and end(0) does nothing when disarmed. Not thread-safe: one
/// buffer per thread, merged with append() after the threads join.
class SpanBuffer {
 public:
  void arm(bool on) { armed_ = on; }
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t arg = 0);
  void end(std::uint32_t id);
  void append(const SpanBuffer& other, std::uint32_t thread);

  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t arg_sum = 0;
  };
  /// Totals over every closed span called `name`.
  Agg aggregate(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON (at most `max_spans`),
  /// with the fingerprint in the metadata.
  void write_json(const std::string& path, const std::string& fingerprint,
                  std::size_t max_spans) const;

 private:
  bool armed_ = false;
  std::vector<SpanRec> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& b, const char* name, std::uint32_t parent = 0,
             std::uint64_t arg = 0)
      : b_(b), id_(b.begin(name, parent, arg)) {}
  ~ScopedSpan() { b_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanBuffer& b_;
  std::uint32_t id_;
};

/// Values of the library's obs counters and histograms at one instant.
struct ObsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  /// histogram name -> (count, sum)
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>, std::less<>>
      histograms;
};
ObsSnapshot obs_snapshot();
std::uint64_t counter_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                            std::string_view name);
/// Sum of the deltas of every counter whose name starts with `prefix`.
std::uint64_t counter_delta_prefix(const ObsSnapshot& before,
                                   const ObsSnapshot& after,
                                   std::string_view prefix);
std::pair<std::uint64_t, std::uint64_t> histogram_delta(
    const ObsSnapshot& before, const ObsSnapshot& after, std::string_view name);

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Cost of one steady_clock read pair, subtracted from per-call timings
/// of sub-microsecond operations.
std::uint64_t clock_overhead_ns();

/// Pins the calling thread to the k-th CPU of its affinity mask (modulo
/// the CPU count) and restores the mask when destroyed. Rotating the
/// pinned CPU within a unit of work spreads every unit over all CPUs, so
/// one CPU slowed by a neighbour skews all units alike instead of some.
class CpuPin {
 public:
  explicit CpuPin(std::size_t k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  std::vector<unsigned char> saved_;  ///< the original cpu_set_t bytes
};

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

/// Seed, workload and machine fingerprint as one JSON object.
std::string fingerprint_json(const Args& args);

/// Inputs of the end-to-end metrics, filled by every workload.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one sample per set-up repetition
  double ops_per_s = 0.0;
  double pair_per_s = 0.0;
  double unpair_per_s = 0.0;
  double op_p50_ms = 0.0;
  double op_tail_ms = 0.0;
  double op_tail_q = 0.0;
  std::uint64_t op_samples = 0;

  /// Median and tail (see tail_quantile) of the workload's op latency.
  void set_latency(SampleLog& log);
};

/// Every per-layer metric, preset to 0; set() rejects unknown names.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Micro-costs of the obs instruments (counter add, histogram record,
/// disarmed span), measured from this process.
void measure_obs_costs(LayerMetrics& layers);

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines before the JSON
  EndToEnd e2e;
  LayerMetrics layers;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Prints the notes, the fingerprint and the final JSON result line.
/// Returns the process exit code.
int emit(const Args& args, Report& report);

Report run_closed_batch(const Args& args);
Report run_hyperbolic_table(const Args& args);
Report run_volunteer_rpc(const Args& args);

}  // namespace perfbench
