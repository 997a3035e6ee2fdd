// hyperbolic-table: an ExtendibleArray<uint64_t> addressed by the
// hyperbolic PF, grown from 16 x 32 toward 1024 x (2048 + kTailCols) by
// appending rows and columns, once per epoch. Between growth steps a
// seeded mix of writes (at), reads (get), occasional shrinking resizes
// (which batch-address the dropped cells) and blocks of pair_batch ->
// unpair_batch over stored cells runs against a shadow map. Shells up to
// 2^21 sit inside the SummatoryEngine table. The tail beyond it is small:
// the kTailCols columns past 2048, plus one cell per batch block drawn
// (seeded) from just past the 2^21 hyperbola. Out-of-table unpair costs
// ~100x an in-table one, so that one cell takes roughly a tenth of the
// batch time. Every epoch does the same amount of work, so rates and
// memory do not depend on run length.
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "core/hyperbolic.hpp"
#include "numtheory/summatory_engine.hpp"
#include "storage/extendible_array.hpp"

namespace perfbench {
namespace {

using pfl::index_t;
using pfl::Point;
using Table = pfl::storage::ExtendibleArray<std::uint64_t>;

constexpr index_t kStartRows = 16;
constexpr index_t kStartCols = 32;
constexpr index_t kRowsMax = 1024;
constexpr index_t kTailCols = 96;
constexpr index_t kColsMax = 2048 + kTailCols;
constexpr int kOpsPerStep = 4;
constexpr std::uint64_t kShrinkEvery = 96;
constexpr std::uint64_t kBatchEvery = 64;
constexpr std::size_t kBatchBlock = 1024;
constexpr std::size_t kTailPerBlock = 1;
constexpr std::uint64_t kPinEvery = 256;
constexpr std::size_t kProbeCap = 64;
constexpr std::size_t kSampleCap = 1 << 16;
constexpr int kSetupReps = 8;
constexpr index_t kEngineShells = index_t{1} << 21;

std::uint64_t key(index_t x, index_t y) { return (x << 32) | y; }

class TableRun {
 public:
  TableRun(const Args& args, Report& report)
      : args_(args), report_(report),
        pf_(std::make_shared<pfl::HyperbolicPf>()), rng_(args.seed ^ 0x7AB1Eull),
        latency_(1 << 21, args.seed) {}

  void run();

 private:
  template <class F>
  void op(const char* span_name, F&& body) {
    const ScopedSpan s(spans_, span_name, epoch_span_);
    const std::uint64_t t0 = now_ns();
    body();
    const std::uint64_t dt = now_ns() - t0;
    ++ops_;
    op_ns_ += dt;
    latency_.add(dt);
  }

  Point random_cell(const Table& arr) {
    return {rng_.in(1, arr.rows()), rng_.in(1, arr.cols())};
  }
  static bool in_bounds(const Table& arr, Point p) {
    return p.x <= arr.rows() && p.y <= arr.cols();
  }

  void epoch(bool traced);
  void write(Table& arr, bool traced);
  void read(Table& arr);
  void shrink(Table& arr);
  void batch(const Table& arr, bool traced);
  void expect(const std::uint64_t* got, Point p);
  void report_layers(const ObsSnapshot& before, const ObsSnapshot& after);

  const Args& args_;
  Report& report_;
  pfl::PfPtr pf_;
  Rng rng_;
  SampleLog latency_;
  SpanBuffer spans_;
  std::uint32_t epoch_span_ = 0;

  std::unordered_map<std::uint64_t, std::uint64_t> shadow_;
  std::vector<Point> written_;  ///< cells ever written this epoch
  std::vector<Point> probes_;   ///< cells a shrink dropped

  // Running totals; each epoch's share becomes one rate sample, and the
  // reported rates are medians over epochs.
  std::uint64_t ops_ = 0, op_ns_ = 0;
  std::uint64_t batch_elems_ = 0, pair_ns_ = 0, unpair_ns_ = 0;
  std::vector<double> op_rates_, pair_rates_, unpair_rates_;
  std::array<std::uint64_t, 2> epoch_ns_{}, epochs_{};
  std::vector<double> fill_ratios_;
  std::vector<Point> at_sample_;
  std::vector<index_t> addr_sample_;
};

void TableRun::write(Table& arr, bool traced) {
  const Point p = random_cell(arr);
  const std::uint64_t value = rng_.next() | 1;
  op("storage.at", [&] { arr.at(p.x, p.y) = value; });
  if (shadow_.insert_or_assign(key(p.x, p.y), value).second)
    written_.push_back(p);
  if (traced && at_sample_.size() < kSampleCap) at_sample_.push_back(p);
}

void TableRun::expect(const std::uint64_t* got, Point p) {
  const auto it = shadow_.find(key(p.x, p.y));
  report_.check(it == shadow_.end() ? got == nullptr
                                    : got != nullptr && *got == it->second);
}

void TableRun::read(Table& arr) {
  Point p = random_cell(arr);
  if (!written_.empty() && rng_.chance(0.5)) {
    const Point w = written_[rng_.in(0, written_.size() - 1)];
    if (in_bounds(arr, w)) p = w;
  }
  const std::uint64_t* got = nullptr;
  op("storage.get", [&] { got = arr.get(p.x, p.y); });
  expect(got, p);
}

void TableRun::shrink(Table& arr) {
  const index_t d = rng_.in(1, 4);
  const bool rows = rng_.chance(1.0 / 3) && arr.rows() > kStartRows + d;
  const index_t nr = rows ? arr.rows() - d : arr.rows();
  const index_t nc = rows ? arr.cols() : arr.cols() - d;
  op("storage.resize", [&] { arr.resize(nr, nc); });
  for (auto it = shadow_.begin(); it != shadow_.end();) {
    const Point p{it->first >> 32, it->first & 0xFFFFFFFFu};
    if (p.x <= nr && p.y <= nc) {
      ++it;
      continue;
    }
    if (probes_.size() < kProbeCap) probes_.push_back(p);
    it = shadow_.erase(it);
  }
}

void TableRun::batch(const Table& arr, bool traced) {
  std::vector<index_t> xs, ys;
  for (std::size_t k = 0; k < kTailPerBlock; ++k) {
    const index_t x = rng_.in(kRowsMax - 255, kRowsMax);
    xs.push_back(x);
    ys.push_back(kEngineShells / x + rng_.in(1, 256));
  }
  for (std::size_t tries = 0; xs.size() < kBatchBlock && tries < 4 * kBatchBlock;
       ++tries) {
    const Point p = written_[rng_.in(0, written_.size() - 1)];
    if (!in_bounds(arr, p) || shadow_.count(key(p.x, p.y)) == 0) continue;
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const std::size_t n = xs.size();
  std::vector<index_t> addrs(n);
  std::vector<Point> pts(n);
  try {
    const std::uint64_t t0 = now_ns();
    {
      const ScopedSpan s(spans_, "core.pair_batch.hyperbolic", epoch_span_, n);
      pf_->pair_batch(xs, ys, addrs);
    }
    const std::uint64_t t1 = now_ns();
    {
      const ScopedSpan s(spans_, "core.unpair_batch.hyperbolic", epoch_span_, n);
      pf_->unpair_batch(addrs, pts);
    }
    const std::uint64_t t2 = now_ns();
    pair_ns_ += t1 - t0;
    unpair_ns_ += t2 - t1;
    batch_elems_ += n;
  } catch (const pfl::Error&) {
    report_.attempted += n;
    report_.failed += n;
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    report_.check(pts[i].x == xs[i] && pts[i].y == ys[i]);
  for (int k = 0; k < 8; ++k) {
    const std::size_t i = rng_.in(0, n - 1);
    report_.check(pf_->pair(xs[i], ys[i]) == addrs[i]);
  }
  for (std::size_t i = 0; traced && i < n && addr_sample_.size() < kSampleCap; ++i)
    addr_sample_.push_back(addrs[i]);
}

void TableRun::epoch(bool traced) {
  spans_.arm(traced);
  const std::uint64_t start = now_ns();
  const std::uint64_t ops0 = ops_, op_ns0 = op_ns_, elems0 = batch_elems_,
                      pair_ns0 = pair_ns_, unpair_ns0 = unpair_ns_;
  const ScopedSpan epoch_span(spans_, "bench.epoch");
  epoch_span_ = epoch_span.id();
  std::optional<CpuPin> pin;
  Table arr(pf_, kStartRows, kStartCols);
  shadow_.clear();
  written_.clear();
  probes_.clear();
  for (std::uint64_t step = 1; arr.rows() < kRowsMax || arr.cols() < kColsMax;
       ++step) {
    if (step % kPinEvery == 1) {
      pin.reset();
      pin.emplace(step / kPinEvery);
    }
    const bool row = arr.rows() < kRowsMax &&
                     (arr.cols() >= kColsMax || 2 * arr.rows() <= arr.cols());
    op("storage.resize", [&] { row ? arr.append_row() : arr.append_col(); });
    for (int k = 0; k < kOpsPerStep; ++k) {
      if (rng_.chance(0.5)) {
        write(arr, traced);
      } else {
        read(arr);
      }
    }
    if (step % kShrinkEvery == 0) shrink(arr);
    if (step % kBatchEvery == 0 && written_.size() >= kBatchBlock)
      batch(arr, traced);
  }
  // Back at full size every dropped cell is in bounds again: it must be
  // absent unless it was rewritten since.
  for (const Point p : probes_) expect(arr.get(p.x, p.y), p);
  report_.check(arr.stored() == shadow_.size());
  fill_ratios_.push_back(ratio(static_cast<double>(arr.stored()),
                               static_cast<double>(arr.address_high_water())));
  op_rates_.push_back(ratio(ops_ - ops0, (op_ns_ - op_ns0) * 1e-9));
  pair_rates_.push_back(
      ratio(batch_elems_ - elems0, (pair_ns_ - pair_ns0) * 1e-9));
  unpair_rates_.push_back(
      ratio(batch_elems_ - elems0, (unpair_ns_ - unpair_ns0) * 1e-9));
  epoch_ns_[traced] += now_ns() - start;
  ++epochs_[traced];
}

void TableRun::run() {
  // Set-up is the engine warm-up: the process-wide table the batch paths
  // read, then the same build on private engines for more samples.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const CpuPin pin(static_cast<std::size_t>(rep));
    const std::uint64_t t0 = now_ns();
    if (rep == 0) {
      pfl::nt::SummatoryEngine::global().ensure_shells(kEngineShells);
    } else {
      pfl::nt::SummatoryEngine local;
      local.ensure_shells(kEngineShells);
    }
    report_.e2e.setup_s.push_back(seconds_since(t0));
  }

  const ObsSnapshot before = obs_snapshot();
  const std::uint64_t start = now_ns();
  for (std::uint64_t e = 0; seconds_since(start) < args_.seconds || e % 2 != 0;
       ++e)
    epoch(args_.trace && e % 2 == 1);
  spans_.arm(false);
  const ObsSnapshot after = obs_snapshot();

  report_.e2e.ops_per_s = median(op_rates_);
  report_.e2e.pair_per_s = median(pair_rates_);
  report_.e2e.unpair_per_s = median(unpair_rates_);
  report_.e2e.set_latency(latency_);
  report_.notes.push_back("epochs: " + std::to_string(epochs_[0] + epochs_[1]) +
                          ", table ops: " + std::to_string(ops_) +
                          ", batch elements: " + std::to_string(batch_elems_));
  if (args_.trace) report_layers(before, after);
}

void TableRun::report_layers(const ObsSnapshot& before,
                             const ObsSnapshot& after) {
  LayerMetrics& L = report_.layers;
  const auto mean_ns = [&](const char* name) {
    const auto a = spans_.aggregate(name);
    return ratio(a.total_ns, a.count);
  };
  const auto per_elem = [&](const char* name) {
    const auto a = spans_.aggregate(name);
    return ratio(a.total_ns, a.arg_sum);
  };
  L.set("core.pair_batch_ns.hyperbolic", per_elem("core.pair_batch.hyperbolic"));
  L.set("core.unpair_batch_ns.hyperbolic",
        per_elem("core.unpair_batch.hyperbolic"));
  const double batch_total =
      counter_delta_prefix(before, after, "pfl_core_batch_elems_");
  L.set("core.batch_elems", batch_total);
  L.set("core.checked_elem_share",
        ratio(counter_delta(before, after, "pfl_core_batch_elems_checked_total"),
              batch_total));
  L.set("core.simd_elem_share",
        ratio(counter_delta(before, after, "pfl_core_batch_elems_simd_total"),
              batch_total));

  const double hits =
      counter_delta(before, after, "pfl_nt_summatory_table_hits_total");
  const double fallbacks =
      counter_delta(before, after, "pfl_nt_summatory_fallbacks_total");
  L.set("numtheory.table_queries", hits + fallbacks);
  L.set("numtheory.table_hit_ratio", ratio(hits, hits + fallbacks));
  L.set("numtheory.walk_advances", batch_elems_);
  L.set("numtheory.walk_reuse_ratio",
        ratio(counter_delta(before, after, "pfl_nt_summatory_walk_reuses_total"),
              batch_elems_));

  L.set("storage.at_ns", mean_ns("storage.at"));
  L.set("storage.get_ns", mean_ns("storage.get"));
  L.set("storage.resize_ns", mean_ns("storage.resize"));
  L.set("storage.fill_ratio", median(fill_ratios_));
  const double reshapes =
      counter_delta(before, after, "pfl_storage_extendible_reshapes_total");
  L.set("storage.reshapes", reshapes);
  L.set("storage.dropped_per_reshape",
        ratio(counter_delta(before, after,
                            "pfl_storage_extendible_dropped_cells_total"),
              reshapes));
  L.set("bench.trace_overhead",
        ratio(ratio(epoch_ns_[1], epochs_[1]), ratio(epoch_ns_[0], epochs_[0])) -
            1.0);

  // Replays on the traced epochs' own inputs: the engine view on the
  // batch blocks' addresses and shells, and the scalar pair inside at().
  const auto view = pfl::nt::SummatoryEngine::global().view();
  volatile index_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (const index_t z : addr_sample_) sink = sink + view.bracket(z).shell;
  L.set("numtheory.bracket_ns", ratio(now_ns() - t0, addr_sample_.size()));
  std::vector<index_t> shells;
  for (const index_t z : addr_sample_) {
    const Point p = pf_->unpair(z);
    shells.push_back(p.x * p.y);
  }
  t0 = now_ns();
  for (const index_t n : shells) sink = sink + view.divisors(n).size();
  L.set("numtheory.divisors_ns", ratio(now_ns() - t0, shells.size()));
  t0 = now_ns();
  for (const Point p : at_sample_) sink = sink + pf_->pair(p.x, p.y);
  const double pair_ns = ratio(now_ns() - t0, at_sample_.size());
  L.set("storage.addressing_share", ratio(pair_ns, mean_ns("storage.at")));

  measure_obs_costs(L);
  spans_.write_json(args_.out_dir + "/trace-hyperbolic-table.json",
                    fingerprint_json(args_), 100000);
}

}  // namespace

Report run_hyperbolic_table(const Args& args) {
  Report report;
  TableRun run(args, report);
  run.run();
  return report;
}

}  // namespace perfbench
