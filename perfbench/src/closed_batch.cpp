// closed-batch: pair_batch -> unpair_batch round trips of 2^17-coordinate
// blocks on the closed-form PFs (diagonal, square-shell, szudzik,
// aspect-2x3) through their virtual batch API. One job maps the same
// block through all four PFs; in every cycle of kCycle jobs exactly one
// (a seeded position) uses the wide block, whose few coordinates past
// 2^31 push its pair calls -- and its large addresses' unpair calls --
// out of the SIMD/proven envelopes into the checked tier. Fixed cycle
// composition keeps the mix identical across seeds.
#include <algorithm>
#include <array>
#include <memory>

#include "common.hpp"
#include "core/registry.hpp"

namespace perfbench {
namespace {

using pfl::index_t;
using pfl::Point;

constexpr std::size_t kBlock = std::size_t{1} << 17;
constexpr std::size_t kNormalBlocks = 4;
constexpr std::uint64_t kCycle = 8;
constexpr int kSetupReps = 9;
/// Inside every PF's proven and SIMD envelope (aspect-2x3's pair tier is
/// the tightest, at 2^15).
constexpr index_t kSmallMax = index_t{1} << 15;
/// Past the 2^31 pair envelope, yet every PF's address still fits 64 bits.
constexpr index_t kBigLo = (index_t{1} << 31) + 1;
constexpr index_t kBigHi = (index_t{1} << 31) + (index_t{1} << 28);
constexpr double kBigShare = 1.0 / 128;
constexpr std::size_t kCrossChecks = 256;

constexpr std::array<const char*, 4> kPfs = {"diagonal", "square-shell",
                                             "szudzik", "aspect-2x3"};
constexpr std::array<const char*, 4> kPairSpan = {
    "core.pair_batch.diagonal", "core.pair_batch.square-shell",
    "core.pair_batch.szudzik", "core.pair_batch.aspect-2x3"};
constexpr std::array<const char*, 4> kUnpairSpan = {
    "core.unpair_batch.diagonal", "core.unpair_batch.square-shell",
    "core.unpair_batch.szudzik", "core.unpair_batch.aspect-2x3"};

struct Block {
  std::vector<index_t> xs;
  std::vector<index_t> ys;
};

struct Pool {
  std::vector<Block> normal;
  Block wide;
};

void fill_block(Block& b, Rng& rng, double big_share) {
  b.xs.resize(kBlock);
  b.ys.resize(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    b.xs[i] = rng.chance(big_share) ? rng.in(kBigLo, kBigHi)
                                    : rng.in(1, kSmallMax);
    b.ys[i] = rng.chance(big_share) ? rng.in(kBigLo, kBigHi)
                                    : rng.in(1, kSmallMax);
  }
}

/// Regenerates every block of `pool` from `seed`, reusing its memory.
void fill_pool(Pool& pool, std::uint64_t seed) {
  Rng rng(seed);
  pool.normal.resize(kNormalBlocks);
  for (Block& b : pool.normal) fill_block(b, rng, 0.0);
  fill_block(pool.wide, rng, kBigShare);
}

}  // namespace

Report run_closed_batch(const Args& args) {
  Report report;
  std::vector<pfl::PfPtr> pfs;
  for (const char* name : kPfs) pfs.push_back(pfl::make_core_pf(name));

  // Set-up: input generation plus one warm-up pass of every PF over every
  // block, repeated into the same memory (so only the first repetition
  // pays the page faults); the median is reported.
  Pool pool;
  std::vector<index_t> z(kBlock);
  std::vector<Point> pts(kBlock);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const CpuPin pin(static_cast<std::size_t>(rep));
    const std::uint64_t t0 = now_ns();
    fill_pool(pool, args.seed);
    const auto warm = [&](const Block& block) {
      for (const pfl::PfPtr& pf : pfs) {
        pf->pair_batch(block.xs, block.ys, z);
        pf->unpair_batch(z, pts);
      }
    };
    for (const Block& block : pool.normal) warm(block);
    warm(pool.wide);
    report.e2e.setup_s.push_back(seconds_since(t0));
  }

  Rng rng(args.seed ^ 0xC105EDBA7C4ull);
  const std::uint64_t wide_slot = rng.in(0, kCycle - 1);
  SampleLog job_latency(1 << 16, args.seed);
  SpanBuffer spans;
  // Per-job pair and unpair time (all four PFs); rates are medians over
  // whole cycles, whose job mix is identical.
  std::vector<std::uint64_t> job_pair_ns, job_unpair_ns;
  std::array<std::uint64_t, 2> job_ns_by_trace{}, jobs_by_trace{};

  const ObsSnapshot before = obs_snapshot();
  const std::uint64_t start = now_ns();
  for (std::uint64_t job = 0;
       seconds_since(start) < args.seconds || job % kCycle != 0; ++job) {
    const bool wide = job % kCycle == wide_slot;
    const Block& block = wide ? pool.wide : pool.normal[job % kNormalBlocks];
    // The traced run alternates whole cycles so both halves see the
    // same job mix; the difference is the tracing overhead.
    const bool traced = args.trace && (job / kCycle) % 2 == 1;
    const CpuPin pin(job);
    spans.arm(traced);
    const ScopedSpan job_span(spans, "bench.job", 0, wide ? 1 : 0);
    std::uint64_t pair_ns = 0, unpair_ns = 0;
    for (std::size_t p = 0; p < pfs.size(); ++p) {
      const pfl::PairingFunction& pf = *pfs[p];
      const std::uint64_t t0 = now_ns();
      bool threw = false;
      try {
        {
          const ScopedSpan s(spans, kPairSpan[p], job_span.id(), kBlock);
          pf.pair_batch(block.xs, block.ys, z);
        }
        const std::uint64_t t1 = now_ns();
        {
          const ScopedSpan s(spans, kUnpairSpan[p], job_span.id(), kBlock);
          pf.unpair_batch(z, pts);
        }
        const std::uint64_t t2 = now_ns();
        pair_ns += t1 - t0;
        unpair_ns += t2 - t1;
      } catch (const pfl::Error&) {
        threw = true;
      }
      // Round trip on every element, scalar cross-check on a sample.
      std::uint64_t bad = 0;
      if (threw) {
        bad = kBlock;
      } else {
        for (std::size_t i = 0; i < kBlock; ++i)
          bad += pts[i].x != block.xs[i] || pts[i].y != block.ys[i];
      }
      report.attempted += kBlock;
      report.failed += bad;
      for (std::size_t k = 0; k < kCrossChecks && !threw; ++k) {
        const std::size_t i = rng.in(0, kBlock - 1);
        try {
          report.check(pf.pair(block.xs[i], block.ys[i]) == z[i]);
        } catch (const pfl::Error&) {
          report.check(false);
        }
      }
    }
    job_pair_ns.push_back(pair_ns);
    job_unpair_ns.push_back(unpair_ns);
    job_latency.add(pair_ns + unpair_ns);
    job_ns_by_trace[traced] += pair_ns + unpair_ns;
    ++jobs_by_trace[traced];
  }
  spans.arm(false);
  const ObsSnapshot after = obs_snapshot();

  std::vector<double> pair_rates, unpair_rates, round_trip_rates;
  const double cycle_elems = static_cast<double>(kCycle * kBlock * pfs.size());
  for (std::size_t c = 0; c + kCycle <= job_pair_ns.size(); c += kCycle) {
    std::uint64_t pair = 0, unpair = 0;
    for (std::size_t j = c; j < c + kCycle; ++j) {
      pair += job_pair_ns[j];
      unpair += job_unpair_ns[j];
    }
    pair_rates.push_back(ratio(cycle_elems, pair * 1e-9));
    unpair_rates.push_back(ratio(cycle_elems, unpair * 1e-9));
    round_trip_rates.push_back(ratio(cycle_elems, (pair + unpair) * 1e-9));
  }
  report.e2e.pair_per_s = median(pair_rates);
  report.e2e.unpair_per_s = median(unpair_rates);
  report.e2e.ops_per_s = median(round_trip_rates);
  report.e2e.set_latency(job_latency);
  report.notes.push_back("jobs: " + std::to_string(jobs_by_trace[0] + jobs_by_trace[1]) +
                         " of " + std::to_string(pfs.size()) + " x " +
                         std::to_string(kBlock) + " coordinates, wide slot " +
                         std::to_string(wide_slot) + " of every " +
                         std::to_string(kCycle));

  if (args.trace) {
    LayerMetrics& L = report.layers;
    for (std::size_t p = 0; p < pfs.size(); ++p) {
      const auto pa = spans.aggregate(kPairSpan[p]);
      const auto ua = spans.aggregate(kUnpairSpan[p]);
      L.set(std::string("core.pair_batch_ns.") + kPfs[p],
            ratio(pa.total_ns, pa.arg_sum));
      L.set(std::string("core.unpair_batch_ns.") + kPfs[p],
            ratio(ua.total_ns, ua.arg_sum));
    }
    const double total =
        counter_delta_prefix(before, after, "pfl_core_batch_elems_");
    L.set("core.batch_elems", total);
    L.set("core.checked_elem_share",
          ratio(counter_delta(before, after, "pfl_core_batch_elems_checked_total"),
                total));
    L.set("core.simd_elem_share",
          ratio(counter_delta(before, after, "pfl_core_batch_elems_simd_total"),
                total));
    L.set("bench.trace_overhead",
          ratio(ratio(job_ns_by_trace[1], jobs_by_trace[1]),
                ratio(job_ns_by_trace[0], jobs_by_trace[0])) -
              1.0);
    measure_obs_costs(L);
    spans.write_json(args.out_dir + "/trace-closed-batch.json",
                     fingerprint_json(args), 100000);
  }
  return report;
}

}  // namespace perfbench
