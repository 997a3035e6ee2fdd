// volunteer-rpc: a net::TaskService on loopback serving the T^# APF with
// kFirstFree, driven closed-loop from this process through
// VolunteerSession: kThreads client threads with one socket each,
// kVolunteersPerThread volunteers multiplexed per socket, get-task ->
// submit, and a heartbeat every kHeartbeatEvery tasks. With the server's
// loop thread that is four threads. The run is a sequence of rounds, each
// a fresh service (start, connect, join: the set-up), kTasksPerRound
// credited tasks (the steady state), then stop() and the accountability
// checks. Fixed work per round keeps memory independent of throughput.
#include <algorithm>
#include <array>
#include <atomic>
#include <latch>
#include <memory>
#include <thread>

#include "apf/tsharp.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/task_service.hpp"
#include "net/wire.hpp"
#include "wbc/frontend.hpp"

namespace perfbench {
namespace {

using pfl::index_t;
namespace net = pfl::net;
namespace wbc = pfl::wbc;

constexpr std::size_t kThreads = 3;
constexpr std::size_t kVolunteersPerThread = 16;
constexpr std::uint64_t kHeartbeatEvery = 16;
constexpr index_t kTasksPerRound = 12288;
constexpr int kTickMs = 50;
constexpr int kCheckPasses = 8;
/// A client thread that sees this many RPCs fail in a row ends the round
/// for every thread, so a broken service cannot stall the run.
constexpr std::size_t kMaxConsecutiveFailures = 16;

enum Op : std::uint8_t { kGetTask, kSubmit, kHeartbeat };
constexpr std::array<const char*, 3> kOpSpan = {
    "net.client_rpc.get_task", "net.client_rpc.submit",
    "net.client_rpc.heartbeat"};

/// One client RPC as the replay needs it.
struct RpcRec {
  std::uint64_t t_end_ns = 0;
  std::uint64_t latency_ns = 0;
  wbc::VolunteerId volunteer = 0;
  Op op = kGetTask;
  bool ok = false;
};

/// A task the service credited: who submitted it and where it came from.
struct Credit {
  wbc::VolunteerId volunteer = 0;
  wbc::TaskIndex task = 0;
  wbc::RowIndex row = 0;
  index_t sequence = 0;
};

struct Worker {
  std::vector<RpcRec> recs;
  std::vector<Credit> credits;
  SpanBuffer spans;
  net::SessionStats stats;
  std::uint64_t end_ns = 0;
  std::uint64_t failed = 0;
};

std::uint64_t speed_milli(wbc::VolunteerId id) { return 500 + (id * 37) % 1500; }

class RpcRun {
 public:
  RpcRun(const Args& args, Report& report)
      : args_(args), report_(report),
        apf_(std::make_shared<pfl::apf::TSharpApf>()) {
    leases_.base_deadline_ticks = 64;
    config_.tick_interval_ms = kTickMs;
    for (Worker& w : workers_) {
      w.recs.reserve(2 * kTasksPerRound);
      w.credits.reserve(kTasksPerRound);
    }
  }

  void run();

 private:
  void round(std::uint64_t r, bool traced);
  void client(Worker& w, std::size_t t, std::uint16_t port, std::uint64_t round,
              std::latch& joined, std::latch& go, std::atomic<index_t>& credited,
              std::atomic<bool>& abort);
  void verify(const wbc::FrontEnd& fe);
  void report_layers(const ObsSnapshot& before, const ObsSnapshot& after);

  const Args& args_;
  Report& report_;
  pfl::apf::ApfPtr apf_;
  net::TaskServiceConfig config_;
  wbc::LeaseConfig leases_;
  std::array<Worker, kThreads> workers_;

  // One sample per round; the reported values are medians over rounds.
  std::vector<double> task_rates_, p50_ms_, p99_ms_;
  std::uint64_t credited_ = 0, rpcs_ = 0;
  double tail_q_ = 0.0;
  std::array<std::uint64_t, 2> round_ns_{}, rounds_{};
  std::vector<double> pair_rates_, unpair_rates_;
  net::SessionStats stats_;
  SpanBuffer spans_;
  std::vector<RpcRec> replay_;  ///< the last traced round, in end order
  std::uint64_t replay_start_ns_ = 0;
};

void RpcRun::client(Worker& w, std::size_t t, std::uint16_t port,
                    std::uint64_t round, std::latch& joined, std::latch& go,
                    std::atomic<index_t>& credited, std::atomic<bool>& abort) {
  const CpuPin pin(t);
  net::NetClient socket;
  std::vector<std::unique_ptr<net::VolunteerSession>> sessions;
  for (std::size_t i = 0; i < kVolunteersPerThread; ++i) {
    const wbc::VolunteerId id = t * kVolunteersPerThread + i + 1;
    net::RetryPolicy policy;
    policy.max_attempts = 8;
    policy.max_backoff_ms = 50;
    policy.seed = (args_.seed * 0x100000001B3ull + round) ^ id;
    sessions.push_back(std::make_unique<net::VolunteerSession>(
        socket, port, id, speed_milli(id), policy));
    if (!sessions.back()->join()) ++w.failed;
  }
  joined.count_down();
  go.wait();

  std::size_t consecutive_failures = 0;
  const auto timed = [&](Op op, wbc::VolunteerId v, const auto& rpc) {
    const ScopedSpan span(w.spans, kOpSpan[op], 0, v);
    const std::uint64_t t0 = now_ns();
    const bool ok = rpc();
    const std::uint64_t t1 = now_ns();
    w.recs.push_back({t1, t1 - t0, v, op, ok});
    consecutive_failures = ok ? 0 : consecutive_failures + 1;
    if (!ok) ++w.failed;
    if (consecutive_failures >= kMaxConsecutiveFailures) abort = true;
    return ok;
  };
  const auto done = [&] {
    return abort || credited.load(std::memory_order_relaxed) >= kTasksPerRound;
  };
  std::uint64_t fetched = 0;
  while (!done()) {
    for (auto& session : sessions) {
      if (done()) break;
      const wbc::VolunteerId v = session->id();
      wbc::TaskAssignment task;
      std::uint64_t lease_ms = 0;
      if (!timed(kGetTask, v, [&] { return session->fetch_task(task, lease_ms); }))
        continue;
      wbc::SubmitStatus status = wbc::SubmitStatus::kNeverIssued;
      const bool stored = timed(kSubmit, v, [&] {
        return session->submit(task.task, net::task_checksum(task.task),
                               &status) &&
               wbc::submit_accepted(status);
      });
      if (stored) {
        w.credits.push_back({v, task.task, task.row, task.sequence});
        credited.fetch_add(1, std::memory_order_relaxed);
      }
      if (++fetched % kHeartbeatEvery == 0) {
        index_t renewed = 0;
        timed(kHeartbeat, v, [&] { return session->heartbeat(renewed); });
      }
    }
  }
  w.end_ns = now_ns();
  for (auto& session : sessions) {
    session->leave();
    const net::SessionStats& s = session->stats();
    w.stats.retries += s.retries;
    w.stats.reconnects += s.reconnects;
    w.stats.typed_rejections += s.typed_rejections;
  }
}

void RpcRun::round(std::uint64_t r, bool traced) {
  for (Worker& w : workers_) {
    w.recs.clear();
    w.credits.clear();
    w.spans = SpanBuffer{};
    w.spans.arm(traced);
    w.stats = {};
    w.failed = 0;
  }
  const std::uint64_t t0 = now_ns();
  net::TaskService service(apf_, wbc::AssignmentPolicy::kFirstFree, config_,
                           leases_);
  {
    // The loop thread inherits this mask: the server gets the CPU after
    // the clients' (one thread per CPU on a 4-CPU machine).
    const CpuPin pin(kThreads);
    if (!service.start()) throw std::runtime_error("cannot bind 127.0.0.1");
  }
  std::atomic<index_t> credited{0};
  std::atomic<bool> abort{false};
  std::latch joined(kThreads);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      client(workers_[t], t, service.port(), r, joined, go, credited, abort);
    });
  joined.wait();
  report_.e2e.setup_s.push_back(seconds_since(t0));

  const std::uint64_t start = now_ns();
  go.count_down();
  for (std::thread& th : threads) th.join();
  std::uint64_t end = start;
  for (const Worker& w : workers_) end = std::max(end, w.end_ns);
  service.stop();

  round_ns_[traced] += end - start;
  ++rounds_[traced];
  SampleLog round_latency(4 * kTasksPerRound, args_.seed + r);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const Worker& w = workers_[t];
    for (const RpcRec& rec : w.recs) round_latency.add(rec.latency_ns);
    report_.attempted += w.recs.size() + kVolunteersPerThread;
    report_.failed += w.failed + w.stats.typed_rejections;
    stats_.retries += w.stats.retries;
    // The library counts a thread's first connect as a reconnect.
    stats_.reconnects += w.stats.reconnects - std::min<std::uint64_t>(w.stats.reconnects, 1);
    if (traced) spans_.append(w.spans, static_cast<std::uint32_t>(t + 1));
  }
  if (traced) {
    replay_.clear();
    for (const Worker& w : workers_)
      replay_.insert(replay_.end(), w.recs.begin(), w.recs.end());
    std::sort(replay_.begin(), replay_.end(),
              [](const RpcRec& a, const RpcRec& b) { return a.t_end_ns < b.t_end_ns; });
    replay_start_ns_ = t0;
  }
  rpcs_ += round_latency.seen();
  tail_q_ = tail_quantile(round_latency.seen());
  p50_ms_.push_back(round_latency.quantile_ms(0.5));
  p99_ms_.push_back(round_latency.quantile_ms(tail_q_));
  std::size_t round_credits = 0;
  for (const Worker& w : workers_) round_credits += w.credits.size();
  task_rates_.push_back(ratio(round_credits, (end - start) * 1e-9));
  report_.check(!abort);
  verify(service.frontend());
}

void RpcRun::verify(const wbc::FrontEnd& fe) {
  std::vector<Credit> all;
  for (const Worker& w : workers_)
    all.insert(all.end(), w.credits.begin(), w.credits.end());
  credited_ += all.size();
  // Each result stored exactly once: no task credited twice, and the
  // server holds exactly as many results as were credited.
  std::vector<wbc::TaskIndex> tasks;
  for (const Credit& c : all) tasks.push_back(c.task);
  std::sort(tasks.begin(), tasks.end());
  report_.check(std::adjacent_find(tasks.begin(), tasks.end()) == tasks.end());
  report_.check(fe.server().total_results() == all.size());

  // Accountability (T^-1 through the front end) and issue (T forward),
  // each timed over every credited task, one pass per CPU in turn.
  std::uint64_t unpair_ns = 0, pair_ns = 0;
  for (int pass = 0; pass < kCheckPasses; ++pass) {
    const CpuPin pin(static_cast<std::size_t>(pass));
    std::uint64_t wrong = 0;
    std::uint64_t t0 = now_ns();
    for (const Credit& c : all) {
      try {
        wrong += fe.volunteer_of_task(c.task) != c.volunteer;
      } catch (const pfl::Error&) {
        ++wrong;
      }
    }
    unpair_ns += now_ns() - t0;
    if (pass == 0) {
      report_.attempted += all.size();
      report_.failed += wrong;
    }
    wrong = 0;
    t0 = now_ns();
    for (const Credit& c : all) wrong += apf_->pair(c.row, c.sequence) != c.task;
    pair_ns += now_ns() - t0;
    if (pass == 0) {
      report_.attempted += all.size();
      report_.failed += wrong;
    }
  }
  const double n = static_cast<double>(all.size()) * kCheckPasses;
  unpair_rates_.push_back(ratio(n, unpair_ns * 1e-9));
  pair_rates_.push_back(ratio(n, pair_ns * 1e-9));
}

void RpcRun::run() {
  const ObsSnapshot before = obs_snapshot();
  const std::uint64_t start = now_ns();
  for (std::uint64_t r = 0; seconds_since(start) < args_.seconds || r % 2 != 0;
       ++r)
    round(r, args_.trace && r % 2 == 1);
  const ObsSnapshot after = obs_snapshot();

  report_.e2e.ops_per_s = median(task_rates_);
  report_.e2e.pair_per_s = median(pair_rates_);
  report_.e2e.unpair_per_s = median(unpair_rates_);
  report_.e2e.op_samples = rpcs_;
  report_.e2e.op_tail_q = tail_q_;
  report_.e2e.op_p50_ms = median(p50_ms_);
  report_.e2e.op_tail_ms = median(p99_ms_);
  report_.notes.push_back(
      "rounds: " + std::to_string(rounds_[0] + rounds_[1]) +
      ", tasks credited: " + std::to_string(credited_) +
      ", retries: " + std::to_string(stats_.retries) +
      ", reconnects: " + std::to_string(stats_.reconnects));
  if (args_.trace) report_layers(before, after);
}

void RpcRun::report_layers(const ObsSnapshot& before, const ObsSnapshot& after) {
  LayerMetrics& L = report_.layers;
  // Client view, from the traced rounds' spans.
  SpanBuffer::Agg all;
  const std::array<const char*, 3> names = {"net.client_rpc_ns.get_task",
                                            "net.client_rpc_ns.submit",
                                            "net.client_rpc_ns.heartbeat"};
  for (std::size_t op = 0; op < kOpSpan.size(); ++op) {
    const auto a = spans_.aggregate(kOpSpan[op]);
    L.set(names[op], ratio(a.total_ns, a.count));
    all.count += a.count;
    all.total_ns += a.total_ns;
  }
  const double client_ns = ratio(all.total_ns, all.count);
  L.set("net.client_rpc_ns.all", client_ns);
  L.set("net.retries", stats_.retries);
  L.set("net.reconnects", stats_.reconnects);
  const double requests = counter_delta(before, after, "pfl_net_requests_total");
  L.set("net.requests", requests);
  L.set("net.reject_ratio",
        ratio(counter_delta(before, after, "pfl_net_requests_rejected_total"),
              requests));
  const auto service = histogram_delta(before, after, "pfl_net_request_service_ns");
  L.set("net.server_service_ns", ratio(service.second, service.first));
  const double issued = counter_delta(before, after, "pfl_wbc_tasks_issued_total");
  L.set("wbc.tasks_issued", issued);
  L.set("wbc.credit_ratio",
        ratio(counter_delta(before, after, "pfl_wbc_results_submitted_total"),
              issued));
  L.set("apf.task_index_ns", ratio(1e9, median(pair_rates_)));
  L.set("bench.trace_overhead",
        ratio(ratio(round_ns_[1], rounds_[1]), ratio(round_ns_[0], rounds_[0])) -
            1.0);

  // Replay the last traced round through a socket-less FrontEnd: the
  // wbc + apf cost of each RPC with no wire, syscall or poll() under it.
  const std::uint64_t overhead = clock_overhead_ns();
  const auto since = [&](std::uint64_t t0) {
    const std::uint64_t dt = now_ns() - t0;
    return dt > overhead ? dt - overhead : 0;
  };
  wbc::FrontEnd fe(apf_, wbc::AssignmentPolicy::kFirstFree, config_.ban_threshold,
                   leases_);
  const std::size_t volunteers = kThreads * kVolunteersPerThread;
  for (wbc::VolunteerId v = 1; v <= volunteers; ++v)
    fe.arrive(v, static_cast<double>(speed_milli(v)) / 1000.0);
  std::vector<wbc::TaskIndex> held(volunteers + 1, 0);
  std::array<std::uint64_t, 3> op_ns{}, op_count{};
  std::uint64_t tick_ns = 0, ticks = 0;
  index_t last_tick = 0;
  for (const RpcRec& rec : replay_) {
    if (!rec.ok) continue;
    const index_t tick =
        (rec.t_end_ns - replay_start_ns_) / (static_cast<std::uint64_t>(kTickMs) * 1000000);
    if (tick > last_tick) {
      const std::uint64_t t0 = now_ns();
      fe.tick(tick);
      tick_ns += since(t0);
      ++ticks;
      last_tick = tick;
    }
    const wbc::VolunteerId v = rec.volunteer;
    const std::uint64_t t0 = now_ns();
    bool ok = true;
    try {
      switch (rec.op) {
        case kGetTask:
          held[v] = fe.request_task(v).task;
          break;
        case kSubmit:
          ok = wbc::submit_accepted(
              fe.submit_result(v, held[v], net::task_checksum(held[v])));
          break;
        case kHeartbeat:
          fe.heartbeat(v);
          break;
      }
    } catch (const pfl::Error&) {
      ok = false;
    }
    op_ns[rec.op] += since(t0);
    ++op_count[rec.op];
    report_.check(ok);
  }
  L.set("wbc.request_task_ns", ratio(op_ns[kGetTask], op_count[kGetTask]));
  L.set("wbc.submit_result_ns", ratio(op_ns[kSubmit], op_count[kSubmit]));
  L.set("wbc.heartbeat_ns", ratio(op_ns[kHeartbeat], op_count[kHeartbeat]));
  L.set("wbc.tick_ns", ratio(tick_ns, ticks));
  const double rpcs = op_count[0] + op_count[1] + op_count[2];
  const double wbc_ns =
      ratio(op_ns[0] + op_ns[1] + op_ns[2] + tick_ns, rpcs);
  L.set("wbc.ns_per_rpc", wbc_ns);

  // The same stream through the wire layer: each RPC is one request and
  // one response frame, each encoded once and decoded once.
  std::vector<std::string> frames;
  std::uint64_t t0 = now_ns();
  for (const RpcRec& rec : replay_) {
    const wbc::VolunteerId v = rec.volunteer;
    switch (rec.op) {
      case kGetTask:
        frames.push_back(net::encode_get_task(v));
        frames.push_back(net::encode_frame(net::MsgType::kTask, {v, v, v, v}));
        break;
      case kSubmit:
        frames.push_back(net::encode_submit(v, v, v, 0));
        frames.push_back(net::encode_frame(net::MsgType::kSubmitAck, {0}));
        break;
      case kHeartbeat:
        frames.push_back(net::encode_heartbeat(v));
        frames.push_back(net::encode_frame(net::MsgType::kHeartbeatAck, {1}));
        break;
    }
  }
  const double encode_ns = ratio(now_ns() - t0, frames.size());
  net::FrameReader reader;
  net::Frame frame;
  std::uint64_t decoded = 0;
  t0 = now_ns();
  for (const std::string& bytes : frames) {
    reader.feed(bytes);
    decoded += reader.take(frame) == net::DecodeStatus::kFrame;
  }
  const double decode_ns = ratio(now_ns() - t0, frames.size());
  report_.check(decoded == frames.size());
  L.set("net.encode_ns", encode_ns);
  L.set("net.decode_ns", decode_ns);
  const double wire_ns = 2 * (encode_ns + decode_ns);
  L.set("net.wire_ns_per_rpc", wire_ns);
  L.set("net.residual_ns", client_ns - wire_ns - wbc_ns);

  measure_obs_costs(L);
  spans_.write_json(args_.out_dir + "/trace-volunteer-rpc.json",
                    fingerprint_json(args_), 100000);
}

}  // namespace

Report run_volunteer_rpc(const Args& args) {
  Report report;
  RpcRun run(args, report);
  run.run();
  return report;
}

}  // namespace perfbench
