// End-to-end mode: closed-loop rounds against a fresh pfp_server each.
//
// One round = start pfp_server pinned to the server CPUs, connect, open
// and restore every tenant (setup_s), STATS baseline, then one client
// thread per connection runs its timed script closed loop (each request
// waits for its reply), then STATS and the post steps.  Every reply is
// compared with the in-process replay.  Rounds repeat with identical
// inputs until --seconds have passed; timings are pooled or taken as
// medians over rounds.
#include "drive.hpp"

#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <thread>

#include "client.hpp"
#include "report.hpp"

namespace servebench {

namespace {

/// pfp_server event loops: one per connection.
constexpr std::size_t kServerLoops = 2;

struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::string first_error;

  void fail(const std::string& what) {
    ++failures;
    if (first_error.empty()) {
      first_error = what;
    }
  }
  void merge(const Tally& other) {
    requests += other.requests;
    failures += other.failures;
    if (first_error.empty()) {
      first_error = other.first_error;
    }
  }
};

/// One connection's share of a round.
struct ConnRun {
  Tally tally;
  std::vector<double> rtt_ms;
  std::vector<double> ship_ms;
  std::uint64_t accesses = 0;
  Clock::time_point first_send{};
  Clock::time_point last_reply{};
};

/// Runs `steps` on one connection, checking every reply.
void run_steps(Client& client, std::uint16_t port,
               const std::vector<Step>& steps, ConnRun& run) {
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> held_image;  // SNAPSHOT reply, checked after
  const Step* held_step = nullptr;       // the cycle's clock stops
  Clock::time_point ship_start{};
  bool started = false;
  for (const Step& step : steps) {
    ++run.tally.requests;
    if (step.kind == StepKind::kScrape) {
      const std::string page = http_get(port, "/metrics");
      if (page.rfind("HTTP/1.1 200 OK", 0) != 0 ||
          page.find("tenant=\"t1\"") == std::string::npos) {
        run.tally.fail("/metrics scrape returned an unexpected page");
      }
      continue;
    }
    const Clock::time_point sent = Clock::now();
    client.send(step.frame);
    client.receive(header, payload);
    const Clock::time_point replied = Clock::now();
    if (!started) {
      run.first_send = sent;
      started = true;
    }
    run.last_reply = replied;

    if (step.kind == StepKind::kSnapshot) {
      ship_start = sent;
      held_image.swap(payload);
      held_step = &step;
      if (header.type != step.reply_type ||
          header.serial != frame_serial(step.frame)) {
        run.tally.fail("SNAPSHOT reply header mismatch");
      }
      continue;
    }
    if (!reply_matches(step, header, payload)) {
      std::string what = "reply mismatch on request type " +
                         std::to_string(static_cast<int>(step.frame[4]));
      if (header.type == wire::MsgType::kError) {
        if (const auto err = wire::parse_error(payload)) {
          what += ": " + std::string(wire::error_name(err->code)) + " " +
                  err->detail;
        }
      }
      run.tally.fail(what);
    }
    if (step.kind == StepKind::kAccess || step.kind == StepKind::kAccessMany) {
      run.rtt_ms.push_back(seconds_between(sent, replied) * 1e3);
      run.accesses += step.blocks;
    }
    if (step.ships_previous_snapshot) {
      run.ship_ms.push_back(seconds_between(ship_start, replied) * 1e3);
      if (held_step == nullptr || held_image != held_step->reply_payload) {
        run.tally.fail("SNAPSHOT image differs from the in-process replay");
      }
      held_step = nullptr;
    }
  }
}

/// Runs `fn` and turns an exception into a counted failure.
template <typename Fn>
void guarded(Tally& tally, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& err) {
    tally.fail(err.what());
  }
}

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> throughput;
  std::vector<double> rtt_ms;
  std::vector<double> p50_ms;  // per round
  std::vector<double> p99_ms;  // per round
  std::vector<double> ship_ms;
  std::vector<double> rss_mb;
  std::vector<double> cpu_us_per_op;
  Tally tally;
};

void run_round(const Plan& plan, const DriveOptions& options,
               Samples& samples) {
  Tally& tally = samples.tally;
  const Clock::time_point t0 = Clock::now();
  ServerProcess server(options.server_binary, kServerLoops,
                       options.server_cpus);
  server.pin_threads(options.server_cpus);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ConnRun> runs(plan.conns.size());
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    clients.push_back(std::make_unique<Client>(server.port()));
    run_steps(*clients[c], server.port(), plan.conns[c].setup, runs[c]);
  }
  samples.setup_s.push_back(seconds_between(t0, Clock::now()));
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    run_steps(*clients[c], server.port(), plan.conns[c].pre, runs[c]);
  }

  const std::uint64_t cpu0 = server.cpu_ns();
  std::vector<ConnRun> timed(plan.conns.size());
  std::atomic<bool> go{false};
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      threads.emplace_back([&, c] {
        // One spinning client thread per CPU of the client set.
        if (!options.client_cpus.empty()) {
          pin_to({options.client_cpus[c % options.client_cpus.size()]});
        }
        while (!go.load(std::memory_order_acquire)) {
        }
        guarded(timed[c].tally, [&] {
          run_steps(*clients[c], server.port(), plan.conns[c].timed,
                    timed[c]);
        });
      });
    }
    go.store(true, std::memory_order_release);
  }
  const std::uint64_t cpu1 = server.cpu_ns();

  Clock::time_point first = timed[0].first_send;
  Clock::time_point last = timed[0].last_reply;
  std::uint64_t accesses = 0;
  std::vector<double> rtt_ms;
  for (const ConnRun& run : timed) {
    first = std::min(first, run.first_send);
    last = std::max(last, run.last_reply);
    accesses += run.accesses;
    rtt_ms.insert(rtt_ms.end(), run.rtt_ms.begin(), run.rtt_ms.end());
    samples.ship_ms.insert(samples.ship_ms.end(), run.ship_ms.begin(),
                           run.ship_ms.end());
    tally.merge(run.tally);
  }
  samples.p50_ms.push_back(quantile(rtt_ms, 0.50));
  samples.p99_ms.push_back(quantile(rtt_ms, 0.99));
  samples.rtt_ms.insert(samples.rtt_ms.end(), rtt_ms.begin(), rtt_ms.end());
  samples.throughput.push_back(static_cast<double>(accesses) /
                               seconds_between(first, last));
  samples.cpu_us_per_op.push_back(static_cast<double>(cpu1 - cpu0) / 1e3 /
                                  static_cast<double>(accesses));

  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    run_steps(*clients[c], server.port(), plan.conns[c].post, runs[c]);
    samples.ship_ms.insert(samples.ship_ms.end(), runs[c].ship_ms.begin(),
                           runs[c].ship_ms.end());
    tally.merge(runs[c].tally);
  }
  samples.rss_mb.push_back(server.peak_rss_mb());
  clients.clear();
  if (!server.stop()) {
    tally.fail("pfp_server did not exit cleanly");
  }
}

}  // namespace

int run_drive(const DriveOptions& options) {
  pin_to(options.client_cpus);
  const Clock::time_point prep0 = Clock::now();
  const Plan plan = make_plan(options.workload, options.seed);
  const double prep_s = seconds_between(prep0, Clock::now());

  Samples samples;
  const Clock::time_point start = Clock::now();
  std::uint64_t rounds = 0;
  do {
    guarded(samples.tally, [&] { run_round(plan, options, samples); });
    ++rounds;
  } while (samples.tally.failures == 0 &&
           seconds_between(start, Clock::now()) < options.seconds);

  const ModelFigures model = model_figures(plan);
  const Tally& tally = samples.tally;
  Result result;
  result.metric("setup_s", median(samples.setup_s), "s");
  result.metric("throughput_ops_s", median(samples.throughput), "accesses/s");
  result.metric("p50_ms", median(samples.p50_ms), "ms");
  result.metric("p99_ms", median(samples.p99_ms), "ms");
  result.metric("ship_ms", median(samples.ship_ms), "ms");
  result.metric("model_miss_rate", model.miss_rate, "fraction");
  result.metric("model_stall_frac", model.stall_frac, "fraction");
  result.metric("server_rss_mb", median(samples.rss_mb), "MB");
  result.metric("server_cpu_us_per_op", median(samples.cpu_us_per_op),
                "us/access");
  result.info("rounds", static_cast<double>(rounds));
  result.info("prep_s", prep_s);
  result.info("latency_samples", static_cast<double>(samples.rtt_ms.size()));
  result.info("pooled_p50_ms", quantile(samples.rtt_ms, 0.50));
  result.info("pooled_p99_ms", quantile(samples.rtt_ms, 0.99));
  result.info("ship_samples", static_cast<double>(samples.ship_ms.size()));
  result.info("timed_accesses_per_round",
              static_cast<double>(plan.timed_accesses()));
  result.info("error_frac",
              tally.requests ? static_cast<double>(tally.failures) /
                                   static_cast<double>(tally.requests)
                             : 1.0);
  const bool correct = tally.failures == 0 && !samples.throughput.empty();
  if (!tally.first_error.empty()) {
    std::cerr << "servebench: " << tally.failures
              << " failure(s); first: " << tally.first_error << std::endl;
  }
  std::cout << result.json(correct, std::max<std::uint64_t>(tally.requests, 1),
                           tally.failures)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace servebench
