// Traced mode: the identical frames through each layer's public calls,
// in process, with a span around every call.
//
// Per request (span "request", id = the frame serial) the harness times
//   server.decode   wire::decode on the frame
//   server.ingest   Session::ingest of the frame (tenant A, in the
//                   registry of an in-process PrefetchServer)
//   engine.*        the same engine call on twin tenant B (phase timers
//                   off), then on twin C (phase timers on)
//   server.encode   wire::encode_batch_reply + wire::append_frame
// B and C see exactly A's inputs, so all three stay in the same state;
// every Session reply and every twin's STATS is checked against the
// replay.  Session::ingest is one call, so its self time is computed as
// ingest - decode - engine(B) per frame.  Snapshot replies are drained
// through Session::consumed in socket-write-sized steps.
//
// The PING round trip is the one socket measurement: pfp_server is
// started pinned as in the end-to-end mode and pinged before the rest.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "client.hpp"
#include "drive.hpp"
#include "report.hpp"
#include "server/server.hpp"
#include "server/session.hpp"

namespace servebench {

namespace {

namespace engine = pfp::engine;
using pfp::server::Session;

constexpr std::size_t kPingWarmup = 200;
constexpr std::size_t kPings = 2000;
/// Spans kept for the span file (first round only).
constexpr std::size_t kMaxSpans = 400000;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t req = 0;
  std::uint16_t tid = 0;
  const char* parent = "";
};

/// Sum and count of one per-layer quantity.
struct Acc {
  double sum = 0.0;
  double count = 0.0;
  void add(double v, double n = 1.0) {
    sum += v;
    count += n;
  }
  [[nodiscard]] double mean() const { return count > 0 ? sum / count : 0.0; }
};

struct Layers {
  Acc decode_ns, encode_ns, ingest_ns, self_ns;
  Acc drain_ms, render_us;
  Acc many_ns;        // twin B, per access
  Acc many_timed_ns;  // twin C (phase timers on), per access
  Acc access_ns;      // twin B, per call
  Acc snapshot_ms, restore_ms, snapshot_kb;
  Acc open_us, close_us;
  double phase_ns[pfp::util::kEnginePhaseCount] = {};
  double phase_accesses = 0.0;
};

std::int64_t now_ns(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// The socket write size the drain steps emulate: the kernel's default
/// TCP send buffer (tcp_wmem's middle value), 16 KiB when unreadable.
std::size_t socket_write_bytes() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t min = 0;
  std::size_t def = 0;
  if (in >> min >> def && def > 0) {
    return def;
  }
  return 16384;
}

double ping_rtt_us(const DriveOptions& options) {
  pin_to(options.client_cpus);
  ServerProcess server(options.server_binary, 1, options.server_cpus);
  Client client(server.port());
  std::vector<double> rtt;
  std::vector<std::uint8_t> frame;
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < kPingWarmup + kPings; ++i) {
    frame.clear();
    header = wire::FrameHeader{};
    header.type = wire::MsgType::kPing;
    header.serial = static_cast<std::uint32_t>(i);
    wire::append_frame(frame, header, {});
    const Clock::time_point t0 = Clock::now();
    client.send(frame);
    client.receive(header, payload);
    const Clock::time_point t1 = Clock::now();
    if (header.type != wire::MsgType::kPingReply) {
      throw std::runtime_error("PING got a non-PING reply");
    }
    if (i >= kPingWarmup) {
      rtt.push_back(seconds_between(t0, t1) * 1e6);
    }
  }
  if (!server.stop()) {
    throw std::runtime_error("pfp_server did not exit cleanly");
  }
  return median(rtt);
}

/// One traced round: fresh server object, sessions and twins.
class TracedRound {
 public:
  TracedRound(const Plan& plan, Layers& layers, std::vector<Span>* spans,
              Clock::time_point origin)
      : plan_(plan),
        layers_(layers),
        spans_(spans),
        origin_(origin),
        server_(pfp::server::ServerConfig{}),
        write_bytes_(socket_write_bytes()) {
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      sessions_.push_back(std::make_unique<Session>(
          server_.registry(), pfp::server::SessionConfig{}));
    }
  }

  /// Runs every section of every connection; returns mismatches.
  std::uint64_t run() {
    for (const auto section : {&ConnPlan::setup, &ConnPlan::pre,
                               &ConnPlan::timed, &ConnPlan::post}) {
      // Connections interleave step by step, as concurrent clients would.
      std::size_t longest = 0;
      for (const ConnPlan& conn : plan_.conns) {
        longest = std::max(longest, (conn.*section).size());
      }
      for (std::size_t i = 0; i < longest; ++i) {
        for (std::size_t c = 0; c < plan_.conns.size(); ++c) {
          const std::vector<Step>& steps = plan_.conns[c].*section;
          if (i < steps.size()) {
            step(c, steps[i]);
          }
        }
      }
    }
    for (const ConnPlan& conn : plan_.conns) {
      harvest_phases(conn.tenant);
    }
    return mismatches_;
  }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }

 private:
  template <typename Fn>
  std::int64_t span(const char* name, std::size_t conn, std::uint32_t req,
                    const char* parent, Fn&& fn) {
    const std::int64_t t0 = now_ns(origin_);
    fn();
    const std::int64_t t1 = now_ns(origin_);
    if (spans_ != nullptr && spans_->size() < kMaxSpans) {
      spans_->push_back(
          Span{name, t0, t1, req, static_cast<std::uint16_t>(conn), parent});
    }
    return t1 - t0;
  }

  void fail(const std::string& what) {
    if (mismatches_++ == 0) {
      std::cerr << "servebench traced: " << what << std::endl;
    }
  }

  std::shared_ptr<engine::Tenant> twin(engine::TenantRegistry& registry,
                                       std::uint16_t id) {
    std::shared_ptr<engine::Tenant> tenant = registry.find(id);
    if (tenant == nullptr) {
      throw std::runtime_error("twin tenant missing");
    }
    return tenant;
  }

  /// Adds twin C's phase totals before its engine is replaced or closed.
  void harvest_phases(std::uint16_t id) {
    const std::shared_ptr<engine::Tenant> tenant = timers_on_.find(id);
    if (tenant == nullptr) {
      return;
    }
    const pfp::obs::PhaseTiming phases = tenant->stats().phases;
    for (std::size_t p = 0; p < pfp::util::kEnginePhaseCount; ++p) {
      layers_.phase_ns[p] += static_cast<double>(phases.total_ns[p]);
    }
  }

  void check_twin_stats(const Step& step, engine::Tenant& tenant) {
    engine::Metrics metrics;
    {
      pfp::util::MutexLock lock(tenant.mu());
      metrics = tenant.metrics();
    }
    std::vector<std::uint8_t> payload;
    wire::encode_metrics(payload, pfp::server::to_wire_metrics(metrics));
    if (payload != step.reply_payload) {
      fail("twin tenant STATS differ from the replay");
    }
  }

  void step(std::size_t c, const Step& s) {
    ++requests_;
    const ConnPlan& conn = plan_.conns[c];
    const std::uint16_t id = conn.tenant;
    if (s.kind == StepKind::kScrape) {
      layers_.render_us.add(
          static_cast<double>(span("server.render", c, 0, "", [&] {
            (void)server_.render_metrics();
          })) / 1e3);
      return;
    }
    const std::uint32_t req = frame_serial(s.frame);
    const std::int64_t req_start = now_ns(origin_);
    Session& session = *sessions_[c];
    const bool is_access =
        s.kind == StepKind::kAccess || s.kind == StepKind::kAccessMany;

    std::int64_t decode = 0;
    if (is_access) {
      decode = span("server.decode", c, req, "request",
                    [&] { (void)wire::decode(s.frame); });
    }
    const std::int64_t ingest = span("server.ingest", c, req, "request",
                                     [&] { (void)session.ingest(s.frame); });
    check_session_reply(c, s, req);

    std::int64_t engine_ns = 0;
    switch (s.kind) {
      case StepKind::kOpen: {
        engine::TenantConfig config = conn.tenant_config();
        std::string detail;
        layers_.open_us.add(
            static_cast<double>(span("engine.open", c, req, "request", [&] {
              (void)twins_.open(id, config, &detail);
            })) / 1e3);
        config.engine.obs.phase_timers = true;
        (void)timers_on_.open(id, std::move(config), &detail);
        break;
      }
      case StepKind::kClose:
        harvest_phases(id);
        layers_.close_us.add(
            static_cast<double>(span("engine.close", c, req, "request",
                                     [&] { (void)twins_.close(id); })) /
            1e3);
        (void)timers_on_.close(id);
        break;
      case StepKind::kRestore: {
        harvest_phases(id);
        const wire::DecodeResult decoded = wire::decode(s.frame);
        const std::string image(decoded.frame.payload.begin(),
                                decoded.frame.payload.end());
        for (engine::TenantRegistry* registry : {&twins_, &timers_on_}) {
          const std::shared_ptr<engine::Tenant> tenant = twin(*registry, id);
          std::istringstream in(image);
          std::string detail;
          pfp::util::MutexLock lock(tenant->mu());
          const std::int64_t ns = span(
              registry == &twins_ ? "engine.restore"
                                  : "engine.restore.timers_on",
              c, req, "request", [&] { (void)tenant->restore(in, &detail); });
          // Shipped images only, the population engine.snapshot_ms covers.
          if (registry == &twins_ && s.ships_previous_snapshot) {
            layers_.restore_ms.add(static_cast<double>(ns) / 1e6);
          }
        }
        break;
      }
      case StepKind::kSnapshot: {
        const std::shared_ptr<engine::Tenant> tenant = twin(twins_, id);
        std::ostringstream out;
        std::string detail;
        pfp::util::MutexLock lock(tenant->mu());
        layers_.snapshot_ms.add(
            static_cast<double>(span("engine.snapshot", c, req, "request",
                                     [&] {
                                       (void)tenant->snapshot(out, &detail);
                                     })) /
            1e6);
        layers_.snapshot_kb.add(static_cast<double>(out.view().size()) /
                                1024.0);
        break;
      }
      case StepKind::kStats: {
        check_twin_stats(s, *twin(twins_, id));
        check_twin_stats(s, *twin(timers_on_, id));
        layers_.render_us.add(
            static_cast<double>(span("server.render", c, req, "request", [&] {
              (void)server_.render_metrics();
            })) / 1e3);
        break;
      }
      case StepKind::kAccess: {
        wire::Reader reader(wire::decode(s.frame).frame.payload);
        const pfp::trace::BlockId block = reader.read_u64();
        const std::shared_ptr<engine::Tenant> b = twin(twins_, id);
        const std::shared_ptr<engine::Tenant> t = twin(timers_on_, id);
        pfp::util::MutexLock lock_b(b->mu());
        pfp::util::MutexLock lock_t(t->mu());
        engine_ns = span("engine.access", c, req, "request",
                         [&] { (void)b->access(block); });
        layers_.access_ns.add(static_cast<double>(engine_ns));
        (void)span("engine.access.timers_on", c, req, "request",
                   [&] { (void)t->access(block); });
        layers_.phase_accesses += 1.0;
        break;
      }
      case StepKind::kAccessMany: {
        wire::Reader reader(wire::decode(s.frame).frame.payload);
        const std::uint32_t count = reader.read_u32();
        blocks_.clear();
        for (std::uint32_t i = 0; i < count; ++i) {
          blocks_.push_back(reader.read_u64());
        }
        const std::shared_ptr<engine::Tenant> b = twin(twins_, id);
        const std::shared_ptr<engine::Tenant> t = twin(timers_on_, id);
        pfp::util::MutexLock lock_b(b->mu());
        pfp::util::MutexLock lock_t(t->mu());
        engine_ns = span("engine.access_many", c, req, "request",
                         [&] { (void)b->access_many(blocks_); });
        const std::int64_t timed =
            span("engine.access_many.timers_on", c, req, "request",
                 [&] { (void)t->access_many(blocks_); });
        layers_.many_ns.add(static_cast<double>(engine_ns), count);
        layers_.many_timed_ns.add(static_cast<double>(timed), count);
        layers_.phase_accesses += count;
        break;
      }
      case StepKind::kScrape:
        break;
    }

    if (is_access) {
      const auto parsed = wire::parse_batch_reply(s.reply_payload);
      wire::FrameHeader header;
      header.type = s.reply_type;
      header.flags = s.reply_flags;
      header.tenant = id;
      header.serial = req;
      layers_.encode_ns.add(static_cast<double>(
          span("server.encode", c, req, "request", [&] {
            payload_.clear();
            encoded_.clear();
            wire::encode_batch_reply(payload_, parsed.value_or(
                                                   wire::BatchReply{}));
            wire::append_frame(encoded_, header, payload_);
          })));
      layers_.decode_ns.add(static_cast<double>(decode));
      layers_.ingest_ns.add(static_cast<double>(ingest));
      layers_.self_ns.add(static_cast<double>(ingest - decode - engine_ns));
    }
    if (spans_ != nullptr && spans_->size() < kMaxSpans) {
      spans_->push_back(Span{"request", req_start, now_ns(origin_), req,
                             static_cast<std::uint16_t>(c), ""});
    }
  }

  /// Checks the reply Session queued, then drains it.
  void check_session_reply(std::size_t c, const Step& s, std::uint32_t req) {
    Session& session = *sessions_[c];
    const wire::DecodeResult decoded = wire::decode(session.out());
    if (decoded.status != wire::DecodeStatus::kFrame ||
        decoded.consumed != session.out().size() ||
        !reply_matches(s, decoded.frame.header, decoded.frame.payload)) {
      fail("Session reply differs from the replay");
    }
    if (s.kind != StepKind::kSnapshot) {
      session.consumed(session.out().size());
      return;
    }
    layers_.drain_ms.add(
        static_cast<double>(span("server.drain", c, req, "request", [&] {
          while (!session.out().empty()) {
            session.consumed(std::min(write_bytes_, session.out().size()));
          }
        })) / 1e6);
  }

  const Plan& plan_;
  Layers& layers_;
  std::vector<Span>* spans_;
  Clock::time_point origin_;
  pfp::server::PrefetchServer server_;
  std::vector<std::unique_ptr<Session>> sessions_;
  engine::TenantRegistry twins_;      ///< B: phase timers off
  engine::TenantRegistry timers_on_;  ///< C: phase timers on
  std::size_t write_bytes_;
  std::vector<pfp::trace::BlockId> blocks_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> encoded_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t requests_ = 0;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << R"({"displayTimeUnit":"ms","traceEvents":[)";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  R"(%s{"name":"%s","ph":"X","pid":1,"tid":%u,"ts":%.3f,)"
                  R"("dur":%.3f,"args":{"req":%u,"parent":"%s"}})",
                  i ? ",\n" : "\n", s.name, static_cast<unsigned>(s.tid),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.req,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace

int run_traced(const DriveOptions& options) {
  const Plan plan = make_plan(options.workload, options.seed);
  const double ping_us = ping_rtt_us(options);

  // In process there is no server to keep apart from: use every CPU of
  // both sets.
  std::vector<int> all = options.client_cpus;
  all.insert(all.end(), options.server_cpus.begin(),
             options.server_cpus.end());
  pin_to(all);

  Layers layers;
  std::vector<Span> spans;
  const Clock::time_point origin = Clock::now();
  std::uint64_t rounds = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t requests = 0;
  do {
    TracedRound round(plan, layers, rounds == 0 ? &spans : nullptr, origin);
    mismatches += round.run();
    requests += round.requests();
    ++rounds;
  } while (mismatches == 0 &&
           seconds_between(origin, Clock::now()) < options.seconds);
  if (!options.trace_out.empty()) {
    write_spans(options.trace_out, spans);
  }

  const ModelFigures model = model_figures(plan);
  Result result;
  result.metric("net.ping_rtt_us", ping_us, "us");
  result.metric("server.decode_ns", layers.decode_ns.mean(), "ns");
  result.metric("server.encode_ns", layers.encode_ns.mean(), "ns");
  result.metric("server.ingest_us", layers.ingest_ns.mean() / 1e3, "us");
  result.metric("server.self_ns", layers.self_ns.mean(), "ns");
  result.metric("server.drain_ms", layers.drain_ms.mean(), "ms");
  result.metric("server.render_us", layers.render_us.mean(), "us");
  result.metric("engine.access_many_ns", layers.many_ns.mean(), "ns/access");
  result.metric("engine.access_ns", layers.access_ns.mean(), "ns");
  for (std::size_t p = 0; p < pfp::util::kEnginePhaseCount; ++p) {
    result.metric(std::string("engine.phase.") +
                      pfp::util::kEnginePhaseNames[p] + "_ns",
                  layers.phase_accesses > 0
                      ? layers.phase_ns[p] / layers.phase_accesses
                      : 0.0,
                  "ns/access");
  }
  result.metric("engine.obs_overhead_frac",
                layers.many_ns.sum > 0
                    ? layers.many_timed_ns.sum / layers.many_ns.sum - 1.0
                    : 0.0,
                "fraction");
  result.metric("engine.snapshot_ms", layers.snapshot_ms.mean(), "ms");
  result.metric("engine.restore_ms", layers.restore_ms.mean(), "ms");
  result.metric("engine.snapshot_kb", layers.snapshot_kb.mean(), "KB");
  result.metric("engine.open_us", layers.open_us.mean(), "us");
  result.metric("engine.close_us", layers.close_us.mean(), "us");
  result.metric("core.prefetches_per_access", model.prefetches_per_access,
                "count/access");
  result.metric("core.prefetch_useful_frac", model.prefetch_useful_frac,
                "fraction");
  result.metric("core.candidates_cached_frac", model.candidates_cached_frac,
                "fraction");
  result.metric("core.prediction_accuracy", model.prediction_accuracy,
                "fraction");
  result.metric("core.tree_nodes", model.tree_nodes, "count");
  result.metric("cache.disk_requests_per_access",
                model.disk_requests_per_access, "count/access");
  result.metric("cache.prefetch_ejections_per_access",
                model.prefetch_ejections_per_access, "count/access");
  result.info("rounds", static_cast<double>(rounds));
  result.info("spans_written", static_cast<double>(spans.size()));
  // Shares the acceptance checks in README.md read.
  result.info("access_many_share_of_ingest",
              layers.ingest_ns.sum > 0
                  ? layers.many_ns.sum / layers.ingest_ns.sum
                  : 0.0);
  result.info("engine_us_per_access_frame",
              (layers.many_ns.sum + layers.access_ns.sum) / 1e3 /
                  std::max(1.0, layers.ingest_ns.count));
  result.info("snapshot_plus_restore_ms",
              layers.snapshot_ms.mean() + layers.restore_ms.mean());
  const bool correct = mismatches == 0;
  std::cout << result.json(correct, std::max<std::uint64_t>(requests, 1),
                           mismatches)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace servebench
