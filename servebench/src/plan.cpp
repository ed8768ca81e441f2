#include "plan.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>

#include "server/session.hpp"
#include "trace/workloads.hpp"
#include "util/prng.hpp"

namespace servebench {

namespace {

using pfp::trace::BlockId;

/// Accesses each warm snapshot is trained on (a different trace seed from
/// the timed stream of the same tenant).
constexpr std::uint64_t kWarmAccesses = 200000;
/// ACCESS_MANY frame size of the batch streams.
constexpr std::size_t kBatch = 256;
/// Per-tenant buffer cache (load_gen's default).
constexpr std::size_t kCacheBlocks = 1024;

// cad-batch: two warm tenants, time-balanced so both connections finish
// together (markov costs ~0.6x tree-next-limit per access in process).
constexpr std::uint64_t kCadTreeAccesses = 200000;
constexpr std::uint64_t kCadMarkovAccesses = 320000;
// sitar-frames: equal frame counts, one 1-block and one 8-block stream.
constexpr std::uint64_t kSitarFrames = 20000;
constexpr std::size_t kSitarManyBatch = 8;
// snake-ship: train/ship cycles on connection 1, a stream with periodic
// STATS and one /metrics scrape on connection 2.
constexpr std::uint64_t kSnakeCycles = 3;
constexpr std::uint64_t kSnakeSegment = 40000;
constexpr std::uint64_t kSnakeStreamAccesses = 400000;
constexpr std::uint64_t kSnakeStatsEvery = 32;  // frames

/// `references` accesses of `workload`, generated from the fixed
/// `trace_seed` and rotated to start at a position chosen by `rotation`.
/// Generator seeds change a trace's character (sitar's miss rate ranges
/// 2.1-4.1% over seeds 1-5 at any length), so the run seed only picks the
/// rotation: every seed replays the same accesses in a different phase.
std::vector<BlockId> blocks_of(pfp::trace::Workload workload,
                               std::uint64_t references,
                               std::uint64_t trace_seed,
                               std::uint64_t rotation) {
  const pfp::trace::Trace trace =
      pfp::trace::make_workload(workload, references, trace_seed);
  std::vector<BlockId> out;
  out.reserve(trace.size());
  for (const pfp::trace::TraceRecord& record : trace) {
    out.push_back(record.block);
  }
  std::rotate(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(rotation % out.size()),
              out.end());
  return out;
}

/// Builds one connection's scripts; serials count up across sections.
class ScriptBuilder {
 public:
  explicit ScriptBuilder(ConnPlan& conn) : conn_(conn) {}

  Step& add(std::vector<Step>& section, StepKind kind, wire::MsgType type,
            std::span<const std::uint8_t> payload) {
    Step step;
    step.kind = kind;
    wire::FrameHeader header;
    header.type = type;
    header.tenant = conn_.tenant;
    header.serial = serial_++;
    wire::append_frame(step.frame, header, payload);
    section.push_back(std::move(step));
    return section.back();
  }

  void open(std::vector<Step>& section) {
    wire::TenantOpenRequest request;
    request.name = conn_.tenant_name();
    request.policy = conn_.policy;
    request.cache_blocks = kCacheBlocks;
    std::vector<std::uint8_t> payload;
    wire::encode_tenant_open(payload, request);
    add(section, StepKind::kOpen, wire::MsgType::kTenantOpen, payload);
  }

  void restore(std::vector<Step>& section,
               std::span<const std::uint8_t> image) {
    add(section, StepKind::kRestore, wire::MsgType::kRestore, image);
  }

  void stats(std::vector<Step>& section) {
    add(section, StepKind::kStats, wire::MsgType::kStats, {});
  }

  void access_many(std::vector<Step>& section,
                   std::span<const BlockId> blocks, std::size_t batch) {
    std::vector<std::uint8_t> payload;
    for (std::size_t at = 0; at < blocks.size(); at += batch) {
      const std::size_t n = std::min(batch, blocks.size() - at);
      payload.clear();
      wire::put_u32(payload, static_cast<std::uint32_t>(n));
      for (std::size_t i = 0; i < n; ++i) {
        wire::put_u64(payload, blocks[at + i]);
      }
      add(section, StepKind::kAccessMany, wire::MsgType::kAccessMany, payload)
          .blocks = static_cast<std::uint32_t>(n);
    }
  }

  void access_each(std::vector<Step>& section,
                   std::span<const BlockId> blocks) {
    std::vector<std::uint8_t> payload;
    for (const BlockId block : blocks) {
      payload.clear();
      wire::put_u64(payload, block);
      add(section, StepKind::kAccess, wire::MsgType::kAccess, payload).blocks =
          1;
    }
  }

  /// SNAPSHOT -> TENANT_CLOSE -> TENANT_OPEN -> RESTORE of that snapshot.
  void ship(std::vector<Step>& section) {
    add(section, StepKind::kSnapshot, wire::MsgType::kSnapshot, {});
    add(section, StepKind::kClose, wire::MsgType::kTenantClose, {});
    open(section);
    // Placeholder frame (header only); the replay appends the image.
    add(section, StepKind::kRestore, wire::MsgType::kRestore, {})
        .ships_previous_snapshot = true;
  }

  void scrape(std::vector<Step>& section) {
    Step step;
    step.kind = StepKind::kScrape;
    section.push_back(std::move(step));
  }

 private:
  ConnPlan& conn_;
  std::uint32_t serial_ = 1;
};

/// Trains a fresh tenant on `blocks` in kBatch frames and returns its
/// PFEG image.
std::vector<std::uint8_t> train_warm(const ConnPlan& conn,
                                     std::span<const BlockId> blocks) {
  pfp::engine::Tenant tenant(conn.tenant_config());
  pfp::util::MutexLock lock(tenant.mu());
  for (std::size_t at = 0; at < blocks.size(); at += kBatch) {
    (void)tenant.access_many(
        blocks.subspan(at, std::min(kBatch, blocks.size() - at)));
  }
  std::ostringstream image;
  std::string detail;
  if (tenant.snapshot(image, &detail) != pfp::engine::TenantStatus::kOk) {
    throw std::runtime_error("warm snapshot failed: " + detail);
  }
  const std::string bytes = std::move(image).str();
  return {bytes.begin(), bytes.end()};
}

/// Runs every step of `conn` through an in-process tenant exactly as
/// server::Session would, recording the reply each step must get.
class Replayer {
 public:
  explicit Replayer(ConnPlan& conn) : conn_(conn) {}

  void run(std::vector<Step>& section, bool is_post) {
    for (Step& s : section) {
      step(s, is_post);
    }
  }

  /// Runs the timed section, counting its disk requests per restore
  /// epoch (see ConnPlan::timed_disk_requests).
  void run_timed(std::vector<Step>& section) {
    bool accessed = false;
    for (Step& s : section) {
      if (s.kind == StepKind::kSnapshot && accessed) {
        conn_.timed_disk_requests += disk_requests();
        accessed = false;
      }
      step(s, true);
      accessed = accessed || s.kind == StepKind::kAccess ||
                 s.kind == StepKind::kAccessMany;
    }
    if (accessed) {
      // Tenants enter `timed` freshly restored, so the count of the last
      // epoch starts from 0 with its first access.
      conn_.timed_disk_requests += disk_requests();
    }
  }

 private:
  void step(Step& s, bool is_post);

  std::uint64_t disk_requests() {
    pfp::util::MutexLock lock(tenant_->mu());
    return tenant_->metrics().disk_requests;
  }

  ConnPlan& conn_;
  std::unique_ptr<pfp::engine::Tenant> tenant_;
  std::vector<BlockId> batch_;
  std::vector<std::uint8_t> image_;  ///< last SNAPSHOT reply
  bool saw_post_stats_ = false;
};

void Replayer::step(Step& s, bool is_post) {
  namespace engine = pfp::engine;
  switch (s.kind) {
    case StepKind::kOpen:
      tenant_ = std::make_unique<engine::Tenant>(conn_.tenant_config());
      s.reply_type = wire::MsgType::kTenantOpenReply;
      return;
    case StepKind::kClose:
      tenant_.reset();
      s.reply_type = wire::MsgType::kTenantCloseReply;
      return;
    case StepKind::kRestore: {
      if (s.ships_previous_snapshot) {
        const wire::FrameHeader header = wire::decode(s.frame).frame.header;
        s.frame.clear();
        wire::append_frame(s.frame, header, image_);
      }
      const wire::DecodeResult decoded = wire::decode(s.frame);
      std::istringstream image(std::string(decoded.frame.payload.begin(),
                                           decoded.frame.payload.end()));
      std::string detail;
      pfp::util::MutexLock lock(tenant_->mu());
      if (tenant_->restore(image, &detail) != engine::TenantStatus::kOk) {
        throw std::runtime_error("replay restore failed: " + detail);
      }
      s.reply_type = wire::MsgType::kRestoreReply;
      return;
    }
    case StepKind::kSnapshot: {
      std::ostringstream image;
      std::string detail;
      {
        pfp::util::MutexLock lock(tenant_->mu());
        if (tenant_->snapshot(image, &detail) != engine::TenantStatus::kOk) {
          throw std::runtime_error("replay snapshot failed: " + detail);
        }
      }
      const std::string bytes = std::move(image).str();
      image_.assign(bytes.begin(), bytes.end());
      s.reply_type = wire::MsgType::kSnapshotReply;
      s.reply_payload = image_;
      return;
    }
    case StepKind::kStats: {
      engine::Metrics metrics;
      {
        pfp::util::MutexLock lock(tenant_->mu());
        metrics = tenant_->metrics();
      }
      const wire::WireMetrics served = pfp::server::to_wire_metrics(metrics);
      wire::encode_metrics(s.reply_payload, served);
      s.reply_type = wire::MsgType::kStatsReply;
      if (!is_post) {
        conn_.baseline = served;
      } else if (!saw_post_stats_) {
        conn_.final_stats = served;
        saw_post_stats_ = true;
      }
      return;
    }
    case StepKind::kAccess: {
      wire::Reader reader(wire::decode(s.frame).frame.payload);
      const BlockId block = reader.read_u64();
      pfp::util::MutexLock lock(tenant_->mu());
      const engine::AccessResult result = tenant_->access(block);
      // The projection server::Session::handle_access applies.
      wire::BatchReply batch;
      batch.demand_hits = result.outcome == engine::Outcome::kDemandHit;
      batch.prefetch_hits = result.outcome == engine::Outcome::kPrefetchHit;
      batch.misses = result.outcome == engine::Outcome::kMiss;
      batch.latency_ms = result.latency_ms;
      wire::encode_batch_reply(s.reply_payload, batch);
      s.reply_type = wire::MsgType::kAccessReply;
      return;
    }
    case StepKind::kAccessMany: {
      wire::Reader reader(wire::decode(s.frame).frame.payload);
      const std::uint32_t count = reader.read_u32();
      batch_.clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        batch_.push_back(reader.read_u64());
      }
      pfp::util::MutexLock lock(tenant_->mu());
      const engine::BatchResult result = tenant_->access_many(batch_);
      wire::BatchReply batch;
      batch.demand_hits = result.demand_hits;
      batch.prefetch_hits = result.prefetch_hits;
      batch.misses = result.misses;
      batch.latency_ms = result.latency_ms;
      wire::encode_batch_reply(s.reply_payload, batch);
      s.reply_type = wire::MsgType::kAccessManyReply;
      return;
    }
    case StepKind::kScrape:
      return;
  }
}

ConnPlan conn_for(std::uint16_t tenant, std::string policy) {
  ConnPlan conn;
  conn.tenant = tenant;
  conn.policy = std::move(policy);
  return conn;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  pfp::util::SplitMix64 mix(seed * 1000003ULL + salt);
  return mix.next();
}

}  // namespace

std::string ConnPlan::tenant_name() const {
  std::string name = "t";
  name += std::to_string(tenant);
  return name;
}

pfp::engine::TenantConfig ConnPlan::tenant_config() const {
  pfp::engine::TenantConfig config;
  config.name = tenant_name();
  config.engine.cache_blocks = kCacheBlocks;
  std::string detail;
  if (pfp::engine::set_policy_by_name(config, policy, &detail) !=
      pfp::engine::TenantStatus::kOk) {
    throw std::invalid_argument(detail);
  }
  return config;
}

std::uint64_t Plan::timed_accesses() const {
  std::uint64_t total = 0;
  for (const ConnPlan& conn : conns) {
    for (const Step& step : conn.timed) {
      total += step.blocks;
    }
  }
  return total;
}

Plan make_plan(const std::string& workload, std::uint64_t seed) {
  using pfp::trace::Workload;
  Plan plan;
  Workload trace_kind = Workload::kCad;
  if (workload == "cad-batch") {
    plan.conns.push_back(conn_for(1, "tree-next-limit"));
    plan.conns.push_back(conn_for(2, "markov"));
  } else if (workload == "sitar-frames") {
    trace_kind = Workload::kSitar;
    plan.conns.push_back(conn_for(1, "next-limit"));
    plan.conns.push_back(conn_for(2, "next-limit"));
  } else if (workload == "snake-ship") {
    trace_kind = Workload::kSnake;
    plan.conns.push_back(conn_for(1, "tree-next-limit"));
    plan.conns.push_back(conn_for(2, "markov"));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    ConnPlan& conn = plan.conns[c];
    ScriptBuilder script(conn);
    conn.warm = train_warm(conn, blocks_of(trace_kind, kWarmAccesses, 100 + c,
                                           derive(seed, 100 + c)));
    script.open(conn.setup);
    script.restore(conn.setup, conn.warm);
    script.stats(conn.pre);

    const std::uint64_t stream_seed = 1 + c;
    const std::uint64_t rotation = derive(seed, c);
    if (workload == "cad-batch") {
      const std::uint64_t n = c == 0 ? kCadTreeAccesses : kCadMarkovAccesses;
      script.access_many(conn.timed, blocks_of(trace_kind, n, stream_seed, rotation),
                         kBatch);
    } else if (workload == "sitar-frames") {
      if (c == 0) {
        script.access_each(conn.timed,
                           blocks_of(trace_kind, kSitarFrames, stream_seed, rotation));
      } else {
        script.access_many(
            conn.timed,
            blocks_of(trace_kind, kSitarFrames * kSitarManyBatch, stream_seed,
                      rotation),
            kSitarManyBatch);
      }
    } else if (c == 0) {
      const std::vector<BlockId> stream =
          blocks_of(trace_kind, kSnakeCycles * kSnakeSegment,
                    stream_seed, rotation);
      for (std::uint64_t cycle = 0; cycle < kSnakeCycles; ++cycle) {
        script.access_many(
            conn.timed,
            std::span<const BlockId>(stream).subspan(cycle * kSnakeSegment,
                                                     kSnakeSegment),
            kBatch);
        script.ship(conn.timed);
      }
    } else {
      const std::vector<BlockId> stream =
          blocks_of(trace_kind, kSnakeStreamAccesses, stream_seed,
                    rotation);
      const std::size_t frames = (stream.size() + kBatch - 1) / kBatch;
      for (std::size_t f = 0; f < frames; ++f) {
        const std::size_t at = f * kBatch;
        script.access_many(conn.timed,
                           std::span<const BlockId>(stream).subspan(
                               at, std::min(kBatch, stream.size() - at)),
                           kBatch);
        if ((f + 1) % kSnakeStatsEvery == 0) {
          script.stats(conn.timed);
        }
        if (f == frames / 2) {
          script.scrape(conn.timed);
        }
      }
    }

    script.stats(conn.post);
    // Outside snake-ship the ship cycle runs once after the timed phase,
    // so every workload reports ship_ms and the snapshot layers.
    if (workload != "snake-ship" && c == 0) {
      script.ship(conn.post);
    }
    Replayer replayer(conn);
    replayer.run(conn.setup, false);
    replayer.run(conn.pre, false);
    replayer.run_timed(conn.timed);
    replayer.run(conn.post, true);
  }
  return plan;
}

ModelFigures model_figures(const Plan& plan) {
  double accesses = 0;
  double misses = 0;
  double stall = 0;
  double elapsed = 0;
  double issued = 0;
  double prefetch_hits = 0;
  double chosen = 0;
  double cached = 0;
  double predictable = 0;
  double disk = 0;
  double ejections = 0;
  ModelFigures out;
  for (const ConnPlan& conn : plan.conns) {
    const wire::WireMetrics& a = conn.baseline;
    const wire::WireMetrics& b = conn.final_stats;
    const auto d = [](std::uint64_t hi, std::uint64_t lo) {
      return static_cast<double>(hi - lo);
    };
    accesses += d(b.accesses, a.accesses);
    misses += d(b.misses, a.misses);
    stall += b.stall_ms - a.stall_ms;
    elapsed += b.elapsed_ms - a.elapsed_ms;
    issued += d(b.prefetches_issued, a.prefetches_issued);
    prefetch_hits += d(b.prefetch_hits, a.prefetch_hits);
    chosen += d(b.candidates_chosen, a.candidates_chosen);
    cached += d(b.candidates_already_cached, a.candidates_already_cached);
    predictable += d(b.predictable, a.predictable);
    disk += static_cast<double>(conn.timed_disk_requests);
    ejections += d(b.prefetch_ejections, a.prefetch_ejections);
    out.tree_nodes += static_cast<double>(b.tree_nodes);
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  out.miss_rate = ratio(misses, accesses);
  out.stall_frac = ratio(stall, elapsed);
  out.prefetches_per_access = ratio(issued, accesses);
  out.prefetch_useful_frac = ratio(prefetch_hits, issued);
  out.candidates_cached_frac = ratio(cached, chosen);
  out.prediction_accuracy = ratio(predictable, accesses);
  out.disk_requests_per_access = ratio(disk, accesses);
  out.prefetch_ejections_per_access = ratio(ejections, accesses);
  return out;
}

}  // namespace servebench
