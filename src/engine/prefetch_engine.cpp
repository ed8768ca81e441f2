#include "engine/prefetch_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"
#include "util/binary_io.hpp"

namespace pfp::engine {

using core::policy::AccessOutcome;
using core::policy::Context;

namespace {

// --- snapshot image ("PFEG") -------------------------------------------

constexpr std::array<char, 4> kMagic = {'P', 'F', 'E', 'G'};
// v2: residency + metrics + a predictor FourCC tag and a length-prefixed
//     opaque predictor blob (any policy family).  v1 (a tree-or-nothing
//     flag byte) is no longer read: no v1 image exists outside history.
constexpr std::uint16_t kVersion = 2;

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("engine snapshot stream: " + what);
}

/// Time totals and the probability sum grow from zero by finite steps;
/// a NaN or infinity restored into one would poison every later figure.
void require_total(double value, const char* field) {
  if (!(std::isfinite(value) && value >= 0.0)) {
    corrupt(std::string(field) + " is not a finite non-negative total");
  }
}

}  // namespace

PrefetchEngine::PrefetchEngine(EngineConfig config)
    : config_((validate(config), config)),
      cache_(config.cache_blocks),
      disks_(cache::DiskConfig{config.disks, config.timing.t_disk}),
      policy_(core::policy::make_prefetcher(config.policy)),
      obs_(config.obs) {
  phase_clock_.arm(obs_.phase_cells());
}

Context PrefetchEngine::make_context() {
  Context ctx{cache_,      disks_, config_.timing, estimators_,
              stack_,      metrics_.policy};
  ctx.phases = phase_clock_.armed() ? &phase_clock_ : nullptr;
  return ctx;
}

void PrefetchEngine::publish_observability() {
  // The engine's driving thread is the unique observability writer (the
  // class is single-threaded by contract; ShardedEngine gives each shard
  // its own engine).  Declare the roles once for the whole batch.
  auto& counters = obs_.counters();
  auto& gate = obs_.gate();
  counters.assert_writer();
  gate.assert_writer();
  gate.begin_write();
  counters.accesses.set(metrics_.accesses);
  counters.demand_hits.set(metrics_.demand_hits);
  counters.prefetch_hits.set(metrics_.prefetch_hits);
  counters.misses.set(metrics_.misses);
  counters.prefetches_issued.set(metrics_.policy.prefetches_issued);
  counters.prefetch_ejections.set(metrics_.policy.prefetch_ejections);
  counters.demand_ejections.set(metrics_.policy.demand_ejections);
  counters.disk_requests.set(metrics_.disk_requests);
  counters.resident_blocks.set(cache_.resident());
  counters.free_buffers.set(cache_.free_buffers());
  counters.tree_nodes.set(metrics_.policy.tree_nodes);
  counters.elapsed_virtual_us.set(
      static_cast<std::uint64_t>(metrics_.elapsed_ms * 1000.0));
  gate.end_write();
}

void PrefetchEngine::write_chrome_trace(std::ostream& out) const {
  const obs::TraceRing* rings[] = {&obs_.ring()};
  obs::write_chrome_trace(out, rings);
}

AccessOutcome PrefetchEngine::step_one(trace::BlockId block,
                                       std::optional<trace::BlockId> next,
                                       Context& ctx) {
  const double period_start = metrics_.elapsed_ms;
  // Periods are numbered by the running access counter, so a stream
  // split into calls of any size numbers them the same way.
  ctx.period = metrics_.accesses;
  ctx.now_ms = period_start;
  ctx.next_block = next;
  phase_clock_.start();
  const bool tracing = obs_.ring().enabled();
  const std::uint64_t ejections_before =
      tracing ? metrics_.policy.prefetch_ejections +
                    metrics_.policy.demand_ejections
              : 0;

  const auto result = cache_.access(block);
  ++metrics_.accesses;

  // Every access period: read the block from the cache and compute.
  metrics_.elapsed_ms += config_.timing.t_hit + config_.timing.t_cpu;

  AccessOutcome outcome;
  if (const auto* hit = std::get_if<cache::DemandHit>(&result)) {
    outcome = AccessOutcome::kDemandHit;
    ++metrics_.demand_hits;
    stack_.record(/*hit=*/true, hit->stack_depth);
    phase_clock_.mark(util::EnginePhase::kLookup);
  } else if (const auto* pf = std::get_if<cache::PrefetchHit>(&result)) {
    outcome = AccessOutcome::kPrefetchHit;
    ++metrics_.prefetch_hits;
    stack_.record(/*hit=*/false);
    // Residual stall: the prefetch's disk read may not have completed by
    // the time its block is referenced (Figure 5's partial overlap).
    const double stall =
        std::max(pf->entry.completion_ms - period_start, 0.0);
    metrics_.elapsed_ms += stall;
    metrics_.stall_ms += stall;
    phase_clock_.mark(util::EnginePhase::kLookup);
    // Consumption feeds the estimator EWMAs, so its time is charged to
    // the predictor-update phase (closed by the policy's own mark).
    policy_->on_prefetch_consumed(pf->entry, ctx);
  } else {
    outcome = AccessOutcome::kMiss;
    ++metrics_.misses;
    stack_.record(/*hit=*/false);
    metrics_.elapsed_ms += config_.timing.t_driver;
    const double completion = disks_.submit(block, metrics_.elapsed_ms);
    const double stall = completion - metrics_.elapsed_ms;
    metrics_.elapsed_ms = completion;
    metrics_.stall_ms += stall;
    phase_clock_.mark(util::EnginePhase::kLookup);
    if (cache_.free_buffers() == 0) {
      policy_->reclaim_for_demand(ctx);
      PFP_REQUIRE(cache_.free_buffers() >= 1);
    }
    cache_.admit_demand(block);
    phase_clock_.mark(util::EnginePhase::kEviction);
  }

  // Policy turn: learn from the access, then issue this period's
  // prefetches; each costs T_driver of CPU time (Figure 3b).
  const std::uint64_t issued_before = metrics_.policy.prefetches_issued;
  policy_->on_access(block, outcome, ctx);
  const std::uint64_t issued =
      metrics_.policy.prefetches_issued - issued_before;
  metrics_.elapsed_ms +=
      static_cast<double>(issued) * config_.timing.t_driver;

  // Keep the disk aggregates current so callers see fresh metrics
  // without a run epilogue.  The disk array is transient, so its totals
  // count only since construction or restore; the base carries the rest.
  metrics_.disk_queue_delay_ms =
      disk_base_.queue_delay_ms + disks_.queue_delay_ms();
  metrics_.disk_requests = disk_base_.requests + disks_.requests();
  // Closes the policy turn: for tree policies this spans the issue loop
  // and end_period; policies without internal marks land whole here.
  phase_clock_.mark(util::EnginePhase::kIssue);

  if (tracing) {
    // Same single-threaded contract as publish_observability(): this
    // thread is the ring's unique writer.
    auto& ring = obs_.ring();
    ring.assert_writer();
    obs::TraceEvent event;
    event.block = block;
    event.ts_ms = period_start;
    event.dur_ms = metrics_.elapsed_ms - period_start;
    event.kind = obs::EventKind::kAccess;
    event.arg = static_cast<std::uint32_t>(
        outcome == AccessOutcome::kDemandHit
            ? obs::EventOutcome::kDemandHit
            : (outcome == AccessOutcome::kPrefetchHit
                   ? obs::EventOutcome::kPrefetchHit
                   : obs::EventOutcome::kMiss));
    ring.emit(event);
    if (issued > 0) {
      event.kind = obs::EventKind::kPrefetchIssue;
      event.arg = static_cast<std::uint32_t>(issued);
      ring.emit(event);
    }
    const std::uint64_t ejected = metrics_.policy.prefetch_ejections +
                                  metrics_.policy.demand_ejections -
                                  ejections_before;
    if (ejected > 0) {
      event.kind = obs::EventKind::kEviction;
      event.arg = static_cast<std::uint32_t>(ejected);
      ring.emit(event);
    }
  }

  PFP_DASSERT(cache_.resident() <= cache_.total_blocks());
  return outcome;
}

void PrefetchEngine::run_blocks(std::span<const trace::BlockId> blocks,
                                std::span<const trace::BlockId> lookahead,
                                Context& ctx) {
  // The batched inner loop: per-access setup (Context build,
  // observability publish) is hoisted to the batch boundary.
  const std::size_t n = blocks.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<trace::BlockId> next;
    if (i + 1 < n) {
      next = blocks[i + 1];
    } else if (!lookahead.empty()) {
      next = lookahead.front();
    }
    step_one(blocks[i], next, ctx);
  }
  publish_observability();
}

BatchResult PrefetchEngine::access_many(
    std::span<const trace::BlockId> blocks,
    std::span<const trace::BlockId> lookahead) {
  const std::uint64_t demand_hits = metrics_.demand_hits;
  const std::uint64_t prefetch_hits = metrics_.prefetch_hits;
  const std::uint64_t misses = metrics_.misses;
  const double elapsed_ms = metrics_.elapsed_ms;
  Context ctx = make_context();
  run_blocks(blocks, lookahead, ctx);

  BatchResult result;
  result.demand_hits = metrics_.demand_hits - demand_hits;
  result.prefetch_hits = metrics_.prefetch_hits - prefetch_hits;
  result.misses = metrics_.misses - misses;
  result.latency_ms = metrics_.elapsed_ms - elapsed_ms -
                      static_cast<double>(blocks.size()) * config_.timing.t_cpu;
  return result;
}

void PrefetchEngine::snapshot(std::vector<std::uint8_t>& out) const {
  using util::put_f64;
  using util::put_u32;
  using util::put_u64;
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  util::put_u16(out, kVersion);
  put_u64(out, config_.cache_blocks);

  put_u64(out, metrics_.accesses);
  put_u64(out, metrics_.demand_hits);
  put_u64(out, metrics_.prefetch_hits);
  put_u64(out, metrics_.misses);
  put_f64(out, metrics_.elapsed_ms);
  put_f64(out, metrics_.stall_ms);
  put_f64(out, metrics_.disk_queue_delay_ms);
  put_u64(out, metrics_.disk_requests);

  const auto& p = metrics_.policy;
  put_u64(out, p.prefetches_issued);
  put_u64(out, p.obl_prefetches_issued);
  put_u64(out, p.tree_prefetches_issued);
  put_f64(out, p.sum_prefetch_probability);
  put_u64(out, p.candidates_chosen);
  put_u64(out, p.candidates_already_cached);
  put_u64(out, p.prefetch_ejections);
  put_u64(out, p.demand_ejections);
  put_u64(out, p.predictable);
  put_u64(out, p.predictable_uncached);
  put_u64(out, p.lvc_opportunities);
  put_u64(out, p.lvc_followed);
  put_u64(out, p.lvc_checks);
  put_u64(out, p.lvc_cached);
  put_u64(out, p.tree_nodes);
  put_u64(out, p.tree_bytes);

  const auto demand_blocks = cache_.demand().blocks_lru_to_mru();
  put_u64(out, demand_blocks.size());
  for (const trace::BlockId block : demand_blocks) {
    put_u64(out, block);
  }

  const auto prefetch_entries = cache_.prefetch().entries();
  put_u64(out, prefetch_entries.size());
  for (const cache::PrefetchEntry& entry : prefetch_entries) {
    put_u64(out, entry.block);
    put_f64(out, entry.probability);
    put_u32(out, entry.depth);
    put_f64(out, entry.eject_cost);
    util::put_u8(out, entry.obl ? 1 : 0);
    put_u64(out, entry.issued_period);
    put_f64(out, entry.completion_ms);
  }

  // Predictor state rides as an opaque, length-prefixed blob keyed by the
  // policy's FourCC tag — the engine never learns the family's format.
  // The policy appends in place; the length is patched in afterwards.
  const std::uint32_t tag = policy_->predictor_state_tag();
  put_u32(out, tag);
  if (tag != core::policy::kPredictorNone) {
    const std::size_t length_at = out.size();
    put_u64(out, 0);
    policy_->save_predictor_state(out);
    util::patch_le<std::uint64_t>(out, length_at,
                                  out.size() - length_at - 8);
  }
}

void PrefetchEngine::restore(std::span<const std::uint8_t> image) {
  if (metrics_.accesses != 0 || cache_.resident() != 0) {
    throw std::runtime_error(
        "engine snapshot restore requires a freshly constructed engine");
  }

  util::ByteReader in(image);
  if (!in.read_magic(kMagic)) {
    corrupt("bad magic");
  }
  if (in.read_u16() != kVersion) {
    corrupt("unsupported version");
  }
  if (in.read_u64() != config_.cache_blocks) {
    corrupt("cache_blocks mismatch with the configured engine");
  }

  Metrics restored;
  restored.accesses = in.read_u64();
  restored.demand_hits = in.read_u64();
  restored.prefetch_hits = in.read_u64();
  restored.misses = in.read_u64();
  restored.elapsed_ms = in.read_f64();
  restored.stall_ms = in.read_f64();
  restored.disk_queue_delay_ms = in.read_f64();
  restored.disk_requests = in.read_u64();

  auto& p = restored.policy;
  p.prefetches_issued = in.read_u64();
  p.obl_prefetches_issued = in.read_u64();
  p.tree_prefetches_issued = in.read_u64();
  p.sum_prefetch_probability = in.read_f64();
  p.candidates_chosen = in.read_u64();
  p.candidates_already_cached = in.read_u64();
  p.prefetch_ejections = in.read_u64();
  p.demand_ejections = in.read_u64();
  p.predictable = in.read_u64();
  p.predictable_uncached = in.read_u64();
  p.lvc_opportunities = in.read_u64();
  p.lvc_followed = in.read_u64();
  p.lvc_checks = in.read_u64();
  p.lvc_cached = in.read_u64();
  p.tree_nodes = in.read_u64();
  p.tree_bytes = in.read_u64();
  require_total(restored.elapsed_ms, "elapsed_ms");
  require_total(restored.stall_ms, "stall_ms");
  require_total(restored.disk_queue_delay_ms, "disk_queue_delay_ms");
  require_total(p.sum_prefetch_probability, "sum_prefetch_probability");

  const std::uint64_t demand_count = in.read_u64();
  if (!in.ok() || demand_count > config_.cache_blocks) {
    corrupt("demand residency exceeds the buffer pool");
  }
  for (std::uint64_t i = 0; i < demand_count; ++i) {
    const trace::BlockId block = in.read_u64();
    if (!in.ok()) {
      corrupt("truncated demand residency list");
    }
    if (cache_.contains(block)) {
      corrupt("duplicate block in demand residency list");
    }
    cache_.admit_demand(block);
  }

  const std::uint64_t prefetch_count = in.read_u64();
  if (!in.ok() || demand_count + prefetch_count > config_.cache_blocks) {
    corrupt("residency exceeds the buffer pool");
  }
  for (std::uint64_t i = 0; i < prefetch_count; ++i) {
    cache::PrefetchEntry entry;
    entry.block = in.read_u64();
    entry.probability = in.read_f64();
    entry.depth = in.read_u32();
    entry.eject_cost = in.read_f64();
    entry.obl = in.read_u8() == 1;
    entry.issued_period = in.read_u64();
    entry.completion_ms = in.read_f64();
    if (!in.ok()) {
      corrupt("truncated prefetch residency list");
    }
    if (!(entry.probability >= 0.0 && entry.probability <= 1.0)) {
      corrupt("prefetch probability outside [0, 1]");
    }
    // The prefetch partition orders its ejection heap by eject_cost (a
    // NaN breaks that order), and completion_ms feeds the stall clock.
    if (!std::isfinite(entry.eject_cost) ||
        !std::isfinite(entry.completion_ms)) {
      corrupt("non-finite prefetch eject cost or completion time");
    }
    if (cache_.contains(entry.block)) {
      corrupt("duplicate block in prefetch residency list");
    }
    cache_.admit_prefetch(entry);
  }

  const std::uint32_t tag = in.read_u32();
  if (!in.ok()) {
    corrupt("truncated predictor tag");
  }
  const std::uint32_t live_tag = policy_->predictor_state_tag();
  if (tag != live_tag) {
    corrupt("predictor kind mismatch: snapshot carries " +
            core::policy::predictor_tag_name(tag) +
            " state but the configured policy keeps " +
            core::policy::predictor_tag_name(live_tag));
  }
  if (tag != core::policy::kPredictorNone) {
    const std::uint64_t blob_bytes = in.read_u64();
    if (!in.ok()) {
      corrupt("truncated predictor blob length");
    }
    // A length longer than the bytes in hand is a truncated image or a
    // garbage prefix; either way nothing is sized from it.
    if (blob_bytes > in.remaining()) {
      corrupt("implausible predictor blob length " +
              std::to_string(blob_bytes) + ": only " +
              std::to_string(in.remaining()) +
              " bytes follow (truncated predictor blob?)");
    }
    util::ByteReader blob(in.read_bytes(static_cast<std::size_t>(blob_bytes)));
    if (!policy_->load_predictor_state(blob)) {
      corrupt("predictor blob rejected by the policy");
    }
    if (!blob.exhausted()) {
      corrupt("predictor blob has trailing bytes");
    }
  }
  if (!in.exhausted()) {
    corrupt("trailing bytes after the image");
  }

  metrics_ = restored;
  disk_base_ = {restored.disk_requests, restored.disk_queue_delay_ms};
  publish_observability();
}

}  // namespace pfp::engine
