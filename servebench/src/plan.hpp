// Workload plans: everything the benchmark sends, and everything it
// expects back, prepared before any clock starts.
//
// A plan is a list of connections.  Each connection owns one tenant and a
// script of PFP1 requests split into four sections:
//
//   setup  TENANT_OPEN (+ RESTORE of the warm snapshot)   -> setup_s
//   pre    STATS baseline                                 (untimed)
//   timed  the closed-loop workload                       -> throughput, p50/p99
//   post   STATS, and on some workloads one ship cycle    (untimed / ship_ms)
//
// Every request is a pre-encoded frame.  replay_plan() runs the same
// scripts through in-process engine::Tenant objects and stores the exact
// reply each request must get (type, flags, payload bytes), so the
// end-to-end run and the traced run check every served reply bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/tenant_registry.hpp"
#include "server/wire.hpp"

namespace servebench {

namespace wire = pfp::server::wire;

enum class StepKind {
  kOpen,
  kClose,
  kRestore,
  kSnapshot,
  kStats,
  kAccess,
  kAccessMany,
  kScrape,  ///< HTTP GET /metrics on a fresh connection (no PFP1 frame)
};

/// One request and the reply it must get.
struct Step {
  StepKind kind = StepKind::kStats;
  std::vector<std::uint8_t> frame;  ///< complete request frame
  std::uint32_t blocks = 0;         ///< accesses carried (access kinds)
  /// A RESTORE whose image is the preceding SNAPSHOT reply (ship cycle);
  /// replay_plan() fills `frame` once it knows the image.
  bool ships_previous_snapshot = false;

  wire::MsgType reply_type = wire::MsgType::kError;
  std::uint8_t reply_flags = 0;  ///< kFlagBackpressure is advisory and masked
  std::vector<std::uint8_t> reply_payload;
};

struct ConnPlan {
  std::uint16_t tenant = 0;
  std::string policy;
  std::vector<std::uint8_t> warm;  ///< PFEG image of the warm tenant

  std::vector<Step> setup;
  std::vector<Step> pre;
  std::vector<Step> timed;
  std::vector<Step> post;

  /// Expected STATS at the end of `pre` and at the first STATS of `post`.
  wire::WireMetrics baseline;
  wire::WireMetrics final_stats;
  /// Disk requests issued during `timed`.  Counted by the replay, because
  /// the engine's disk_requests restarts from 0 at the first access after
  /// a RESTORE (it is read from the transient disk model), so a STATS
  /// delta across a ship cycle would be wrong.
  std::uint64_t timed_disk_requests = 0;

  /// "t<tenant>", the TENANT_OPEN name (the Prometheus tenant label).
  [[nodiscard]] std::string tenant_name() const;
  /// The in-process config equal to what TENANT_OPEN builds server side.
  [[nodiscard]] pfp::engine::TenantConfig tenant_config() const;
};

struct Plan {
  std::vector<ConnPlan> conns;

  [[nodiscard]] std::uint64_t timed_accesses() const;
};

/// Builds traces, frames and warm snapshots for `workload` ("cad-batch",
/// "sitar-frames" or "snake-ship") from `seed`,
/// then replays them in process to fill every expected reply.  Throws
/// std::invalid_argument on an unknown workload.
Plan make_plan(const std::string& workload, std::uint64_t seed);

/// Derived quantities over the timed phase, summed across tenants, from
/// the expected STATS (the served ones must equal them).
struct ModelFigures {
  double miss_rate = 0.0;
  double stall_frac = 0.0;
  double prefetches_per_access = 0.0;
  double prefetch_useful_frac = 0.0;
  double candidates_cached_frac = 0.0;
  double prediction_accuracy = 0.0;
  double tree_nodes = 0.0;
  double disk_requests_per_access = 0.0;
  double prefetch_ejections_per_access = 0.0;
};
ModelFigures model_figures(const Plan& plan);

}  // namespace servebench
