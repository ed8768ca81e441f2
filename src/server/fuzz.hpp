// Deterministic protocol fuzzing for the PFP1 decoder and frame
// handlers.
//
// The corpus is generated, not collected: from one 64-bit seed the
// harness produces `cases` byte strings — valid frames, truncations,
// oversized lengths, garbage magic/version/type bytes, payload-length
// mismatches, random splices — and feeds each through a real Session
// over a real TenantRegistry, split at random ingest boundaries to
// exercise the reassembly path.  RESTORE frames carry a real snapshot
// of a small trained engine shaped like the live tenant (whose policy
// rotates through the tree, markov and assoc families), intact or
// deformed, so the image decoders run past the PFEG magic.  The
// production code path is the one under test (fuzz and server share
// Session verbatim); the harness only checks the protocol's total-error
// contract:
//
//   - no crash, no hang, no sanitizer report (the CI leg runs ASan);
//   - every handled frame produced a reply or a typed error;
//   - a fatal framing error latches the session (no frames after).
//
// Determinism makes the smoke leg meaningful in CI: same seed, same
// corpus, same verdict — a failure names the case index to replay.
#pragma once

#include <cstdint>

namespace pfp::server {

struct FuzzOptions {
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  std::uint64_t cases = 2000;
  /// Max generated case length in bytes (before splicing).
  std::uint64_t max_case_bytes = 4096;
};

struct FuzzReport {
  std::uint64_t cases = 0;
  std::uint64_t bytes = 0;           ///< total corpus bytes ingested
  std::uint64_t frames_handled = 0;  ///< complete frames dispatched
  std::uint64_t errors_sent = 0;     ///< typed kError replies
  std::uint64_t fatal_sessions = 0;  ///< sessions latched fatal
  /// RESTORE frames that got past the PFEG magic: accepted, or rejected
  /// by PrefetchEngine::restore for a later reason.
  std::uint64_t restores_past_magic = 0;
  std::uint64_t restores_accepted = 0;  ///< kRestoreReply replies
  std::uint64_t contract_violations = 0;  ///< MUST stay 0
};

/// Runs the whole corpus; never throws on malformed input (a throw IS a
/// finding and escapes to the caller/test).
[[nodiscard]] FuzzReport run_protocol_fuzz(const FuzzOptions& options);

}  // namespace pfp::server
