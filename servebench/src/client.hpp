// The benchmark's own PFP1 client and pfp_server process control.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "plan.hpp"
#include "util/net.hpp"

namespace servebench {

/// Pins the calling thread (and every thread it creates afterwards) to
/// `cpus`; an empty list leaves the affinity alone.
void pin_to(const std::vector<int>& cpus);

/// One pfp_server child process: started pinned to its CPU set, killed
/// with the benchmark (PR_SET_PDEATHSIG), stopped with SIGTERM.
class ServerProcess {
 public:
  /// Starts `binary --port 0 --loops <loops>` and blocks until it prints
  /// the port it listens on.  Throws std::runtime_error on failure.
  ServerProcess(const std::string& binary, std::size_t loops,
                const std::vector<int>& cpus);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Pins each of the server's worker threads (its event loops) to its
  /// own CPU of `cpus`, round-robin, so loops neither migrate nor share
  /// a CPU; the idle main thread keeps the whole set.
  void pin_threads(const std::vector<int>& cpus) const;

  /// CPU time of all the server's threads so far, in ns (sum of each
  /// task's /proc schedstat run time, i.e. utime + stime).
  [[nodiscard]] std::uint64_t cpu_ns() const;

  /// Peak resident set (VmHWM) in MB.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM, then waits for exit; true when it exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the child's stdout
  std::uint16_t port_ = 0;
};

/// Request/reply PFP1 client over one connection.  The socket is
/// non-blocking and the client spins on it, so the client thread's own
/// wake-up latency stays out of the measured round trip (each client
/// thread has a CPU of its own).
class Client {
 public:
  explicit Client(std::uint16_t port);

  /// Sends one pre-encoded frame.  Throws on a dropped connection.
  void send(std::span<const std::uint8_t> frame);
  /// Reads one reply into `header` and `payload`.  Throws on a dropped
  /// connection or a malformed header.
  void receive(wire::FrameHeader& header, std::vector<std::uint8_t>& payload);

 private:
  void read_spinning(std::span<std::uint8_t> buf);

  pfp::util::net::Socket sock_;
};

/// GET `path` over a fresh connection; the whole HTTP response.
std::string http_get(std::uint16_t port, const std::string& path);

/// True when a reply matches what `step` expects: type, serial, flags
/// (the advisory backpressure bit masked) and payload bytes.
[[nodiscard]] bool reply_matches(const Step& step,
                                 const wire::FrameHeader& header,
                                 std::span<const std::uint8_t> payload);

/// The serial carried by a pre-encoded frame.
[[nodiscard]] std::uint32_t frame_serial(std::span<const std::uint8_t> frame);

}  // namespace servebench
