#include "client.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace servebench {

namespace net = pfp::util::net;

namespace {

void pin_task(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (sched_setaffinity(tid, sizeof(set), &set) != 0) {
    throw std::runtime_error(net::errno_message("sched_setaffinity"));
  }
}

}  // namespace

void pin_to(const std::vector<int>& cpus) { pin_task(0, cpus); }

ServerProcess::ServerProcess(const std::string& binary, std::size_t loops,
                             const std::vector<int>& cpus) {
  std::array<int, 2> pipe_fds{};
  if (pipe(pipe_fds.data()) != 0) {
    throw std::runtime_error(net::errno_message("pipe"));
  }
  const std::string loops_arg = std::to_string(loops);
  std::vector<std::string> args = {binary, "--port", "0", "--loops",
                                   loops_arg};
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  const pid_t parent = getpid();

  pid_ = fork();
  if (pid_ < 0) {
    throw std::runtime_error(net::errno_message("fork"));
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    if (!cpus.empty()) {
      (void)sched_setaffinity(0, sizeof(set), &set);
    }
    (void)prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(126);
    }
    (void)dup2(pipe_fds[1], STDOUT_FILENO);
    (void)close(pipe_fds[0]);
    (void)close(pipe_fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  (void)close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];

  // "pfp_server listening on 127.0.0.1:<port> (N loop(s))"
  std::string line;
  char c = 0;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = read(out_fd_, &c, 1);
    if (n <= 0) {
      stop();
      throw std::runtime_error("pfp_server exited before listening");
    }
    line.push_back(c);
  }
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) {
    stop();
    throw std::runtime_error("unexpected pfp_server banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    (void)kill(pid_, SIGKILL);
    (void)waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) {
    (void)close(out_fd_);
  }
}

void ServerProcess::pin_threads(const std::vector<int>& cpus) const {
  if (cpus.empty()) {
    return;
  }
  std::vector<pid_t> workers;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task")) {
    const pid_t tid = std::stoi(entry.path().filename().string());
    if (tid != pid_) {
      workers.push_back(tid);
    }
  }
  std::sort(workers.begin(), workers.end());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    pin_task(workers[i], {cpus[i % cpus.size()]});
  }
}

std::uint64_t ServerProcess::cpu_ns() const {
  std::uint64_t total = 0;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    std::ifstream in(entry.path() / "schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) {
      total += run_ns;
    }
  }
  return total;
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

bool ServerProcess::stop() {
  if (pid_ <= 0) {
    return false;
  }
  (void)kill(pid_, SIGTERM);
  // Drain the banner pipe so the shutdown message never blocks.
  std::array<char, 256> buf{};
  while (read(out_fd_, buf.data(), buf.size()) > 0) {
  }
  int status = 0;
  const pid_t waited = waitpid(pid_, &status, 0);
  pid_ = -1;
  return waited > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Client::Client(std::uint16_t port) : sock_(net::connect_tcp(port)) {
  const int flags = fcntl(sock_.fd(), F_GETFL, 0);
  if (flags < 0 || fcntl(sock_.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(net::errno_message("fcntl(O_NONBLOCK)"));
  }
}

void Client::send(std::span<const std::uint8_t> frame) {
  while (!frame.empty()) {
    const net::IoResult r = net::write_some(sock_, frame);
    if (r.status == net::IoStatus::kOk) {
      frame = frame.subspan(r.bytes);
    } else if (r.status != net::IoStatus::kWouldBlock) {
      throw std::runtime_error("connection dropped while sending");
    }
  }
}

void Client::read_spinning(std::span<std::uint8_t> buf) {
  while (!buf.empty()) {
    const net::IoResult r = net::read_some(sock_, buf);
    if (r.status == net::IoStatus::kOk) {
      buf = buf.subspan(r.bytes);
    } else if (r.status != net::IoStatus::kWouldBlock) {
      throw std::runtime_error("connection dropped while receiving");
    }
  }
}

void Client::receive(wire::FrameHeader& header,
                     std::vector<std::uint8_t>& payload) {
  std::array<std::uint8_t, wire::kHeaderSize> head{};
  read_spinning(head);
  if (std::memcmp(head.data(), wire::kMagic, 3) != 0) {
    throw std::runtime_error("reply without the PFP magic");
  }
  const auto u32_at = [&head](std::size_t at) {
    return static_cast<std::uint32_t>(head[at]) |
           (static_cast<std::uint32_t>(head[at + 1]) << 8) |
           (static_cast<std::uint32_t>(head[at + 2]) << 16) |
           (static_cast<std::uint32_t>(head[at + 3]) << 24);
  };
  header.type = static_cast<wire::MsgType>(head[4]);
  header.flags = head[5];
  header.tenant = static_cast<std::uint16_t>(head[6] | (head[7] << 8));
  header.payload_len = u32_at(8);
  header.serial = u32_at(12);
  if (header.payload_len > wire::kMaxPayload) {
    throw std::runtime_error("reply payload length out of bounds");
  }
  payload.resize(header.payload_len);
  read_spinning(payload);
}

std::string http_get(std::uint16_t port, const std::string& path) {
  net::Socket sock = net::connect_tcp(port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!net::write_all(sock, std::span<const std::uint8_t>(
                                reinterpret_cast<const std::uint8_t*>(
                                    request.data()),
                                request.size()))) {
    throw std::runtime_error("scrape: send failed");
  }
  std::string response;
  std::array<std::uint8_t, 16384> buf{};
  for (;;) {
    const net::IoResult r = net::read_some(sock, buf);
    if (r.status != net::IoStatus::kOk) {
      break;
    }
    response.append(reinterpret_cast<const char*>(buf.data()), r.bytes);
  }
  return response;
}

std::uint32_t frame_serial(std::span<const std::uint8_t> frame) {
  return static_cast<std::uint32_t>(frame[12]) |
         (static_cast<std::uint32_t>(frame[13]) << 8) |
         (static_cast<std::uint32_t>(frame[14]) << 16) |
         (static_cast<std::uint32_t>(frame[15]) << 24);
}

bool reply_matches(const Step& step, const wire::FrameHeader& header,
                   std::span<const std::uint8_t> payload) {
  return header.type == step.reply_type &&
         header.serial == frame_serial(step.frame) &&
         (header.flags & ~wire::kFlagBackpressure) == step.reply_flags &&
         std::equal(payload.begin(), payload.end(),
                    step.reply_payload.begin(), step.reply_payload.end());
}

}  // namespace servebench
