#include "server/server.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/prometheus.hpp"

namespace pfp::server {

namespace {

/// Bound on a buffered HTTP request; scrapers send a few hundred bytes.
constexpr std::size_t kMaxHttpRequest = 64u << 10;

/// Read chunk per read_some call.
constexpr std::size_t kReadChunk = 64u << 10;

void append_bytes(std::vector<std::uint8_t>& out, std::string_view text) {
  out.insert(out.end(),
             reinterpret_cast<const std::uint8_t*>(text.data()),
             reinterpret_cast<const std::uint8_t*>(text.data()) +
                 text.size());
}

/// "GET /metrics HTTP/1.1" -> "/metrics"; empty on anything malformed.
std::string_view request_target(std::string_view request_line) {
  const std::size_t method_end = request_line.find(' ');
  if (method_end == std::string_view::npos ||
      request_line.substr(0, method_end) != "GET") {
    return {};
  }
  const std::size_t target_begin = method_end + 1;
  const std::size_t target_end = request_line.find(' ', target_begin);
  if (target_end == std::string_view::npos) {
    return {};
  }
  return request_line.substr(target_begin, target_end - target_begin);
}

}  // namespace

PrefetchServer::PrefetchServer(ServerConfig config)
    : config_(std::move(config)) {
  listener_ = util::net::listen_tcp(config_.port);
  port_ = util::net::local_port(listener_);
  const std::size_t loops = std::max<std::size_t>(std::size_t{1},
                                                  config_.loops);
  loops_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<ServerLoop>());
  }
  pool_ = std::make_unique<util::ThreadPool>(loops);
  loop_futures_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    loop_futures_.push_back(pool_->submit([this, i] { run_loop(i); }));
  }
}

PrefetchServer::~PrefetchServer() { stop(); }

void PrefetchServer::stop() {
  {
    util::MutexLock lock(state_mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  for (const std::unique_ptr<ServerLoop>& loop : loops_) {
    loop->wake.wake();
  }
  for (std::future<void>& future : loop_futures_) {
    if (future.valid()) {
      future.get();
    }
  }
}

bool PrefetchServer::stopping() const {
  util::MutexLock lock(state_mu_);
  return stop_;
}

std::string PrefetchServer::render_metrics() const {
  std::vector<obs::LabeledStats> views;
  for (const auto& [id, tenant] : registry_.tenants()) {
    obs::LabeledStats view;
    view.labels.push_back(obs::Label{"tenant", tenant->name()});
    view.labels.push_back(obs::Label{"tenant_id", std::to_string(id)});
    view.stats = tenant->stats();
    views.push_back(std::move(view));
  }
  std::ostringstream out;
  render_prometheus(out, std::span<const obs::LabeledStats>(views));
  return std::move(out).str();
}

void PrefetchServer::run_loop(const std::size_t index) {
  ServerLoop& loop = *loops_[index];
  loop.assert_owner();
  const bool acceptor = index == 0;
  while (!stopping()) {
    // Rebuild the interest list: wake pipe, listener (loop 0), conns.
    loop.entries.clear();
    util::net::PollEntry wake_entry;
    wake_entry.fd = loop.wake.read_fd();
    wake_entry.want_read = true;
    loop.entries.push_back(wake_entry);
    if (acceptor) {
      util::net::PollEntry listen_entry;
      listen_entry.fd = listener_.fd();
      listen_entry.want_read = true;
      loop.entries.push_back(listen_entry);
    }
    const std::size_t conns_at = loop.entries.size();
    const std::size_t polled_conns = loop.conns.size();
    for (const std::unique_ptr<ServerConn>& conn : loop.conns) {
      util::net::PollEntry entry;
      entry.fd = conn->sock.fd();
      entry.want_read = !conn->close_after_flush;
      entry.want_write = pending_out(*conn) > 0;
      loop.entries.push_back(entry);
    }

    loop.poller.wait(loop.entries, -1);

    if (loop.entries[0].ready.readable) {
      loop.wake.drain();
    }
    if (acceptor && loop.entries[1].ready.readable) {
      accept_pending(loop);
    }
    adopt_incoming(loop);

    // Accepts/adoptions above appended NEW conns with no poll entry this
    // round; only the first `polled_conns` have readiness to act on.
    for (std::size_t i = 0; i < polled_conns; ++i) {
      ServerConn& conn = *loop.conns[i];
      const util::net::Readiness ready = loop.entries[conns_at + i].ready;
      bool alive = !ready.error;
      if (alive && ready.readable) {
        alive = service_read(conn);
      }
      if (alive) {
        // Flush opportunistically after reads too: the common case is a
        // reply that fits the socket buffer in one go.
        alive = flush_writes(conn);
      }
      // Tenants closed by this read are freed once their replies are out.
      conn.session.release_closed();
      conn.dead = !alive;
    }
    std::erase_if(loop.conns, [](const std::unique_ptr<ServerConn>& conn) {
      return conn->dead;
    });
  }
  loop.conns.clear();
}

void PrefetchServer::accept_pending(ServerLoop& loop) {
  for (;;) {
    util::net::Socket accepted = util::net::accept_one(listener_);
    if (!accepted.valid()) {
      break;
    }
    const std::size_t target = loop.next_loop % loops_.size();
    loop.next_loop++;
    if (target == 0) {
      loop.conns.push_back(std::make_unique<ServerConn>(
          std::move(accepted), registry_, config_.session));
      continue;
    }
    ServerLoop& other = *loops_[target];
    {
      util::MutexLock lock(other.mu);
      other.incoming.push_back(std::move(accepted));
    }
    other.wake.wake();
  }
}

void PrefetchServer::adopt_incoming(ServerLoop& loop) {
  std::vector<util::net::Socket> pending;
  {
    util::MutexLock lock(loop.mu);
    pending.swap(loop.incoming);
  }
  for (util::net::Socket& socket : pending) {
    loop.conns.push_back(std::make_unique<ServerConn>(
        std::move(socket), registry_, config_.session));
  }
}

bool PrefetchServer::service_read(ServerConn& conn) {
  std::array<std::uint8_t, kReadChunk> buf;
  for (;;) {
    const util::net::IoResult r = util::net::read_some(conn.sock, buf);
    if (r.status == util::net::IoStatus::kWouldBlock) {
      return true;
    }
    if (r.status != util::net::IoStatus::kOk) {
      // Orderly close or reset; replies the peer will never read are
      // dropped with the connection.
      return false;
    }
    if (!on_bytes(conn, std::span<const std::uint8_t>(buf.data(),
                                                      r.bytes))) {
      conn.close_after_flush = true;
      return true;
    }
  }
}

bool PrefetchServer::on_bytes(ServerConn& conn,
                              std::span<const std::uint8_t> bytes) {
  if (!conn.decided) {
    conn.pre.insert(conn.pre.end(), bytes.begin(), bytes.end());
    if (conn.pre.size() < 4) {
      return true;
    }
    conn.decided = true;
    conn.http = std::memcmp(conn.pre.data(), "GET ", 4) == 0;
    const std::vector<std::uint8_t> sniffed = std::move(conn.pre);
    conn.pre.clear();
    return on_decided_bytes(conn, sniffed);
  }
  return on_decided_bytes(conn, bytes);
}

bool PrefetchServer::on_decided_bytes(ServerConn& conn,
                                      std::span<const std::uint8_t> bytes) {
  if (!conn.http) {
    return conn.session.ingest(bytes);
  }
  conn.http_in.insert(conn.http_in.end(), bytes.begin(), bytes.end());
  if (conn.http_in.size() > kMaxHttpRequest) {
    return false;
  }
  return service_http(conn);
}

bool PrefetchServer::service_http(ServerConn& conn) {
  const std::string_view request(
      reinterpret_cast<const char*>(conn.http_in.data()),
      conn.http_in.size());
  if (request.find("\r\n\r\n") == std::string_view::npos) {
    return true;  // headers still incomplete
  }
  const std::string_view target =
      request_target(request.substr(0, request.find("\r\n")));
  std::string body;
  std::string status;
  if (target == "/metrics") {
    status = "200 OK";
    body = render_metrics();
  } else {
    status = "404 Not Found";
    body = "only /metrics lives here\n";
  }
  std::ostringstream head;
  head << "HTTP/1.1 " << status << "\r\n"
       << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  append_bytes(conn.http_out, head.str());
  append_bytes(conn.http_out, body);
  return false;  // one-shot: flush then close
}

bool PrefetchServer::flush_writes(ServerConn& conn) {
  for (;;) {
    const std::span<const std::uint8_t> buf =
        conn.http ? std::span<const std::uint8_t>(conn.http_out)
                  : std::span<const std::uint8_t>(conn.session.out());
    if (buf.empty()) {
      break;
    }
    const util::net::IoResult r = util::net::write_some(conn.sock, buf);
    if (r.status == util::net::IoStatus::kWouldBlock) {
      break;
    }
    if (r.status != util::net::IoStatus::kOk) {
      return false;
    }
    if (conn.http) {
      conn.http_out.erase(conn.http_out.begin(),
                          conn.http_out.begin() +
                              static_cast<std::ptrdiff_t>(r.bytes));
    } else {
      conn.session.consumed(r.bytes);
    }
  }
  return !(conn.close_after_flush && pending_out(conn) == 0);
}

std::size_t PrefetchServer::pending_out(const ServerConn& conn) const {
  return conn.http ? conn.http_out.size() : conn.session.out().size();
}

}  // namespace pfp::server
