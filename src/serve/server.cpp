#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

namespace lion::serve {

namespace {

// Loop until the whole buffer is on the wire. Connection fds are
// non-blocking (the front-end event loop owns reads), so EAGAIN here
// means the client's receive window is full — the shard thread parks on
// writability, which is exactly the designed slow-consumer stall: a
// client that stops reading stalls the one shard its sessions live on.
// MSG_NOSIGNAL turns a vanished peer into an error return, not SIGPIPE.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLOUT;
        ::poll(&p, 1, -1);
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string_view trim_ws(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() &&
         std::isspace(static_cast<unsigned char>(rest[i]))) {
    ++i;
  }
  std::size_t j = i;
  while (j < rest.size() &&
         !std::isspace(static_cast<unsigned char>(rest[j]))) {
    ++j;
  }
  const std::string_view token = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return token;
}

}  // namespace

std::uint64_t run_stdio(const ServiceConfig& config, std::istream& in,
                        std::ostream& out) {
  std::uint64_t responses = 0;
  StreamService service(config, [&out, &responses](std::string_view line) {
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.put('\n');
    out.flush();
    ++responses;
  });
  char buf[4096];
  while (in.good()) {
    in.read(buf, sizeof buf);
    const std::streamsize n = in.gcount();
    if (n <= 0) break;
    service.ingest_bytes(
        std::string_view(buf, static_cast<std::size_t>(n)));
  }
  service.finish();
  return responses;
}

std::uint64_t shard_hash(std::string_view session_id) {
  // FNV-1a 64. The id -> shard mapping is part of the durability story
  // (journaled sessions must restore onto their hashed shard after a
  // restart), so this function must never change; the sharding test
  // suite pins known digests.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : session_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

SocketServer::SocketServer(ServerConfig config) : cfg_(std::move(config)) {
  if (cfg_.shards == 0) cfg_.shards = 1;
}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::open_listener(std::string& error) {
  if (!cfg_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.unix_path.size() >= sizeof(addr.sun_path)) {
      error = "unix socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, cfg_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(cfg_.unix_path.c_str());  // stale socket from a crashed run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      error = std::string("bind ") + cfg_.unix_path + ": " +
              std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    listener_unix_ = true;
  } else if (cfg_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (cfg_.reuseport) {
#ifdef SO_REUSEPORT
      if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one,
                       sizeof(one)) < 0) {
        error = std::string("setsockopt SO_REUSEPORT: ") +
                std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
      }
#else
      error = "SO_REUSEPORT not supported on this platform";
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
#endif
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::inet_pton(AF_INET, cfg_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      error = "bad tcp host '" + cfg_.tcp_host + "'";
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      error = std::string("bind :") + std::to_string(cfg_.tcp_port) + ": " +
              std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  } else {
    error = "no listener configured (set unix_path or tcp_port)";
    return false;
  }

  const int backlog = cfg_.backlog > 0 ? cfg_.backlog : 1024;
  if (::listen(listen_fd_, backlog) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (!set_nonblocking(listen_fd_)) {
    error = std::string("fcntl listener: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

bool SocketServer::start(std::string& error) {
  if (running_.load()) {
    error = "server already running";
    return false;
  }
  stop_requested_.store(false);
  abandon_.store(false);
  front_done_ = false;
  if (!open_listener(error)) return false;

  if (::pipe(wake_fds_) < 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  for (const int fd : wake_fds_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }

  poller_ = Poller::create(cfg_.force_poll, error);
  if (!poller_ || !poller_->add(listen_fd_, true) ||
      !poller_->add(wake_fds_[0], true)) {
    if (error.empty()) {
      error = std::string("poller register: ") + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
      ::close(fd);
      fd = -1;
    }
    poller_.reset();
    return false;
  }
  error.clear();

  std::size_t threads = cfg_.service.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  pool_ = std::make_unique<engine::ThreadPool>(threads);

  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.clear();
    for (std::size_t k = 0; k < cfg_.shards; ++k) {
      auto shard = std::make_unique<Shard>();
      Shard* raw = shard.get();
      ServiceConfig scfg = cfg_.service;
      scfg.shard_index = k;
      scfg.shard_count = cfg_.shards;
      scfg.queue_depth = [raw] { return raw->depth.load(); };
      scfg.queue_hwm = [raw] { return raw->hwm.load(); };
      scfg.queue_stalls = [raw] { return raw->stalls.load(); };
      StreamService::RoutedSink sink = [this](std::string_view line,
                                              std::uint64_t origin) {
        std::shared_ptr<ConnWriter> writer;
        {
          std::lock_guard<std::mutex> sink_lock(sinks_mu_);
          const auto it = sinks_.find(origin);
          if (it != sinks_.end()) writer = it->second;
        }
        // Unknown origin: the stdio origin (0) or a connection already
        // torn down — release_origin() quiescence means no sequenced
        // response can land here, and late out-of-band lines are safe to
        // drop on the floor.
        if (!writer) return;
        std::string framed(line);
        framed.push_back('\n');
        std::lock_guard<std::mutex> write_lock(writer->mu);
        send_all(writer->fd, framed.data(), framed.size());
      };
      shard->service = std::make_unique<StreamService>(
          std::move(scfg), std::move(sink), pool_.get());
      shards_.push_back(std::move(shard));
    }
  }

  running_.store(true);
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    shards_[k]->thread = std::thread([this, k] { shard_loop(k); });
  }
  front_thread_ = std::thread([this] { front_loop(); });
  return true;
}

std::string SocketServer::poller_name() const {
  return poller_ ? poller_->name() : std::string();
}

void SocketServer::wake() {
  if (wake_fds_[1] < 0) return;
  const char byte = 1;
  // Non-blocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// Front-end event loop
// ---------------------------------------------------------------------------

void SocketServer::front_loop() {
  std::vector<Poller::Event> events;
  bool draining = false;
  for (;;) {
    if (abandon_.load()) break;
    if (stop_requested_.load() && !draining) {
      draining = true;
      // Stop accepting; half-close every connection so each sees EOF and
      // tears down through the normal splitter-tail + EOC path.
      if (listen_fd_ >= 0) {
        poller_->remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [fd, conn] : conns_) {
        if (!conn->eof) ::shutdown(fd, SHUT_RD);
      }
    }
    if (draining && conns_.empty()) break;
    const int n = poller_->wait(events, -1);
    if (n < 0) break;
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_fds_[0]) {
        char drain_buf[256];
        while (::read(wake_fds_[0], drain_buf, sizeof drain_buf) > 0) {
        }
        continue;
      }
      if (ev.fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // already torn down this round
      if (ev.readable || ev.hangup) read_ready(*it->second);
    }
    finalize_acked();
    if (parked_conns_.load() > 0) retry_parked();
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    front_done_ = true;
  }
  done_cv_.notify_all();
}

void SocketServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained this readiness level
    }
    if (stop_requested_.load() || conns_.size() >= cfg_.max_connections) {
      static const char kRefused[] =
          "{\"schema\":\"lion.error.v1\",\"session\":\"\",\"seq\":0,"
          "\"code\":\"server_full\",\"detail\":\"connection limit "
          "reached\"}\n";
      send_all(fd, kRefused, sizeof(kRefused) - 1);
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd) || !poller_->add(fd, true)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>(cfg_.service.max_line_bytes);
    conn->fd = fd;
    conn->origin = next_origin_++;
    conn->writer = std::make_shared<ConnWriter>();
    conn->writer->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sinks_mu_);
      sinks_[conn->origin] = conn->writer;
    }
    origin_fds_[conn->origin] = fd;
    conns_.emplace(fd, std::move(conn));
    connections_served_.fetch_add(1, std::memory_order_relaxed);
    live_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketServer::read_ready(Conn& conn) {
  if (conn.eof) return;
  char buf[65536];
  const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
  if (n > 0) {
    const ChunkDecoder::Lines lines =
        conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    route_lines(conn, lines);
    return;
  }
  if (n < 0) {
    if (errno == EINTR) return;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // Hard error: fall through to EOF teardown. (A level-triggered
    // hangup event with no data also lands here via recv() == 0.)
  }
  on_conn_eof(conn);
}

std::size_t SocketServer::route_of(Conn& conn, std::string_view raw,
                                   bool& broadcast) {
  const std::size_t shard_count = shards_.size();
  const auto shard_of = [shard_count](std::string_view id) {
    return shard_count <= 1 ? 0 : shard_hash(id) % shard_count;
  };
  // Comments tick the owning slice's clock; malformed lines answer with
  // the current session's context. Both follow the mirror — the shard
  // that owns the mirror session is where the service-side "current
  // session" for this connection was set.
  const auto by_mirror = [&conn, &shard_of] { return shard_of(conn.mirror); };
  broadcast = false;
  const std::string_view line = trim_ws(raw);
  if (line.empty() || line.front() == '#') return by_mirror();
  if (line.front() == '{') {
    // JSON records are the one case where session extraction needs the
    // real parser (quoting, escapes, key order). Off the CSV hot path.
    const ParsedLine parsed = parse_line(line);
    if (parsed.kind == ParsedLine::kData && !parsed.session.empty()) {
      return shard_of(parsed.session);
    }
    if (parsed.kind == ParsedLine::kData && conn.mirror.empty() &&
        cfg_.service.implicit_center) {
      conn.mirror = "default";
    }
    return by_mirror();
  }
  if (line.front() == '@') {
    const std::size_t sp = line.find_first_of(" \t");
    if (sp == std::string_view::npos) return by_mirror();  // usage error
    const std::string_view id = line.substr(1, sp - 1);
    if (!valid_session_id(id)) return by_mirror();  // usage error
    return shard_of(id);
  }
  if (line.front() != '!') {
    // Bare CSV row: routes to the current session. An empty mirror with
    // implicit_center set auto-opens "default" — mirror the switch the
    // service will perform.
    if (conn.mirror.empty() && cfg_.service.implicit_center) {
      conn.mirror = "default";
    }
    return by_mirror();
  }
  // Control line. Token walk matches parse_control's classification;
  // anything it would reject as a usage error routes to the mirror shard
  // (exactly one error response).
  std::string_view rest = line;
  const std::string_view cmd = next_token(rest);
  const std::string_view arg = next_token(rest);
  const std::string_view extra = next_token(rest);
  if (cmd == "!stats" || cmd == "!healthz") {
    if (!arg.empty()) return by_mirror();  // usage error
    // Snapshot requests apply to every shard's slice; each answers for
    // its own (annotated with shard/shards when sharded).
    broadcast = true;
    return 0;
  }
  if (cmd == "!flush" || cmd == "!trace") {
    if (arg.empty() || !extra.empty() || !valid_session_id(arg)) {
      return by_mirror();  // usage error
    }
    return shard_of(arg);
  }
  if (cmd == "!close") {
    if (arg.empty() || !extra.empty() || !valid_session_id(arg)) {
      return by_mirror();  // usage error
    }
    const std::size_t target = shard_of(arg);
    if (conn.mirror == arg) conn.mirror.clear();
    return target;
  }
  if (cmd == "!tick") {
    if (arg.empty() || !extra.empty()) return by_mirror();  // usage error
    const char lead = arg.front();
    const bool numeric_lead = (lead >= '0' && lead <= '9') || lead == '-' ||
                              lead == '+' || lead == '.';
    if (numeric_lead) {
      if (!parse_tick_count(arg)) return by_mirror();  // usage error
      // A valid clock advance applies to every shard's virtual clock.
      broadcast = true;
      return 0;
    }
    if (!valid_session_id(arg)) return by_mirror();  // usage error
    return shard_of(arg);  // pose tick
  }
  if (cmd == "!session") {
    if (arg.empty() || !valid_session_id(arg)) {
      return by_mirror();  // usage error
    }
    // Optimistic mirror: the service sets its current session only on a
    // *successful* declare, but a failed declare's follow-up bare lines
    // still route somewhere deterministic — the shard that owns the
    // declared id, which is where the error context lives.
    conn.mirror = std::string(arg);
    return shard_of(arg);
  }
  return by_mirror();  // unknown control: one error on the mirror shard
}

void SocketServer::route_lines(Conn& conn, const ChunkDecoder::Lines& lines) {
  const std::size_t shard_count = shards_.size();
  if (lines.oversized_dropped > 0) {
    // Matches the single-service transport: a chunk's oversized-line
    // errors are reported before the chunk's surviving lines.
    ShardItem item;
    item.kind = ShardItem::kOversized;
    item.origin = conn.origin;
    item.count = lines.oversized_dropped;
    const std::size_t target =
        shard_count <= 1 ? 0 : shard_hash(conn.mirror) % shard_count;
    push_or_park(conn, target, std::move(item));
  }
  if (lines.lines.empty()) return;
  // One batch per target shard per chunk: lines from this connection
  // stay in arrival order within a shard (sessions map to exactly one
  // shard, so per-session order is preserved globally).
  std::vector<std::string> blobs(shard_count);
  std::vector<std::size_t> counts(shard_count, 0);
  const auto append = [&blobs, &counts](std::size_t s,
                                        const std::string& line) {
    if (counts[s] > 0) blobs[s].push_back('\n');
    blobs[s].append(line);
    ++counts[s];
  };
  for (const std::string& line : lines.lines) {
    bool broadcast = false;
    const std::size_t target = route_of(conn, line, broadcast);
    if (broadcast) {
      for (std::size_t s = 0; s < shard_count; ++s) append(s, line);
    } else {
      append(target, line);
    }
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (counts[s] == 0) continue;
    ShardItem item;
    item.kind = ShardItem::kLines;
    item.origin = conn.origin;
    item.blob = std::move(blobs[s]);
    item.count = counts[s];
    push_or_park(conn, s, std::move(item));
  }
}

bool SocketServer::try_push(std::size_t shard, ShardItem& item) {
  Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  if (item.kind == ShardItem::kLines) {
    // Reject only when something is already queued: a single batch
    // larger than the whole limit must still land or it could never be
    // delivered.
    if (sh.queued_lines > 0 &&
        sh.queued_lines + item.count > cfg_.shard_queue_limit) {
      sh.stalls.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    sh.queued_lines += item.count;
    sh.depth.store(sh.queued_lines, std::memory_order_relaxed);
    std::uint64_t hwm = sh.hwm.load(std::memory_order_relaxed);
    if (sh.queued_lines > hwm) {
      sh.hwm.store(sh.queued_lines, std::memory_order_relaxed);
    }
  }
  sh.items.push_back(std::move(item));
  sh.cv.notify_one();
  return true;
}

void SocketServer::push_or_park(Conn& conn, std::size_t shard,
                                ShardItem item) {
  // Strict per-connection delivery order: once anything is parked, every
  // later batch queues behind it regardless of target shard health.
  if (conn.parked.empty()) {
    // Pre-count before the push attempt: a shard thread that drains its
    // queue concurrently checks parked_conns_ after taking the queue
    // mutex, so counting first (and decrementing on success) closes the
    // window where a park could miss its retry wakeup.
    parked_conns_.fetch_add(1, std::memory_order_relaxed);
    if (try_push(shard, item)) {
      parked_conns_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    // Backpressure: stop reading this socket; the kernel buffer and the
    // peer's TCP window absorb the stall. (After EOF there is nothing
    // left to read — the parked tail just drains on retry.)
    if (!conn.eof) poller_->set_read_interest(conn.fd, false);
  }
  conn.parked.emplace_back(shard, std::move(item));
}

void SocketServer::retry_parked() {
  for (auto& [fd, conn_ptr] : conns_) {
    Conn& conn = *conn_ptr;
    if (conn.parked.empty()) continue;
    while (!conn.parked.empty()) {
      auto& [shard, item] = conn.parked.front();
      if (!try_push(shard, item)) break;
      conn.parked.pop_front();
    }
    if (!conn.parked.empty()) continue;
    parked_conns_.fetch_sub(1, std::memory_order_relaxed);
    if (conn.eof) {
      if (!conn.eoc_sent) send_eoc(conn);
    } else {
      poller_->set_read_interest(conn.fd, true);
    }
  }
}

void SocketServer::send_eoc(Conn& conn) {
  conn.eoc_sent = true;
  conn.acks_pending = shards_.size();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardItem eoc;
    eoc.kind = ShardItem::kEoc;
    eoc.origin = conn.origin;
    // EOC items bypass the line budget (try_push never rejects them), so
    // teardown cannot deadlock behind a full queue.
    try_push(s, eoc);
  }
}

void SocketServer::on_conn_eof(Conn& conn) {
  if (conn.eof) return;
  conn.eof = true;
  poller_->remove(conn.fd);
  const ChunkDecoder::Lines tail = conn.decoder.finish();
  route_lines(conn, tail);
  if (conn.parked.empty() && !conn.eoc_sent) send_eoc(conn);
}

void SocketServer::finalize_acked() {
  std::vector<std::uint64_t> acks;
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    acks.swap(acked_origins_);
  }
  for (const std::uint64_t origin : acks) {
    const auto fd_it = origin_fds_.find(origin);
    if (fd_it == origin_fds_.end()) continue;
    const auto it = conns_.find(fd_it->second);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (conn.acks_pending > 0) --conn.acks_pending;
    if (conn.acks_pending > 0) continue;
    // Every shard has released this origin: no response can route here
    // anymore, so the sink entry and the fd can go.
    {
      std::lock_guard<std::mutex> lock(sinks_mu_);
      sinks_.erase(origin);
    }
    ::shutdown(conn.fd, SHUT_RDWR);
    ::close(conn.fd);
    origin_fds_.erase(fd_it);
    conns_.erase(it);
    live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Shard threads
// ---------------------------------------------------------------------------

void SocketServer::shard_loop(std::size_t index) {
  Shard& sh = *shards_[index];
  for (;;) {
    ShardItem item;
    {
      std::unique_lock<std::mutex> lock(sh.mu);
      sh.cv.wait(lock, [&sh] { return sh.stopped || !sh.items.empty(); });
      if (sh.items.empty()) break;  // stopped and drained
      item = std::move(sh.items.front());
      sh.items.pop_front();
      if (item.kind == ShardItem::kLines) {
        sh.queued_lines -= item.count;
        sh.depth.store(sh.queued_lines, std::memory_order_relaxed);
      }
    }
    switch (item.kind) {
      case ShardItem::kLines: {
        const std::string_view blob = item.blob;
        std::size_t start = 0;
        for (std::size_t i = 0; i < item.count; ++i) {
          const std::size_t end = (i + 1 == item.count)
                                      ? blob.size()
                                      : blob.find('\n', start);
          sh.service->ingest_line(blob.substr(start, end - start),
                                  item.origin);
          start = end + 1;
        }
        break;
      }
      case ShardItem::kOversized:
        sh.service->report_oversized(item.count, item.origin);
        break;
      case ShardItem::kEoc: {
        sh.service->release_origin(item.origin);
        {
          std::lock_guard<std::mutex> lock(ack_mu_);
          acked_origins_.push_back(item.origin);
        }
        wake();
        break;
      }
    }
    // Freed queue space: poke the front-end if anyone is parked waiting.
    if (parked_conns_.load(std::memory_order_relaxed) > 0) wake();
  }
}

// ---------------------------------------------------------------------------
// Telemetry and shutdown
// ---------------------------------------------------------------------------

std::vector<ServiceTelemetry> SocketServer::telemetry() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::vector<ServiceTelemetry> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->service) out.push_back(shard->service->telemetry());
  }
  return out;
}

std::vector<ShardGauges> SocketServer::shard_gauges() const {
  // shards_mu_ guards only the vector (held briefly in start/stop); the
  // gauges themselves are atomics, so this never waits on a shard that is
  // wedged mid-send with its service lock held.
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::vector<ShardGauges> out;
  out.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& sh = *shards_[k];
    ShardGauges g;
    g.shard = k;
    g.queue_depth = sh.depth.load(std::memory_order_relaxed);
    g.queue_hwm = sh.hwm.load(std::memory_order_relaxed);
    g.queue_stalls = sh.stalls.load(std::memory_order_relaxed);
    out.push_back(g);
  }
  return out;
}

void SocketServer::stop() { stop_with_timeout(-1.0); }

bool SocketServer::stop_with_timeout(double timeout_s) {
  const bool was_running = running_.exchange(false);
  if (!was_running) return true;
  stop_requested_.store(true);
  wake();

  // Phase 1: wait for the front-end drain — every connection half-closed,
  // its splitter tail routed, its EOC acknowledged by every shard, its fd
  // closed. The front-end exits once conns_ is empty.
  bool clean = true;
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    if (timeout_s >= 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout_s));
      clean = done_cv_.wait_until(lock, deadline,
                                  [this] { return front_done_; });
    } else {
      done_cv_.wait(lock, [this] { return front_done_; });
    }
  }

  if (!clean) {
    // Deadline passed with a wedged drain (a solve stuck past the
    // timeout, or a shard blocked sending to a dead-but-unreset client).
    // Abandon: the front-end exits its loop on the flag; shard threads
    // may be unwakeable, so they are detached and everything they can
    // still touch — services, pool, writer map — is deliberately leaked.
    // The caller is expected to exit the process (lion_served _Exit()s).
    abandon_.store(true);
    wake();
    bool front_exited = false;
    {
      std::unique_lock<std::mutex> lock(done_mu_);
      front_exited = done_cv_.wait_for(lock, std::chrono::milliseconds(500),
                                       [this] { return front_done_; });
    }
    if (front_thread_.joinable()) {
      if (front_exited) {
        front_thread_.join();
      } else {
        front_thread_.detach();
      }
    }
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        shard->stopped = true;
      }
      shard->cv.notify_all();
      if (shard->thread.joinable()) shard->thread.detach();
      [[maybe_unused]] Shard* leaked = shard.release();
    }
    shards_.clear();
    [[maybe_unused]] engine::ThreadPool* leaked_pool = pool_.release();
    return false;
  }

  if (front_thread_.joinable()) front_thread_.join();

  // Phase 2: the queues hold no connection work anymore; stop the shard
  // threads (they drain any remaining snapshot items first) and let the
  // services wind down (drain solves, seal + detach journals).
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        shard->stopped = true;
      }
      shard->cv.notify_all();
    }
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    shards_.clear();
  }
  pool_.reset();
  poller_.reset();
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(sinks_mu_);
    sinks_.clear();
  }
  conns_.clear();
  origin_fds_.clear();
  if (listener_unix_) ::unlink(cfg_.unix_path.c_str());
  return true;
}

}  // namespace lion::serve
