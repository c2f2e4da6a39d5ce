#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace lionbench {

Daemon::~Daemon() { stop(); }

bool Daemon::start(const std::string& binary, std::vector<std::string> args,
                   const std::string& port_file, const std::string& log_path) {
  ::unlink(port_file.c_str());
  args.insert(args.begin(), binary);
  args.push_back("--port-file");
  args.push_back(port_file);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  pid_ = pid;

  const auto start = Clock::now();
  while (seconds_since(start) < 30.0) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = port;
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  return false;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const auto start = Clock::now();
  int status = 0;
  bool exited = false;
  while (seconds_since(start) < 20.0) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || r < 0) {
      exited = r == pid_;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Conn::~Conn() { close(); }

bool Conn::connect_to(int port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_.clear();
  out_off_ = 0;
  in_.clear();
}

void Conn::send(std::string_view bytes) {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  out_.append(bytes);
  pump_out();
}

bool Conn::pump_out() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Conn::pump_in(const std::function<void(std::string_view)>& on_line) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      // Acknowledge at once: a delayed ACK would hold back the server's
      // next small reply (one barrier answer per shard) for ~40 ms.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      in_.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = in_.find('\n', start);
        if (nl == std::string::npos) break;
        on_line(std::string_view(in_).substr(start, nl - start));
        start = nl + 1;
      }
      in_.erase(0, start);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool pump_until(std::vector<Conn*> conns,
                const std::function<void(std::size_t, std::string_view)>&
                    on_line,
                const std::function<bool()>& done, double timeout_s) {
  const auto start = Clock::now();
  std::vector<pollfd> fds(conns.size());
  while (!done()) {
    const double left = timeout_s - seconds_since(start);
    if (left <= 0.0) return false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->open() ? conns[i]->fd() : -1;
      fds[i].events =
          static_cast<short>(POLLIN | (conns[i]->want_write() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int ms = static_cast<int>(std::min(left * 1e3, 50.0)) + 1;
    if (::poll(fds.data(), fds.size(), ms) < 0 && errno != EINTR) return false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].fd < 0) continue;
      if (fds[i].revents & POLLOUT) conns[i]->pump_out();
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!conns[i]->pump_in(
                [&](std::string_view line) { on_line(i, line); })) {
          conns[i]->close();
        }
      }
    }
  }
  return true;
}

std::string json_field(std::string_view line, std::string_view key) {
  std::string pat(1, '"');
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t i = at + pat.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string_view::npos) return {};
    return std::string(line.substr(i + 1, end - i - 1));
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  return std::string(line.substr(i, end - i));
}

}  // namespace lionbench
