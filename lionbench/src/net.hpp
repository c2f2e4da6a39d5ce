// Loopback TCP plumbing for the serve workloads: a child lion_served
// process and non-blocking client connections driven by one thread.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace lionbench {

/// A lion_served child process. The destructor stops it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn `binary args...`, its output going to `log_path`, and wait
  /// (up to 30 s) for the port it announces through --port-file.
  bool start(const std::string& binary, std::vector<std::string> args,
             const std::string& port_file, const std::string& log_path);
  /// SIGTERM, wait up to 20 s, then SIGKILL; always reaps the child.
  /// Returns true when the daemon exited cleanly on its own.
  bool stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One non-blocking client connection with an outgoing byte queue and a
/// line splitter on the incoming side.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect_to(int port);
  void close();
  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }

  /// Queue bytes and push as many as the socket accepts right now.
  void send(std::string_view bytes);
  /// Push queued bytes; false on a socket error.
  bool pump_out();
  bool want_write() const { return out_off_ < out_.size(); }
  /// Read what is available; calls `on_line` per complete line. False on
  /// EOF or error.
  bool pump_in(const std::function<void(std::string_view)>& on_line);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

/// Blocking helper: poll the given connections until `done()` or the
/// deadline (seconds from now) passes. Returns done().
bool pump_until(std::vector<Conn*> conns,
                const std::function<void(std::size_t, std::string_view)>&
                    on_line,
                const std::function<bool()>& done, double timeout_s);

/// Value of `"key":` in a flat JSON line as text (number, or string
/// without quotes); empty when absent.
std::string json_field(std::string_view line, std::string_view key);

}  // namespace lionbench
