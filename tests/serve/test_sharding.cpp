// Sharded-ingest conformance suite for the epoll front-end
// (serve/server.hpp): routing-hash pins, single-shard byte-identity
// against the stdio oracle, shard-count invariance of per-session
// streams, broadcast exactness, poll()-backend conformance, shard-local
// backpressure, and journaled recovery onto the hashed shard.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace lion {
namespace {

// ---------------------------------------------------------------------
// Socket plumbing
// ---------------------------------------------------------------------

int connect_loopback(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_until_eof(int fd) {
  std::string out;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// Write `input` in `chunk`-byte pieces, half-close, read the full
/// response stream. chunk == 0 writes everything at once.
std::string roundtrip(int port, const std::string& input, std::size_t chunk) {
  const int fd = connect_loopback(port);
  if (chunk == 0) chunk = input.size();
  for (std::size_t off = 0; off < input.size(); off += chunk) {
    EXPECT_TRUE(send_all(fd, input.data() + off,
                         std::min(chunk, input.size() - off)));
  }
  ::shutdown(fd, SHUT_WR);
  const std::string reply = read_until_eof(fd);
  ::close(fd);
  return reply;
}

std::vector<std::string> split_rows(const std::string& bytes) {
  std::vector<std::string> rows;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) rows.push_back(std::move(line));
  }
  return rows;
}

/// Sequence stamps are a per-shard emission order, so they shift with the
/// shard count; the shard-count-invariance contract covers everything
/// else on the line.
std::string normalize_seq(const std::string& line) {
  const std::string key = "\"seq\":";
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return line;
  std::size_t end = pos + key.size();
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) != 0)) {
    ++end;
  }
  return line.substr(0, pos + key.size()) + "#" + line.substr(end);
}

std::string json_string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  return end == std::string::npos ? "" : line.substr(start, end - start);
}

std::uint64_t json_uint_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return static_cast<std::uint64_t>(
      std::atoll(line.c_str() + pos + needle.size()));
}

// ---------------------------------------------------------------------
// Workload builders
// ---------------------------------------------------------------------

/// Synthetic linear scan (same shape as the recovery suite): n rows of
/// x,y,z,phase under an antenna at (0, 0.8, 0).
std::vector<std::string> synthetic_rows(std::size_t n) {
  std::vector<std::string> rows;
  const double wavelength = 0.328;
  const double two_pi = 6.283185307179586;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = -0.6 + 1.2 * static_cast<double>(i) /
                                static_cast<double>(n - 1);
    const double d = std::sqrt(x * x + 0.8 * 0.8);
    const double phase = std::fmod(4.0 * 3.141592653589793 * d / wavelength,
                                   two_pi);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.9g,0,0,%.9g", x, phase);
    rows.emplace_back(buf);
  }
  return rows;
}

/// Smallest numeric suffix whose "<prefix><n>" id lands on `want` of
/// `shards` — so tests can pick ids per shard without replicating the
/// hash inline.
std::string id_on_shard(const std::string& prefix, std::size_t shards,
                        std::size_t want) {
  for (int n = 0; n < 4096; ++n) {
    const std::string id = prefix + std::to_string(n);
    if (serve::shard_hash(id) % shards == want) return id;
  }
  ADD_FAILURE() << "no id found on shard " << want;
  return prefix;
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/lion_sharding_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

void remove_dir_recursive(const std::string& dir) {
  if (::DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

struct TempDir {
  std::string path = make_temp_dir();
  ~TempDir() { remove_dir_recursive(path); }
};

struct ServerGuard {
  serve::SocketServer server;
  explicit ServerGuard(serve::ServerConfig cfg) : server(std::move(cfg)) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
  }
  ~ServerGuard() { server.stop(); }
};

serve::ServerConfig base_config(std::size_t shards) {
  serve::ServerConfig cfg;
  cfg.tcp_port = 0;
  cfg.shards = shards;
  cfg.service.threads = 2;
  return cfg;
}

// ---------------------------------------------------------------------
// Hash pins
// ---------------------------------------------------------------------

// The id -> shard mapping is load-bearing for durability: a journaled
// session must restore onto the shard its id hashes to after a restart,
// across releases. Pin the digest function (FNV-1a 64) to known values
// so any drift fails loudly here rather than silently re-homing
// sessions.
TEST(ShardHash, DigestsArePinned) {
  EXPECT_EQ(serve::shard_hash(""), 14695981039346656037ull);
  EXPECT_EQ(serve::shard_hash("default"), 16982411286042166782ull);
  EXPECT_EQ(serve::shard_hash("alpha"), 9999721509958787115ull);
  EXPECT_EQ(serve::shard_hash("sess-42"), 3844379271265239160ull);
  EXPECT_EQ(serve::shard_hash("replay0"), 12941026952591856550ull);
  EXPECT_EQ(serve::shard_hash("a.b:c_d-e"), 3226026877093428150ull);
}

TEST(ShardHash, IsAPureFunctionOfTheId) {
  // Two calls (as across two process lifetimes) agree, and nearby ids
  // do not collide onto one shard en masse.
  std::size_t spread[4] = {0, 0, 0, 0};
  for (int i = 0; i < 256; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    EXPECT_EQ(serve::shard_hash(id), serve::shard_hash(id));
    ++spread[serve::shard_hash(id) % 4];
  }
  for (const std::size_t count : spread) {
    EXPECT_GT(count, 32u) << "suspiciously skewed shard spread";
  }
}

// ---------------------------------------------------------------------
// Single-shard conformance: the sharded front-end with --shards 1 is
// byte-for-byte the pre-shard server.
// ---------------------------------------------------------------------

std::string oracle_input() {
  const auto rows = synthetic_rows(48);
  std::string in;
  in += "# calibration replay\n";
  in += "!session alpha center=0,0.8,0\n";
  in += "!session beta center=0,0.8,0 mode=track\n";
  in += "!stats\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    in += "@alpha " + rows[i] + "\n";
    if (i % 3 == 0) in += "@beta " + rows[i] + "\n";
    if (i == 10) in += "this is not a csv row\n";
    if (i == 20) in += "!tick 5\n";
    if (i == 30) in += "!bogus control\n";
  }
  in += "!flush alpha\n";
  in += "!tick beta\n";
  in += "!flush beta\n";
  in += "!close alpha\n";
  return in;
}

TEST(Sharding, SingleShardSocketMatchesStdioOracle) {
  const std::string input = oracle_input();
  serve::ServiceConfig scfg;
  scfg.threads = 2;
  std::istringstream in(input);
  std::ostringstream out;
  serve::run_stdio(scfg, in, out);
  const std::string expected = out.str();

  // Fresh server per chunking: session and clock state is server-wide,
  // so each replay must start from zero to compare equal.
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{7},
                                  std::size_t{1024}}) {
    ServerGuard guard(base_config(1));
    const std::string actual =
        roundtrip(guard.server.port(), input, chunk);
    EXPECT_EQ(expected, actual) << "chunk=" << chunk;
  }
}

// The portable poll() backend must be a pure substitution: same bytes,
// different readiness syscall.
TEST(Sharding, PollBackendMatchesStdioOracle) {
  const std::string input = oracle_input();
  serve::ServiceConfig scfg;
  scfg.threads = 2;
  std::istringstream in(input);
  std::ostringstream out;
  serve::run_stdio(scfg, in, out);

  serve::ServerConfig cfg = base_config(1);
  cfg.force_poll = true;
  ServerGuard guard(cfg);
  EXPECT_EQ(guard.server.poller_name(), "poll");
  EXPECT_EQ(out.str(), roundtrip(guard.server.port(), input, 0));
}

// ---------------------------------------------------------------------
// Shard-count invariance: a session's response stream (modulo the
// per-shard seq stamp) does not depend on how many shards the server
// runs.
// ---------------------------------------------------------------------

TEST(Sharding, PerSessionStreamsAreShardCountInvariant) {
  const auto rows = synthetic_rows(40);
  const std::vector<std::string> ids = {"alpha", "beta", "gamma", "delta"};
  std::string input;
  for (const auto& id : ids) {
    input += "!session " + id + " center=0,0.8,0\n";
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& id : ids) input += "@" + id + " " + rows[i] + "\n";
    if (i == 15) input += "!flush beta\n";
    if (i == 25) input += "!tick 3\n";
  }
  for (const auto& id : ids) input += "!flush " + id + "\n";
  input += "!close gamma\n";

  std::map<std::size_t, std::map<std::string, std::vector<std::string>>>
      by_count;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{5}}) {
    ServerGuard guard(base_config(shards));
    const auto lines = split_rows(roundtrip(guard.server.port(), input, 0));
    auto& buckets = by_count[shards];
    for (const auto& line : lines) {
      const std::string session = json_string_field(line, "session");
      if (session.empty()) continue;  // broadcast snapshots have no session
      buckets[session].push_back(normalize_seq(line));
    }
    ASSERT_EQ(buckets.size(), ids.size()) << "shards=" << shards;
  }

  const auto& reference = by_count.at(1);
  for (const auto& [shards, buckets] : by_count) {
    for (const auto& id : ids) {
      ASSERT_TRUE(buckets.count(id)) << "shards=" << shards << " id=" << id;
      EXPECT_EQ(reference.at(id), buckets.at(id))
          << "session '" << id << "' stream drifted at shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------
// Broadcast exactness: snapshot controls answer once per shard; their
// malformed variants answer exactly once (on the mirror shard), never
// once per shard.
// ---------------------------------------------------------------------

TEST(Sharding, BroadcastControlsAnswerOncePerShard) {
  constexpr std::size_t kShards = 3;
  ServerGuard guard(base_config(kShards));
  const std::string input =
      "!session alpha center=0,0.8,0\n"
      "!stats\n"
      "!tick 2\n"
      "!tick nonsense$id\n"  // invalid id AND non-numeric: one usage error
      "!tick 1e someday\n"   // three tokens: one usage error
      "!stats extra\n"       // usage error, must not fan out
      "!flush alpha\n";
  const auto lines = split_rows(roundtrip(guard.server.port(), input, 0));

  std::size_t stats = 0;
  std::size_t ticks = 0;
  std::size_t errors = 0;
  std::vector<bool> shard_seen(kShards, false);
  for (const auto& line : lines) {
    if (line.find("\"schema\":\"lion.stats.v1\"") != std::string::npos) {
      ++stats;
      const std::uint64_t shard = json_uint_field(line, "shard");
      EXPECT_EQ(json_uint_field(line, "shards"), kShards);
      ASSERT_LT(shard, kShards);
      shard_seen[shard] = true;
    } else if (line.find("\"schema\":\"lion.tick.v1\"") != std::string::npos) {
      ++ticks;
    } else if (line.find("\"schema\":\"lion.error.v1\"") !=
               std::string::npos) {
      ++errors;
    }
  }
  EXPECT_EQ(stats, kShards) << "!stats must answer once per shard";
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(shard_seen[s]) << "no stats line from shard " << s;
  }
  // A valid clock advance acks once per shard; every malformed control
  // answers exactly once — S error lines for one bad line would be a
  // routing bug.
  EXPECT_EQ(ticks % kShards, 0u);
  EXPECT_EQ(errors, 3u);
}

// The router broadcasts `!tick <n>` exactly when parse_line reads it as a
// clock advance (kTick); every other argument is answered once, on one
// shard. Both sides call serve::parse_tick_count, and this pins that they
// agree on the spellings strtod treats specially.
TEST(Sharding, RouterBroadcastsExactlyTheTicksTheParserAccepts) {
  constexpr std::size_t kShards = 3;
  for (const char* token :
       {"0", "1", "+1", "1e3", "1.5", "-1", "0x10", "1e16", "nan", ".5"}) {
    SCOPED_TRACE(token);
    const std::string tick = std::string("!tick ") + token;
    const serve::ParsedLine parsed = serve::parse_line(tick);
    ServerGuard guard(base_config(kShards));
    const auto lines =
        split_rows(roundtrip(guard.server.port(), tick + "\n!stats\n", 0));
    std::size_t stats = 0;
    std::size_t errors = 0;
    std::uint64_t min_ticks = UINT64_MAX;
    for (const auto& line : lines) {
      if (line.find("\"schema\":\"lion.stats.v1\"") != std::string::npos) {
        ++stats;
        min_ticks = std::min(min_ticks, json_uint_field(line, "ticks"));
      } else if (line.find("\"schema\":\"lion.error.v1\"") !=
                 std::string::npos) {
        ++errors;
      }
    }
    ASSERT_EQ(stats, kShards);
    if (parsed.kind == serve::ParsedLine::kTick) {
      // Each shard counts the tick line, its n ticks and the !stats line;
      // a shard the tick skipped would show 1.
      EXPECT_EQ(errors, 0u);
      EXPECT_GE(min_ticks, parsed.ticks + 1);
    } else {
      EXPECT_EQ(errors, 1u) << "a rejected tick must answer exactly once";
    }
  }
}

// ---------------------------------------------------------------------
// Backpressure isolation: a connection that stops reading wedges — at
// worst — the shard its traffic routes to. Sessions on other shards keep
// answering.
// ---------------------------------------------------------------------

TEST(Sharding, BackpressureStallsOnlyTheOwningShard) {
  constexpr std::size_t kShards = 2;
  serve::ServerConfig cfg = base_config(kShards);
  cfg.shard_queue_limit = 64;
  cfg.max_connections = 8;
  ServerGuard guard(cfg);

  const std::string hog_id = id_on_shard("hog", kShards, 0);
  const std::string live_id = id_on_shard("live", kShards, 1);

  // The hog floods undeclared-session rows (each one costs shard 0 an
  // error response) and never reads: shard 0's writes block, its queue
  // fills, and the front end parks the hog. A tiny receive buffer makes
  // the wedge almost immediate.
  const int hog = connect_loopback(guard.server.port(), 4096);
  std::atomic<bool> hog_done{false};
  std::thread hog_writer([&] {
    const std::string line = "@" + hog_id + " 0,0,0,1\n";
    std::string burst;
    for (int i = 0; i < 512; ++i) burst += line;
    for (int i = 0; i < 300; ++i) {
      if (!send_all(hog, burst.data(), burst.size())) break;
    }
    hog_done.store(true);
  });

  // Wait until the wedge is observable: shard 0 reports a queue stall.
  // Poll the lock-free gauges — the full telemetry() snapshot takes the
  // shard service's lock, which the wedged shard thread holds while
  // blocked in send (that non-wedgeable read path is the point of
  // shard_gauges(), and this test exercises it under a real wedge).
  bool stalled = false;
  for (int i = 0; i < 600 && !stalled; ++i) {
    for (const auto& g : guard.server.shard_gauges()) {
      if (g.shard == 0 && g.queue_stalls > 0) stalled = true;
    }
    if (!stalled) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(stalled) << "shard 0 never reported backpressure";

  // With shard 0 wedged, a session on shard 1 must still complete. Do
  // NOT wait for server-side EOF here: end-of-connection fans out to
  // every shard, so the close handshake (correctly) queues behind the
  // wedge — but the *responses* must not.
  const auto rows = synthetic_rows(32);
  std::string input = "!session " + live_id + " center=0,0.8,0\n";
  for (const auto& row : rows) input += "@" + live_id + " " + row + "\n";
  input += "!flush " + live_id + "\n";
  const int live = connect_loopback(guard.server.port());
  ASSERT_TRUE(send_all(live, input.data(), input.size()));
  ::shutdown(live, SHUT_WR);
  std::string reply;
  char buf[65536];
  while (reply.find("\"schema\":\"lion.report.v1\"") == std::string::npos) {
    const ssize_t n = ::recv(live, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "shard 1 starved while shard 0 was wedged";
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(live);
  EXPECT_EQ(reply.find("\"schema\":\"lion.error.v1\""), std::string::npos);

  // Only the hog's shard stalled. (The live session's 34 lines fit the
  // 64-line queue bound, so shard 1 never parks.)
  for (const auto& g : guard.server.shard_gauges()) {
    if (g.shard == 1) {
      EXPECT_EQ(g.queue_stalls, 0u);
    }
  }

  // Unwedge: drain the hog's responses so its writer finishes, then
  // half-close and read to EOF. Backpressure parks, it never drops —
  // every flooded row must cost exactly one error line.
  std::size_t hog_lines = 0;
  bool hog_closed = false;
  std::string pending;
  for (;;) {
    // Half-close as soon as the writer is done. Checked on a poll
    // timeout, not only after a successful recv: the final responses can
    // land *before* the writer thread gets to publish hog_done, and a
    // bare blocking recv would then wait forever on a server that is
    // (correctly) waiting for our EOF.
    if (!hog_closed && hog_done.load()) {
      hog_writer.join();
      ::shutdown(hog, SHUT_WR);
      hog_closed = true;
    }
    pollfd pfd{hog, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno == EINTR) continue;
    ASSERT_GE(ready, 0);
    if (ready == 0) continue;
    const ssize_t n = ::recv(hog, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // server EOF after the EOC handshake
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl = pending.find('\n', pos);
         nl != std::string::npos; nl = pending.find('\n', pos)) {
      ++hog_lines;
      pos = nl + 1;
    }
    pending.erase(0, pos);
  }
  if (!hog_closed) hog_writer.join();
  ::close(hog);
  EXPECT_EQ(hog_lines, 512u * 300u)
      << "backpressure must park, never drop flooded lines";
  for (const auto& g : guard.server.shard_gauges()) {
    if (g.shard == 0) {
      EXPECT_GT(g.queue_stalls, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Sharded recovery: a journaled session killed mid-stream restores onto
// the shard its id hashes to, and the resumed socket stream is
// byte-identical to an uninterrupted single-service run.
// ---------------------------------------------------------------------

/// Uninterrupted single-service reference (the recovery-suite contract).
std::vector<std::string> run_plain(const std::vector<std::string>& input) {
  std::vector<std::string> lines;
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  serve::StreamService service(
      cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
  for (const auto& l : input) service.ingest_line(l);
  service.finish();
  return lines;
}

bool is_oob(const std::string& line) {
  return line.rfind("{\"schema\":\"lion.restore.v1\"", 0) == 0 ||
         line.rfind("{\"schema\":\"lion.health.v1\"", 0) == 0;
}

struct Lcg {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

TEST(Sharding, JournaledSessionRestoresOntoHashedShardByteIdentical) {
  constexpr std::size_t kShards = 3;
  const std::string id = "crashy-7";
  const std::size_t home = serve::shard_hash(id) % kShards;

  // declare + rows with periodic flushes: every line journals one record,
  // so a stream cut at k resumes at input index == ack records.
  const auto rows = synthetic_rows(36);
  std::vector<std::string> input;
  input.push_back("!session " + id + " center=0,0.8,0");
  std::size_t since = 0;
  for (const auto& row : rows) {
    input.push_back("@" + id + " " + row);
    if (++since == 9) {
      input.push_back("!flush " + id);
      since = 0;
    }
  }
  input.push_back("!flush " + id);
  const auto baseline = run_plain(input);

  Lcg rng;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t cut = 1 + rng.next() % (input.size() - 1);
    TempDir dir;

    // Phase 1: journaled single service, killed (destroyed) after `cut`
    // lines — the in-process SIGKILL analogue the recovery suite uses.
    std::vector<std::string> prefix_lines;
    {
      serve::JournalStoreConfig jcfg;
      jcfg.dir = dir.path;
      jcfg.fsync_every = 8;
      serve::JournalStore store(jcfg);
      ASSERT_TRUE(store.ok()) << store.error();
      serve::ServiceConfig scfg;
      scfg.threads = 2;
      scfg.journal = &store;
      {
        serve::StreamService service(scfg, [&prefix_lines](
                                               std::string_view line) {
          prefix_lines.emplace_back(line);
        });
        for (std::size_t i = 0; i < cut; ++i) service.ingest_line(input[i]);
        service.drain();
      }  // crash: service destroyed without close
    }

    // Phase 2: restart as a *sharded* socket server over the same
    // journal directory; the re-declare must land on — and restore on —
    // the id's hashed shard.
    serve::JournalStoreConfig jcfg;
    jcfg.dir = dir.path;
    jcfg.fsync_every = 8;
    serve::JournalStore store(jcfg);
    ASSERT_TRUE(store.ok()) << store.error();
    ASSERT_GE(store.recovered_at_start(), 1u) << "cut=" << cut;
    serve::ServerConfig cfg = base_config(kShards);
    cfg.service.journal = &store;
    ServerGuard guard(cfg);

    // Re-declare alone first: the restore ack carries the resume cursor.
    const int fd = connect_loopback(guard.server.port());
    const std::string declare = input[0] + "\n";
    ASSERT_TRUE(send_all(fd, declare.data(), declare.size()));
    std::string ack;
    {
      std::string buf;
      char c;
      while (ack.empty()) {
        const ssize_t n = ::recv(fd, &c, 1, 0);
        ASSERT_GT(n, 0) << "connection died before the restore ack";
        if (c != '\n') {
          buf.push_back(c);
          continue;
        }
        if (buf.rfind("{\"schema\":\"lion.restore.v1\"", 0) == 0) {
          ack = buf;
        } else {
          ADD_FAILURE() << "unexpected pre-ack line at cut=" << cut << ": "
                        << buf;
        }
        buf.clear();
      }
    }
    const std::uint64_t records = json_uint_field(ack, "records");
    ASSERT_GE(records, 1u);
    ASSERT_LE(records, cut);

    // Continue from the cursor, then a placement probe.
    std::string rest;
    for (std::size_t i = records; i < input.size(); ++i) {
      rest += input[i] + "\n";
    }
    rest += "!stats\n";
    ASSERT_TRUE(send_all(fd, rest.data(), rest.size()));
    ::shutdown(fd, SHUT_WR);
    const auto reply = split_rows(read_until_eof(fd));
    ::close(fd);

    // Placement: exactly the hashed shard holds the restored session.
    std::vector<std::string> suffix;
    for (const auto& line : reply) {
      if (line.find("\"schema\":\"lion.stats.v1\"") != std::string::npos) {
        const std::uint64_t shard = json_uint_field(line, "shard");
        const std::uint64_t sessions = json_uint_field(line, "sessions");
        EXPECT_EQ(sessions, shard == home ? 1u : 0u)
            << "cut=" << cut << ": session restored off its hashed shard";
        continue;
      }
      if (!is_oob(line)) suffix.push_back(line);
    }

    // Byte identity: prefix (pre-crash) + suffix (socket resume) is the
    // uninterrupted stream. The resumed declare line re-runs, so the
    // suffix continues exactly where the prefix stopped.
    std::vector<std::string> combined;
    for (const auto& line : prefix_lines) {
      if (!is_oob(line)) combined.push_back(line);
    }
    combined.insert(combined.end(), suffix.begin(), suffix.end());
    ASSERT_EQ(baseline, combined) << "resumed stream drifted at cut=" << cut;
  }
}

}  // namespace
}  // namespace lion
