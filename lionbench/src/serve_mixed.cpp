// serve_mixed: an open loop at frozen rates against one lion_served shard.
//
// Calibrate sessions stream a seeded scan and `!flush` in two classes,
// keyed by input: `solve` (the buffer changed since the last answer: the
// first flush, or a flush right after a small append) and `repeat` (no new
// rows since the session's last solve, like a dashboard polling). Track
// sessions stream conveyor reads and send `!tick <id>`. Every request is
// timed from the moment it was due, so a stall also charges the requests
// queued behind it.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "io/report_json.hpp"
#include "net.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace lionbench {

using namespace lion;

namespace {

// Frozen workload constants (see lionbench/benchmark_record.json).
struct MixedShape {
  double solve_rate = 15.0;    ///< solve-class flushes per second
  double repeat_rate = 100.0;  ///< repeat-class flushes per second
  double tick_rate = 100.0;    ///< track `!tick`s per second
  std::size_t stride = 4;      ///< scan decimation (about 1.1k reads)
  std::size_t append_rows = 8; ///< reads appended before a re-solve
  std::size_t track_sessions = 2;
  std::size_t track_prefill = 1000;
  std::size_t rows_per_tick = 2;
  double repeat_settle_s = 1.0;  ///< repeats target sessions this settled
  std::size_t connections = 4;
  std::size_t verify_every = 8;  ///< verify every 8th solve flush
};

constexpr std::size_t kFlushesPerSession = 3;  // first + two appends
/// The schedule runs this long before the measured --seconds; requests
/// due in it are checked but not timed.
constexpr double kWarmupS = 2.0;
constexpr double kDrainTimeoutS = 60.0;
constexpr double kLagLimitMs = 20.0;  ///< generator lag p99 validity bound

MixedShape shape_for(Size size) {
  MixedShape s;
  if (size == Size::kTiny) {
    s.solve_rate = 3.0;
    s.repeat_rate = 10.0;
    s.tick_rate = 10.0;
    s.track_prefill = 200;
    s.repeat_settle_s = 0.5;
    s.verify_every = 1;
  }
  return s;
}

struct Event {
  double due = 0.0;
  std::size_t conn = 0;
  std::string bytes;
  LineClass cls = LineClass::kData;  ///< kData: no response expected
  std::size_t session = 0;           ///< calibrate session / track index
  std::size_t rows = 0;              ///< calibrate rows buffered at flush
};

struct CalSession {
  std::string id;
  std::string declare;
  Unit unit;
  std::vector<double> solve_times;  ///< scheduled solve flushes
};

std::string cal_id(std::size_t s) { return "cal" + std::to_string(s); }

/// Parse `"estimated_center":[x,y,z]` from a report line.
bool parse_center(std::string_view line, Vec3& out) {
  const std::string key = "\"estimated_center\":[";
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const std::string rest(line.substr(at + key.size(), 96));
  return std::sscanf(rest.c_str(), "%lf,%lf,%lf", &out[0], &out[1],
                     &out[2]) == 3;
}

/// The `"report":{...}` body of a lion.report.v1 line.
std::string report_body(std::string_view line) {
  const std::string key = "\"report\":";
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos || line.empty()) return {};
  return std::string(line.substr(at + key.size(),
                                 line.size() - at - key.size() - 1));
}

std::uint64_t cpu_ticks(int pid) {
  std::FILE* f =
      std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return 0;
  char buf[1024] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  const std::string s(buf, n);
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0;
  unsigned long long utime = 0, stime = 0;
  // Fields after the comm: state(3) ... utime(14) stime(15).
  const char* p = s.c_str() + rp + 2;
  int field = 3;
  while (*p != '\0' && field < 14) {
    if (*p == ' ') ++field;
    ++p;
  }
  std::sscanf(p, "%llu %llu", &utime, &stime);
  return utime + stime;
}

}  // namespace

WorkloadRun run_serve_mixed(const Options& opt) {
  const MixedShape shape = shape_for(opt.size);
  WorkloadRun run;
  Results& res = run.results;
  res.set_strict(opt.size == Size::kFull);
  const double warmup = opt.size == Size::kTiny ? 0.0 : kWarmupS;
  const double horizon = warmup + opt.seconds;

  // ---- schedule (pure function of seed and shape) ------------------------
  const auto solve_events =
      static_cast<std::size_t>(std::floor(horizon * shape.solve_rate));
  const std::size_t sessions = solve_events / kFlushesPerSession + 1;
  const std::size_t ticks =
      static_cast<std::size_t>(std::floor(horizon * shape.tick_rate));
  const std::size_t track_rows =
      shape.track_prefill +
      (ticks / shape.track_sessions + 1) * shape.rows_per_tick;

  std::vector<CalSession> cal;
  std::vector<TrackStream> tracks;
  std::vector<Event> events;
  std::vector<double> setups;
  Daemon daemon;
  std::vector<Conn> conns(shape.connections);
  const std::string port_file = opt.scratch + "/mixed.port";
  const std::string log_file = opt.scratch + "/mixed.log";

  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    daemon.stop();
    for (auto& c : conns) c.close();
    cal.assign(sessions, CalSession{});
    for (std::size_t s = 0; s < sessions; ++s) {
      cal[s].id = cal_id(s);
      cal[s].unit = make_unit(opt.seed, s, shape.stride, true);
      // Even sessions declare smoothing=1 (the configuration the warm
      // flush tier serves); odd ones keep the library default.
      cal[s].declare = "!session " + cal[s].id + " center=0,0.8,0" +
                       (s % 2 == 0 ? " smoothing=1" : "");
    }
    tracks.clear();
    for (std::size_t k = 0; k < shape.track_sessions; ++k) {
      tracks.push_back(make_track(opt.seed, k, track_rows));
    }

    events.clear();
    // Solve-class flushes: event k is session s's (k % 3)-th solve; the
    // appends trail the session's first flush by 4 and 8 events so its
    // previous solve has normally been answered.
    for (std::size_t k = 0; k < solve_events; ++k) {
      const std::size_t phase = k % kFlushesPerSession;
      const auto s_signed = static_cast<long>(k / kFlushesPerSession) -
                            4 * static_cast<long>(phase);
      if (s_signed < 0) continue;
      const auto s = static_cast<std::size_t>(s_signed);
      CalSession& cs = cal[s];
      const std::size_t n = cs.unit.rows.size();
      const std::size_t first = n - 2 * shape.append_rows;
      Event e;
      e.due = (static_cast<double>(k) + 0.5) / shape.solve_rate;
      e.conn = s % shape.connections;
      e.cls = LineClass::kSolveFlush;
      e.session = s;
      std::size_t lo = 0, hi = first;
      if (phase == 0) {
        e.bytes = cs.declare + "\n";
      } else {
        lo = first + (phase - 1) * shape.append_rows;
        hi = lo + shape.append_rows;
      }
      for (std::size_t r = lo; r < hi; ++r) {
        e.bytes += "@" + cs.id + " " + cs.unit.rows[r] + "\n";
      }
      e.bytes += "!flush " + cs.id + "\n";
      e.rows = hi;
      cs.solve_times.push_back(e.due);
      events.push_back(std::move(e));
    }
    // Repeat-class flushes: a session whose last solve was scheduled at
    // least repeat_settle_s ago and that got no rows since.
    std::mt19937_64 rng(mix(opt.seed * 31ULL + 7));
    const auto repeats =
        static_cast<std::size_t>(std::floor(horizon * shape.repeat_rate));
    for (std::size_t j = 0; j < repeats; ++j) {
      const double due = (static_cast<double>(j) + 0.5) / shape.repeat_rate;
      std::vector<std::size_t> eligible;
      for (std::size_t s = 0; s < sessions; ++s) {
        double last = -1.0;
        for (double t : cal[s].solve_times) {
          if (t <= due) last = t;
        }
        if (last >= 0.0 && last <= due - shape.repeat_settle_s) {
          eligible.push_back(s);
        }
      }
      if (eligible.empty()) continue;
      const std::size_t s = eligible[rng() % eligible.size()];
      Event e;
      e.due = due;
      e.conn = s % shape.connections;
      e.cls = LineClass::kRepeatFlush;
      e.session = s;
      e.bytes = "!flush " + cal[s].id + "\n";
      events.push_back(std::move(e));
    }
    // Track ticks, alternating sessions; each brings fresh belt reads.
    std::vector<std::size_t> track_next(shape.track_sessions,
                                        shape.track_prefill);
    for (std::size_t j = 0; j < ticks; ++j) {
      const std::size_t k = j % shape.track_sessions;
      Event e;
      e.due = (static_cast<double>(j) + 0.5) / shape.tick_rate;
      e.conn = k % shape.connections;
      e.cls = LineClass::kTick;
      e.session = k;
      for (std::size_t r = 0; r < shape.rows_per_tick; ++r) {
        e.bytes += tracks[k].rows[track_next[k]++] + "\n";
      }
      e.bytes += "!tick " + tracks[k].id + "\n";
      events.push_back(std::move(e));
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.due < b.due;
                     });

    // Daemon start, connect, and track prefill (answered by one tick each).
    if (!daemon.start(opt.served,
                      {"--tcp", "0", "--shards", "1", "--threads", "2"},
                      port_file, log_file)) {
      res.check(false, "lion_served started");
      return run;
    }
    bool connected = true;
    for (auto& c : conns) connected = connected && c.connect_to(daemon.port());
    std::size_t warm_ticks = 0;
    for (std::size_t k = 0; k < tracks.size() && connected; ++k) {
      std::string b = tracks[k].declare + "\n";
      for (std::size_t r = 0; r < shape.track_prefill; ++r) {
        b += tracks[k].rows[r] + "\n";
      }
      b += "!tick " + tracks[k].id + "\n";
      conns[k % conns.size()].send(b);
    }
    std::vector<Conn*> ptrs;
    for (auto& c : conns) ptrs.push_back(&c);
    const bool warmed =
        connected &&
        pump_until(
            ptrs,
            [&](std::size_t, std::string_view line) {
              if (json_field(line, "schema") == "lion.tick.v1") ++warm_ticks;
            },
            [&] { return warm_ticks == tracks.size(); }, 60.0);
    if (!warmed) {
      res.check(false, "serve_mixed set-up: connect and track warm-up");
      return run;
    }
    setups.push_back(seconds_since(t0));
  }

  // ---- open loop ----------------------------------------------------------
  // Per connection, the events still owed an answer, in send order.
  std::vector<std::deque<std::size_t>> fifo(conns.size());
  std::vector<char> answered(events.size(), 0);
  std::vector<std::string> bodies(events.size());
  std::vector<std::string> sources(events.size());
  std::vector<double> latency_ms(events.size(), 0.0);
  Dist lag_ms, solve_ms, repeat_ms, tick_ms, error_mm;
  std::size_t errors = 0, unexpected = 0, mismatched = 0, bad_status = 0;
  std::size_t to_drop = opt.drop_responses;
  std::size_t expected = 0;
  for (const auto& e : events) expected += e.cls != LineClass::kData ? 1 : 0;

  const std::uint64_t cpu0 = cpu_ticks(daemon.pid());
  const auto t0 = Clock::now();
  const auto on_line = [&](std::size_t c, std::string_view line) {
    const double now = seconds_since(t0);
    const std::string schema = json_field(line, "schema");
    if (schema == "lion.error.v1") {
      ++errors;
      return;
    }
    if (fifo[c].empty()) {
      ++unexpected;
      return;
    }
    const std::size_t idx = fifo[c].front();
    fifo[c].pop_front();
    const Event& e = events[idx];
    const bool want_tick = e.cls == LineClass::kTick;
    if (schema != (want_tick ? "lion.tick.v1" : "lion.report.v1")) {
      ++mismatched;
      return;
    }
    if (to_drop > 0) {  // fault injection: treat as never answered
      --to_drop;
      return;
    }
    answered[idx] = 1;
    latency_ms[idx] = (now - e.due) * 1e3;
    sources[idx] = json_field(line, "source");
    if (!want_tick) {
      if (json_field(line, "status") != "ok") ++bad_status;
      if (e.cls == LineClass::kSolveFlush) bodies[idx] = report_body(line);
    }
  };

  std::vector<pollfd> fds(conns.size());
  std::size_t next = 0;
  for (;;) {
    double now = seconds_since(t0);
    while (next < events.size() && events[next].due <= now) {
      const Event& e = events[next];
      lag_ms.add((now - e.due) * 1e3);
      conns[e.conn].send(e.bytes);
      if (e.cls != LineClass::kData) {
        fifo[e.conn].push_back(next);
      }
      ++next;
      now = seconds_since(t0);
    }
    std::size_t pending = 0;
    for (const auto& f : fifo) pending += f.size();
    if (next == events.size() && pending == 0) break;
    if (now > horizon + kDrainTimeoutS) break;
    const double wait =
        next < events.size() ? std::max(0.0, events[next].due - now) : 0.05;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].open() ? conns[i].fd() : -1;
      fds[i].events =
          static_cast<short>(POLLIN | (conns[i].want_write() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].fd < 0) continue;
      if (fds[i].revents & POLLOUT) conns[i].pump_out();
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!conns[i].pump_in(
                [&](std::string_view l) { on_line(i, l); })) {
          conns[i].close();
        }
      }
    }
  }
  const double cpu_s = static_cast<double>(cpu_ticks(daemon.pid()) - cpu0) /
                       static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double loop_s = seconds_since(t0);

  // ---- ops-plane snapshot -------------------------------------------------
  double reorder_hwm = -1.0;
  if (conns[0].open()) {
    conns[0].send("!healthz\n");
    std::vector<Conn*> first{&conns[0]};
    pump_until(
        first,
        [&](std::size_t, std::string_view line) {
          const std::string schema = json_field(line, "schema");
          if (schema == "lion.health.v1") {
            reorder_hwm = std::strtod(
                json_field(line, "reorder_depth_hwm").c_str(), nullptr);
          } else if (schema == "lion.error.v1") {
            ++errors;
          }
        },
        [&] { return reorder_hwm >= 0.0; }, 30.0);
  }
  const double rss = peak_rss_mb(daemon.pid());
  for (auto& c : conns) c.close();
  const bool clean_exit = daemon.stop();

  // ---- classify, verify ---------------------------------------------------
  std::size_t unanswered = 0, verified = 0, verify_fail = 0;
  std::size_t measured = 0;
  double last_answer = warmup;
  std::size_t solve_seen = 0;
  std::map<std::string, std::map<std::string, double>> source_counts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.cls == LineClass::kData) continue;
    if (!answered[i]) {
      ++unanswered;
      continue;
    }
    const char* cls = e.cls == LineClass::kSolveFlush    ? "solve"
                      : e.cls == LineClass::kRepeatFlush ? "repeat"
                                                         : "tick";
    source_counts[cls][sources[i]] += 1.0;
    if (e.due < warmup) continue;
    ++measured;
    last_answer = std::max(last_answer, e.due + latency_ms[i] * 1e-3);
    if (e.cls == LineClass::kTick) {
      tick_ms.add(latency_ms[i]);
      if (sources[i] == "incremental") run.inline_client_ms.add(latency_ms[i]);
      continue;
    }
    if (e.cls == LineClass::kRepeatFlush) {
      repeat_ms.add(latency_ms[i]);
      if (sources[i] != "fallback") run.inline_client_ms.add(latency_ms[i]);
      continue;
    }
    solve_ms.add(latency_ms[i]);
    const CalSession& cs = cal[e.session];
    Vec3 center{};
    if (parse_center(bodies[i], center)) {
      error_mm.add(linalg::distance(center, cs.unit.truth) * 1e3);
    }
    if (solve_seen++ % shape.verify_every != 0) continue;
    // The determinism contract: a flush answers exactly what the batch
    // pipeline computes on the same rows with the session's config.
    serve::SessionConfig config;
    std::string err;
    const auto parsed = serve::parse_line(cs.declare);
    if (!serve::make_session_config(parsed, config, err)) {
      ++verify_fail;
      continue;
    }
    const auto samples = parse_rows(cs.unit.rows, e.rows);
    const auto report = core::calibrate_antenna_robust(samples, config.center,
                                                       config.calibration);
    ++verified;
    if (io::report_json(report) != bodies[i]) ++verify_fail;
  }

  const double lag_p99 = lag_ms.pct(99);
  // A mismatched answer leaves its request unanswered, so it is counted
  // there.
  const std::size_t failed = unanswered + errors + unexpected + bad_status;
  res.count(expected, failed);
  res.check(unanswered == 0 && mismatched == 0 && unexpected == 0,
            "every flush got one lion.report.v1 and every tick one "
            "lion.tick.v1 (" +
                std::to_string(unanswered) + " unanswered, " +
                std::to_string(mismatched) + " mismatched, " +
                std::to_string(unexpected) + " unexpected)");
  res.check(errors == 0, "serve_mixed got no lion.error.v1 (" +
                             std::to_string(errors) + ")");
  res.check(bad_status == 0, "every report has status ok");
  res.check(verified > 0 && verify_fail == 0,
            "sampled solve flushes equal io::report_json("
            "calibrate_antenna_robust(...)) (" +
                std::to_string(verify_fail) + " of " +
                std::to_string(verified) + " differ)");
  res.check(lag_p99 <= kLagLimitMs,
            "open-loop generator on schedule (lag p99 " +
                std::to_string(lag_p99) + " ms > " +
                std::to_string(kLagLimitMs) + " ms: run invalid)");
  res.check(error_mm.size() == 0 || error_mm.pct(90) <= kCenterErrorGateMm,
            "center_error_mm_p90 within the 20 mm accuracy gate");
  res.check(clean_exit, "lion_served exited cleanly");

  res.add("setup_s", median(setups), "s", "median of 3 set-ups");
  res.add("failed_share",
          static_cast<double>(failed) / static_cast<double>(expected),
          "share");
  res.add("peak_rss_mb", rss, "MB", "VmHWM of lion_served");
  res.add_pct("center_error_mm_p50", error_mm, 50, "mm");
  res.add_pct("center_error_mm_p90", error_mm, 90, "mm");
  res.add_pct("flush_solve_p50_ms", solve_ms, 50, "ms");
  res.add_pct("flush_solve_p90_ms", solve_ms, 90, "ms");
  res.add_pct("flush_repeat_p50_ms", repeat_ms, 50, "ms");
  res.add_pct("flush_repeat_p99_ms", repeat_ms, 99, "ms");
  res.add_pct("tick_p50_ms", tick_ms, 50, "ms");
  res.add_pct("tick_p99_ms", tick_ms, 99, "ms");
  res.add("bench.generator_lag_ms_p99", lag_p99, "ms",
          "open-loop send lateness");
  res.add("serve.cpu_busy_share",
          cpu_s / (loop_s * 2.0), "share",
          "lion_served CPU / (2 threads x wall), context");
  res.add("throughput_per_s",
          static_cast<double>(measured) /
              std::max(last_answer - warmup, 1e-9),
          "1/s", "answered flushes+ticks per second, to the last answer");
  res.add_pct("latency_p50_ms", solve_ms, 50, "ms");
  res.add_pct("latency_p90_ms", solve_ms, 90, "ms");

  for (const auto& [cls, counts] : source_counts) {
    double total = 0.0;
    for (const auto& [src, n] : counts) total += n;
    const bool tick = cls == "tick";
    for (const char* src : {"memo", "incremental", "fallback"}) {
      if (tick && std::string(src) == "memo") continue;
      const auto it = counts.find(src);
      const std::string name =
          tick ? "serve.tick_source_share." + std::string(src)
               : "serve.cal_source_share." + std::string(src) + "." + cls;
      run.serve_layer[name] = {it == counts.end() ? 0.0 : it->second / total,
                               "share"};
    }
  }
  run.serve_layer["serve.reorder_depth_hwm"] = {reorder_hwm, "count"};
  run.serve_layer["bench.generator_lag_ms_p99"] = {lag_p99, "ms"};

  // ---- inputs for the traced replay ---------------------------------------
  for (std::size_t i = 0; i < events.size() && run.calibrations.size() < 100;
       ++i) {
    const Event& e = events[i];
    if (e.cls != LineClass::kSolveFlush) continue;
    serve::SessionConfig config;
    std::string err;
    serve::make_session_config(serve::parse_line(cal[e.session].declare),
                               config, err);
    run.calibrations.push_back(
        CalInput{i, parse_rows(cal[e.session].unit.rows, e.rows),
                 config.center, config.calibration});
  }
  for (const TrackStream& t : tracks) {
    run.wire_lines.push_back(t.declare);
    run.mixed_lines.push_back(t.declare);
    run.mixed_classes.push_back(LineClass::kData);
    for (std::size_t r = 0; r < shape.track_prefill; ++r) {
      run.wire_lines.push_back(t.rows[r]);
      run.mixed_lines.push_back(t.rows[r]);
      run.mixed_classes.push_back(LineClass::kData);
    }
  }
  std::size_t solves_in_prefix = 0;
  for (const Event& e : events) {
    if (e.cls == LineClass::kSolveFlush && ++solves_in_prefix > 60) break;
    std::size_t start = 0;
    while (start < e.bytes.size()) {
      const std::size_t nl = e.bytes.find('\n', start);
      const std::string line = e.bytes.substr(start, nl - start);
      start = nl + 1;
      LineClass cls = LineClass::kData;
      if (line.rfind("!flush", 0) == 0 || line.rfind("!tick", 0) == 0) {
        cls = e.cls;
      } else {
        run.wire_lines.push_back(line);
      }
      run.mixed_lines.push_back(line);
      run.mixed_classes.push_back(cls);
    }
  }
  return run;
}

}  // namespace lionbench
