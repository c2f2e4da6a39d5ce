// serve_ingest: a closed loop saturating a journaled two-shard lion_served
// with interleaved `@id` CSV reads and no flushes.
//
// Four connections move in lock-step rounds. A connection's cycle declares
// its 16 calibrate sessions and streams their scans row-interleaved in four
// chunks; each chunk ends with a `!stats` barrier, and a round ends when
// every connection has every shard's answer (the round time is the ingest
// latency). After the fourth chunk the connections drop, which releases
// the sessions' buffers, so memory stays bounded; the benchmark deletes the
// finished cycle's journals and the next cycle starts on new connections.
// A final `!stats` confirms that every read sent was accepted.

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "net.hpp"
#include "workloads.hpp"

namespace lionbench {

namespace {

// Frozen workload constants (see lionbench/benchmark_record.json).
struct IngestShape {
  std::size_t connections = 4;
  std::size_t sessions_per_conn = 16;  ///< 64 sessions in flight
  std::size_t unit_pool = 128;         ///< scans rotated through cycles
  std::size_t stride = 5;              ///< about 900 reads per session
  std::size_t chunks = 4;              ///< barriers per cycle
  std::size_t shards = 2;
};

constexpr int kCycleDigits = 6;
constexpr double kBarrierTimeoutS = 60.0;

IngestShape shape_for(Size size) {
  IngestShape s;
  if (size == Size::kTiny) {
    s.sessions_per_conn = 2;
    s.unit_pool = 16;
    s.stride = 30;
  }
  return s;
}

std::string cycle_digits(std::size_t cycle) {
  char digits[kCycleDigits + 1];
  std::snprintf(digits, sizeof digits, "%0*zu", kCycleDigits,
                cycle % 1000000);
  return digits;
}

/// One connection's cycle, split into barrier-terminated chunks, with the
/// cycle number patched into every session id in place (ids are
/// `c<conn>n<cycle>u<k>`).
struct Template {
  std::vector<std::string> chunks;
  std::vector<std::vector<std::size_t>> digit_offsets;  ///< per chunk
  std::vector<std::size_t> chunk_reads;
  std::vector<std::string> ids;

  void set_cycle(std::size_t cycle) {
    const std::string digits = cycle_digits(cycle);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      for (std::size_t off : digit_offsets[c]) {
        chunks[c].replace(off, kCycleDigits, digits);
      }
    }
  }
  std::string id_for(std::size_t k, std::size_t cycle) const {
    std::string id = ids[k];
    id.replace(id.find('n') + 1, kCycleDigits, cycle_digits(cycle));
    return id;
  }
};

Template make_template(std::size_t conn, const std::vector<const Unit*>& units,
                       std::size_t chunks) {
  Template t;
  std::vector<const std::vector<std::string>*> rows;
  for (std::size_t k = 0; k < units.size(); ++k) {
    char id[64];
    std::snprintf(id, sizeof id, "c%zun%0*du%02zu", conn, kCycleDigits, 0, k);
    t.ids.emplace_back(id);
    rows.push_back(&units[k]->rows);
  }
  const auto lines = interleave_sessions(t.ids, rows, "");
  const std::size_t declares = t.ids.size();
  const std::size_t data = lines.size() - declares;
  t.chunks.assign(chunks, "");
  t.digit_offsets.assign(chunks, {});
  t.chunk_reads.assign(chunks, 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t c =
        i < declares ? 0 : (i - declares) * chunks / std::max<std::size_t>(1, data);
    const std::string& line = lines[i];
    // The id follows "!session " or "@"; its cycle digits follow the 'n'.
    const std::size_t id_at = line[0] == '@' ? 1 : 9;
    t.digit_offsets[c].push_back(t.chunks[c].size() + line.find('n', id_at) +
                                 1);
    t.chunks[c] += line;
    t.chunks[c] += '\n';
    if (i >= declares) ++t.chunk_reads[c];
  }
  for (auto& chunk : t.chunks) chunk += "!stats\n";
  return t;
}

}  // namespace

WorkloadRun run_serve_ingest(const Options& opt) {
  const IngestShape shape = shape_for(opt.size);
  WorkloadRun run;
  Results& res = run.results;
  res.set_strict(opt.size == Size::kFull);

  std::vector<Unit> pool;
  // templates[conn * 2 + rotation]: rotation alternates the unit half.
  std::vector<Template> templates;
  std::vector<double> setups;
  Daemon daemon;
  std::vector<Conn> conns(shape.connections);
  const std::string journal_dir = opt.scratch + "/ingest-journal";
  const std::string port_file = opt.scratch + "/ingest.port";
  const std::string log_file = opt.scratch + "/ingest.log";

  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    daemon.stop();
    for (auto& c : conns) c.close();
    pool.clear();
    for (std::size_t i = 0; i < shape.unit_pool; ++i) {
      pool.push_back(make_unit(opt.seed, i, shape.stride, true));
    }
    templates.clear();
    for (std::size_t c = 0; c < shape.connections; ++c) {
      for (std::size_t rot = 0; rot < 2; ++rot) {
        std::vector<const Unit*> units;
        for (std::size_t k = 0; k < shape.sessions_per_conn; ++k) {
          const std::size_t u = (rot * shape.connections + c) *
                                    shape.sessions_per_conn +
                                k;
          units.push_back(&pool[u % pool.size()]);
        }
        templates.push_back(make_template(c, units, shape.chunks));
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    std::filesystem::create_directories(journal_dir);
    if (!daemon.start(opt.served,
                      {"--tcp", "0", "--shards", std::to_string(shape.shards),
                       "--threads", "1", "--journal-dir", journal_dir},
                      port_file, log_file)) {
      res.check(false, "lion_served started");
      return run;
    }
    bool connected = true;
    for (auto& c : conns) connected = connected && c.connect_to(daemon.port());
    if (!connected) {
      res.check(false, "serve_ingest set-up: connect");
      return run;
    }
    setups.push_back(seconds_since(t0));
  }

  // ---- closed loop: lock-step rounds ------------------------------------
  const std::size_t nconn = conns.size();
  std::vector<Template*> active(nconn, nullptr);
  std::vector<std::size_t> active_cycle(nconn, 0);
  std::vector<std::size_t> replies(nconn, 0);
  std::vector<std::pair<double, double>> rounds;  // (start, end) [s]
  std::vector<double> round_reads;
  Dist round_ms;
  double reads_sent = 0.0, reads_done = 0.0;
  std::size_t errors = 0, barriers = 0, barriers_done = 0;
  std::size_t to_drop = opt.drop_responses;
  std::vector<Conn*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);

  const auto retire = [&] {
    std::error_code ec;
    for (std::size_t c = 0; c < nconn; ++c) {
      conns[c].close();
      if (active[c] == nullptr) continue;
      for (std::size_t k = 0; k < active[c]->ids.size(); ++k) {
        std::filesystem::remove(journal_dir + "/" +
                                    active[c]->id_for(k, active_cycle[c]) +
                                    ".lionj",
                                ec);
      }
      active[c] = nullptr;
    }
  };

  // The first cycle warms the daemon (allocations, journal directory) and
  // is not timed.
  auto t0 = Clock::now();
  bool stalled = false;
  for (std::size_t round = 0; !stalled; ++round) {
    const std::size_t chunk = round % shape.chunks;
    if (round == shape.chunks) {
      t0 = Clock::now();
      rounds.clear();
      round_reads.clear();
      round_ms = Dist{};
      reads_done = 0.0;
    }
    if (chunk == 0) {
      if (round > shape.chunks && seconds_since(t0) >= opt.seconds) break;
      retire();
      const std::size_t cycle = round / shape.chunks;
      for (std::size_t c = 0; c < nconn; ++c) {
        active[c] = &templates[c * 2 + cycle % 2];
        active_cycle[c] = cycle * nconn + c;
        active[c]->set_cycle(active_cycle[c]);
        if (!conns[c].connect_to(daemon.port())) stalled = true;
      }
      if (stalled) break;
    }
    const double start = seconds_since(t0);
    double reads = 0.0;
    for (std::size_t c = 0; c < nconn; ++c) {
      replies[c] = 0;
      conns[c].send(active[c]->chunks[chunk]);
      reads += static_cast<double>(active[c]->chunk_reads[chunk]);
      ++barriers;
    }
    reads_sent += reads;
    const bool answered = pump_until(
        ptrs,
        [&](std::size_t c, std::string_view line) {
          if (json_field(line, "schema") != "lion.stats.v1") {
            ++errors;
          } else if (to_drop > 0) {  // fault injection: a lost answer
            --to_drop;
          } else {
            ++replies[c];
          }
        },
        [&] {
          return std::all_of(replies.begin(), replies.end(),
                             [&](std::size_t r) { return r >= shape.shards; });
        },
        kBarrierTimeoutS);
    for (std::size_t r : replies) barriers_done += r >= shape.shards ? 1 : 0;
    if (!answered) {
      stalled = true;
      break;
    }
    const double end = seconds_since(t0);
    round_ms.add((end - start) * 1e3);
    rounds.emplace_back(start, end);
    round_reads.push_back(reads);
    reads_done += reads;
  }
  const double wall = seconds_since(t0);
  retire();

  // ---- final barrier: every read accepted ---------------------------------
  double samples = 0.0;
  std::size_t stats_replies = 0;
  Conn probe;
  if (probe.connect_to(daemon.port())) {
    probe.send("!stats\n");
    pump_until(
        {&probe},
        [&](std::size_t, std::string_view line) {
          if (json_field(line, "schema") == "lion.stats.v1") {
            ++stats_replies;
            samples += std::strtod(json_field(line, "samples").c_str(),
                                   nullptr);
            errors += static_cast<std::size_t>(
                std::strtod(json_field(line, "errors").c_str(), nullptr));
          }
        },
        [&] { return stats_replies == shape.shards; }, 30.0);
  }
  probe.close();
  const double rss = peak_rss_mb(daemon.pid());
  const bool clean_exit = daemon.stop();
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);

  const double missing_reads = std::max(0.0, reads_sent - samples);
  const std::size_t missing_barriers = barriers - barriers_done;
  const auto failed = static_cast<std::uint64_t>(missing_reads) +
                      missing_barriers + errors;
  const auto attempted = static_cast<std::uint64_t>(reads_sent) + barriers;
  res.count(attempted, failed);
  res.check(stats_replies == shape.shards && samples == reads_sent,
            "final !stats samples (" + std::to_string(samples) +
                ") equal the reads sent (" + std::to_string(reads_sent) +
                ")");
  res.check(missing_barriers == 0,
            "every cycle's !stats barrier was answered by every shard (" +
                std::to_string(missing_barriers) + " missing)");
  res.check(errors == 0, "serve_ingest got no errors (" +
                             std::to_string(errors) + ")");
  res.check(clean_exit, "lion_served exited cleanly");

  // Throughput is the median over one-second windows of the run (each
  // round's reads spread evenly over its duration), so a transient stall,
  // such as an fsync that hangs, moves one window rather than the figure.
  std::vector<double> windows(static_cast<std::size_t>(wall), 0.0);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const auto [s0, s1] = rounds[i];
    const double rate = round_reads[i] / std::max(s1 - s0, 1e-9);
    for (auto w = static_cast<std::size_t>(s0);
         w < windows.size() && static_cast<double>(w) < s1; ++w) {
      const double lo = std::max(s0, static_cast<double>(w));
      const double hi = std::min(s1, static_cast<double>(w + 1));
      windows[w] += rate * std::max(0.0, hi - lo);
    }
  }
  const double reads_per_s = median(windows);
  const double mean_per_s = wall > 0.0 ? reads_done / wall : 0.0;

  res.add("setup_s", median(setups), "s", "median of 3 set-ups");
  res.add("failed_share",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "share");
  res.add("peak_rss_mb", rss, "MB", "VmHWM of lion_served");
  res.add("ingest_reads_per_s", reads_per_s, "1/s",
          "median of " + std::to_string(windows.size()) +
              " one-second windows");
  res.add("ingest_reads_per_s_mean", mean_per_s, "1/s",
          std::to_string(rounds.size()) + " rounds, whole wall");
  res.add("throughput_per_s", reads_per_s, "1/s", "= ingest_reads_per_s");
  res.add_pct("latency_p50_ms", round_ms, 50, "ms");
  res.add_pct("latency_p90_ms", round_ms, 90, "ms");

  run.tcp_reads = reads_done;
  run.tcp_wall_s = wall;
  run.tcp_shards = static_cast<double>(shape.shards);

  // ---- inputs for the traced replay ---------------------------------------
  for (std::size_t i = 0; i < pool.size() && run.calibrations.size() < 100;
       ++i) {
    std::vector<lion::sim::PhaseSample> samples_i =
        parse_rows(pool[i].rows, pool[i].rows.size());
    run.calibrations.push_back(
        CalInput{pool[i].id, std::move(samples_i), kPhysicalCenter, {}});
  }
  for (std::size_t c = 0; c < conns.size(); ++c) {
    Template& t = templates[c * 2];
    t.set_cycle(c);
    for (const std::string& chunk : t.chunks) {
      std::size_t start = 0;
      while (start < chunk.size()) {
        const std::size_t nl = chunk.find('\n', start);
        std::string line = chunk.substr(start, nl - start);
        start = nl + 1;
        if (line[0] != '!' || line.rfind("!session", 0) == 0) {
          run.wire_lines.push_back(std::move(line));
        }
      }
    }
  }
  return run;
}

}  // namespace lionbench
