#include "io/csv.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace lion::io {

namespace {

std::string_view trim(std::string_view s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

// Calls fn(index, field) for each trimmed field of `line` with
// std::getline(',') semantics: "a,,b" has three fields, and a trailing ','
// adds none. Returns the field count.
template <class Fn>
std::size_t for_each_field(std::string_view line, Fn&& fn) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start < line.size()) {
    const std::size_t comma = line.find(',', start);
    const std::size_t end =
        comma == std::string_view::npos ? line.size() : comma;
    fn(count++, trim(line.substr(start, end - start)));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return count;
}

// std::from_chars answers only where its value provably equals
// std::stod's. Its decimal grammar is a subset of strtod's, both round
// correctly, and LION never calls setlocale, so the two agree on every
// field from_chars consumes whole, except where strtod sets ERANGE and
// stod throws. That cannot happen for a finite value above DBL_MIN in
// magnitude, nor for a zero written without a nonzero digit. DBL_MIN
// itself is excluded: glibc flags underflow on the exact value before
// rounding, so a field that rounds up to DBL_MIN throws in stod.
bool fast_double(std::string_view s, double& out) {
  double v = 0.0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  const bool exact =
      (std::isfinite(v) && std::fabs(v) > std::numeric_limits<double>::min()) ||
      (v == 0.0 && s.find_first_of("123456789") == std::string_view::npos);
  if (exact) out = v;
  return exact;
}

// std::stod semantics (so "nan"/"inf"/hex floats keep parsing exactly as
// they always did), full-field consumption required, no exception escapes.
// fast_double answers the plain decimal fields; everything else — a
// leading '+', hex, inf/nan, subnormals, out-of-range values, empty
// fields, trailing junk — takes the stod path, which alone decides their
// value or error text.
bool parse_double(std::string_view field, std::size_t line_no, double& out,
                  std::string& error) {
  if (fast_double(field, out)) return true;
  const std::string s(field);
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument("trailing characters");
    out = v;
    return true;
  } catch (const std::exception&) {
    error = "csv: non-numeric field '" + s + "' on line " +
            std::to_string(line_no);
    return false;
  }
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

void CsvStreamParser::reset() {
  layout_known_ = false;
  layout_ = Layout{};
  line_no_ = 0;
}

CsvStreamParser::Result CsvStreamParser::push_line(std::string_view line) {
  Result out;
  ++line_no_;
  const std::string_view stripped = trim(line);
  if (stripped.empty() || stripped[0] == '#') {
    out.status = CsvRowStatus::kSkipped;
    return out;
  }

  if (!layout_known_) {
    // Header detection: any recognised column name makes this a header
    // row; a header must then name all four mandatory columns. A row with
    // no recognised names locks the positional layout and is itself data.
    bool any_name = false;
    Layout named;
    named.x = named.y = named.z = named.phase = -1;
    named.rssi = named.channel = named.t = -1;
    const std::size_t count =
        for_each_field(stripped, [&](std::size_t i, std::string_view field) {
          const std::string f = lower(field);
          const int idx = static_cast<int>(i);
          if (f == "x") {
            named.x = idx;
            any_name = true;
          } else if (f == "y") {
            named.y = idx;
            any_name = true;
          } else if (f == "z") {
            named.z = idx;
            any_name = true;
          } else if (f == "phase" || f == "phase_rad") {
            named.phase = idx;
            any_name = true;
          } else if (f == "rssi" || f == "rssi_dbm") {
            named.rssi = idx;
            any_name = true;
          } else if (f == "channel") {
            named.channel = idx;
            any_name = true;
          } else if (f == "t" || f == "time" || f == "timestamp") {
            named.t = idx;
            any_name = true;
          }
        });
    if (any_name) {
      if (named.x < 0 || named.y < 0 || named.z < 0 || named.phase < 0) {
        out.status = CsvRowStatus::kError;
        out.error = "csv: header must name at least x, y, z and phase";
        return out;
      }
      layout_ = named;
      layout_known_ = true;
      out.status = CsvRowStatus::kHeader;
      return out;
    }
    // Positional: first four mandatory, extras in canonical order.
    Layout pos;
    pos.rssi = count > 4 ? 4 : -1;
    pos.channel = count > 5 ? 5 : -1;
    pos.t = count > 6 ? 6 : -1;
    layout_ = pos;
    layout_known_ = true;
  }

  // Pick each column's field out of the row in one pass; a column the
  // layout lacks, or the row is too short for, stays absent.
  enum Column { kX, kY, kZ, kPhase, kRssi, kChannel, kT, kColumns };
  const std::array<int, kColumns> index = {layout_.x,     layout_.y,
                                           layout_.z,     layout_.phase,
                                           layout_.rssi,  layout_.channel,
                                           layout_.t};
  std::array<std::string_view, kColumns> column{};
  std::array<bool, kColumns> present{};
  for_each_field(stripped, [&](std::size_t i, std::string_view field) {
    for (int c = 0; c < kColumns; ++c) {
      if (index[c] == static_cast<int>(i)) {
        column[c] = field;
        present[c] = true;
      }
    }
  });

  // Every mandatory column must be present: a named header may place x or
  // y above z/phase (e.g. "z,phase,x,y"), so checking only z and phase
  // would accept a short row.
  if (!(present[kX] && present[kY] && present[kZ] && present[kPhase])) {
    out.status = CsvRowStatus::kError;
    out.error = "csv: too few columns on line " + std::to_string(line_no_);
    return out;
  }
  sim::PhaseSample s;
  auto parse_into = [&](Column c, double& dst) {
    return !present[c] || parse_double(column[c], line_no_, dst, out.error);
  };
  double channel = 0.0;
  const bool parsed = parse_into(kX, s.position[0]) &&
                      parse_into(kY, s.position[1]) &&
                      parse_into(kZ, s.position[2]) &&
                      parse_into(kPhase, s.phase) &&
                      parse_into(kRssi, s.rssi_dbm) &&
                      parse_into(kChannel, channel) && parse_into(kT, s.t);
  if (!parsed) {
    out.status = CsvRowStatus::kError;
    return out;
  }
  if (present[kChannel]) {
    // The cast below is defined exactly on (-1, 2^32); NaN fails both
    // comparisons. Network bytes must not reach undefined behaviour.
    if (!(channel > -1.0 && channel < 4294967296.0)) {
      out.status = CsvRowStatus::kError;
      out.error =
          "csv: channel out of range on line " + std::to_string(line_no_);
      return out;
    }
    s.channel = static_cast<std::uint32_t>(channel);
  }
  out.status = CsvRowStatus::kSample;
  out.sample = s;
  return out;
}

std::vector<sim::PhaseSample> read_samples_csv(std::istream& in) {
  std::vector<sim::PhaseSample> out;
  CsvStreamParser parser;
  std::string line;
  while (std::getline(in, line)) {
    const auto row = parser.push_line(line);
    switch (row.status) {
      case CsvRowStatus::kSample:
        out.push_back(row.sample);
        break;
      case CsvRowStatus::kError:
        throw std::invalid_argument(row.error);
      case CsvRowStatus::kHeader:
      case CsvRowStatus::kSkipped:
        break;
    }
  }
  return out;
}

std::vector<sim::PhaseSample> read_samples_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("csv: cannot open '" + path + "'");
  return read_samples_csv(f);
}

void write_samples_csv(std::ostream& out,
                       const std::vector<sim::PhaseSample>& samples) {
  out << "x,y,z,phase,rssi,channel,t\n";
  for (const auto& s : samples) {
    out << s.position[0] << ',' << s.position[1] << ',' << s.position[2]
        << ',' << s.phase << ',' << s.rssi_dbm << ',' << s.channel << ','
        << s.t << '\n';
  }
}

void write_samples_csv_file(const std::string& path,
                            const std::vector<sim::PhaseSample>& samples) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("csv: cannot open '" + path + "'");
  write_samples_csv(f, samples);
}

}  // namespace lion::io
