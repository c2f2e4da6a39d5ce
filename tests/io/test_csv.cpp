#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace lion::io {
namespace {

TEST(Csv, ParsesHeaderlessCanonicalOrder) {
  std::istringstream in("0.1,0.2,0.3,1.5\n0.4,0.5,0.6,2.5\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].position[0], 0.1);
  EXPECT_DOUBLE_EQ(s[0].position[2], 0.3);
  EXPECT_DOUBLE_EQ(s[0].phase, 1.5);
  EXPECT_DOUBLE_EQ(s[1].phase, 2.5);
  EXPECT_EQ(s[0].channel, 0u);
}

TEST(Csv, ParsesOptionalColumns) {
  std::istringstream in("0,0,0,1.0,-55.5,3,0.25\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].rssi_dbm, -55.5);
  EXPECT_EQ(s[0].channel, 3u);
  EXPECT_DOUBLE_EQ(s[0].t, 0.25);
}

TEST(Csv, ParsesNamedHeaderAnyOrder) {
  std::istringstream in(
      "phase,z,y,x,rssi\n"
      "1.25,0.3,0.2,0.1,-60\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].position[0], 0.1);
  EXPECT_DOUBLE_EQ(s[0].position[1], 0.2);
  EXPECT_DOUBLE_EQ(s[0].position[2], 0.3);
  EXPECT_DOUBLE_EQ(s[0].phase, 1.25);
  EXPECT_DOUBLE_EQ(s[0].rssi_dbm, -60.0);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# reader log\n"
      "\n"
      "0,0,0,1.0\n"
      "  \n"
      "# mid-stream comment\n"
      "0,0,0,2.0\n");
  EXPECT_EQ(read_samples_csv(in).size(), 2u);
}

TEST(Csv, WhitespaceAroundFieldsTolerated) {
  std::istringstream in(" 0.1 , 0.2 ,0.3, 1.5 \n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].position[1], 0.2);
}

TEST(Csv, RejectsNonNumericField) {
  std::istringstream in("0,0,zero,1.0\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, ErrorNamesLineNumber) {
  std::istringstream in("0,0,0,1.0\n0,0,0,bad\n");
  try {
    read_samples_csv(in);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Csv, RejectsTooFewColumns) {
  std::istringstream in("0,0,1.0\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, RejectsHeaderMissingMandatoryColumn) {
  std::istringstream in("x,y,phase\n0,0,1\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, EmptyStreamGivesNoSamples) {
  std::istringstream in("");
  EXPECT_TRUE(read_samples_csv(in).empty());
}

TEST(Csv, WriteReadRoundTrip) {
  std::vector<sim::PhaseSample> samples(3);
  samples[0].position = {0.1, 0.2, 0.3};
  samples[0].phase = 1.5;
  samples[0].rssi_dbm = -52.0;
  samples[0].channel = 7;
  samples[0].t = 0.125;
  samples[2].position = {-1.0, 2.0, -3.0};
  samples[2].phase = 6.0;

  std::ostringstream out;
  write_samples_csv(out, samples);
  std::istringstream in(out.str());
  const auto back = read_samples_csv(in);
  ASSERT_EQ(back.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].position[0], samples[i].position[0]);
    EXPECT_DOUBLE_EQ(back[i].position[1], samples[i].position[1]);
    EXPECT_DOUBLE_EQ(back[i].position[2], samples[i].position[2]);
    EXPECT_DOUBLE_EQ(back[i].phase, samples[i].phase);
    EXPECT_DOUBLE_EQ(back[i].rssi_dbm, samples[i].rssi_dbm);
    EXPECT_EQ(back[i].channel, samples[i].channel);
    EXPECT_DOUBLE_EQ(back[i].t, samples[i].t);
  }
}

TEST(Csv, FileHelpersThrowOnMissingPath) {
  EXPECT_THROW(read_samples_csv_file("/nonexistent/dir/x.csv"),
               std::runtime_error);
  EXPECT_THROW(
      write_samples_csv_file("/nonexistent/dir/x.csv", {}),
      std::runtime_error);
}

TEST(Csv, FileRoundTrip) {
  std::vector<sim::PhaseSample> samples(2);
  samples[1].position = {1.0, 2.0, 3.0};
  samples[1].phase = 0.5;
  const std::string path = "/tmp/lion_csv_roundtrip_test.csv";
  write_samples_csv_file(path, samples);
  const auto back = read_samples_csv_file(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[1].position[2], 3.0);
}

// ---------------------------------------------------------------------------
// Differential referee: the stringstream + std::stod row parser that
// CsvStreamParser replaced, copied verbatim with one deliberate change —
// an out-of-range channel is a row error instead of an undefined
// uint32_t cast (the referee must not run into UB either). The fast
// path must agree with it bit for bit on every line.
// ---------------------------------------------------------------------------

class RefereeCsvParser {
 public:
  using Result = CsvStreamParser::Result;

  std::size_t line_number() const { return line_no_; }

  void reset() {
    layout_known_ = false;
    layout_ = Layout{};
    line_no_ = 0;
  }

  Result push_line(std::string_view line) {
    Result out;
    ++line_no_;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') {
      out.status = CsvRowStatus::kSkipped;
      return out;
    }
    const auto fields = split_fields(stripped);

    if (!layout_known_) {
      bool any_name = false;
      Layout named;
      named.x = named.y = named.z = named.phase = -1;
      named.rssi = named.channel = named.t = -1;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        const std::string f = lower(fields[i]);
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
      }
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
      Layout pos;
      pos.rssi = fields.size() > 4 ? 4 : -1;
      pos.channel = fields.size() > 5 ? 5 : -1;
      pos.t = fields.size() > 6 ? 6 : -1;
      layout_ = pos;
      layout_known_ = true;
    }

    const int max_required =
        std::max(std::max(layout_.x, layout_.y),
                 std::max(layout_.z, layout_.phase));
    if (static_cast<int>(fields.size()) <= max_required) {
      out.status = CsvRowStatus::kError;
      out.error = "csv: too few columns on line " + std::to_string(line_no_);
      return out;
    }
    sim::PhaseSample s;
    auto parse_into = [&](int idx, double& dst) {
      double v = 0.0;
      if (!parse_double(fields[static_cast<std::size_t>(idx)], line_no_, v,
                        out.error)) {
        return false;
      }
      dst = v;
      return true;
    };
    double channel = 0.0;
    const bool parsed =
        parse_into(layout_.x, s.position[0]) &&
        parse_into(layout_.y, s.position[1]) &&
        parse_into(layout_.z, s.position[2]) &&
        parse_into(layout_.phase, s.phase) &&
        (layout_.rssi < 0 || static_cast<int>(fields.size()) <= layout_.rssi ||
         parse_into(layout_.rssi, s.rssi_dbm)) &&
        (layout_.channel < 0 ||
         static_cast<int>(fields.size()) <= layout_.channel ||
         parse_into(layout_.channel, channel)) &&
        (layout_.t < 0 || static_cast<int>(fields.size()) <= layout_.t ||
         parse_into(layout_.t, s.t));
    if (!parsed) {
      out.status = CsvRowStatus::kError;
      return out;
    }
    if (layout_.channel >= 0 &&
        static_cast<int>(fields.size()) > layout_.channel) {
      // The one deliberate difference from the replaced parser.
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

 private:
  struct Layout {
    int x = 0;
    int y = 1;
    int z = 2;
    int phase = 3;
    int rssi = 4;
    int channel = 5;
    int t = 6;
  };

  static std::string trim(std::string_view s) {
    std::size_t a = 0;
    std::size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
    return std::string(s.substr(a, b - a));
  }

  static std::vector<std::string> split_fields(const std::string& line) {
    std::vector<std::string> out;
    std::string field;
    std::stringstream ss(line);
    while (std::getline(ss, field, ',')) out.push_back(trim(field));
    return out;
  }

  static bool parse_double(const std::string& s, std::size_t line_no,
                           double& out, std::string& error) {
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

  static std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
  }

  bool layout_known_ = false;
  Layout layout_;
  std::size_t line_no_ = 0;
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Status, error text, line count and every sample field by bit pattern.
::testing::AssertionResult same_result(const CsvStreamParser::Result& want,
                                       const CsvStreamParser::Result& got) {
  if (want.status != got.status) {
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(got.status) << ", referee "
           << static_cast<int>(want.status) << " (referee error '"
           << want.error << "', error '" << got.error << "')";
  }
  if (want.status == CsvRowStatus::kError && want.error != got.error) {
    return ::testing::AssertionFailure()
           << "error '" << got.error << "', referee '" << want.error << "'";
  }
  if (want.status == CsvRowStatus::kSample) {
    const sim::PhaseSample& a = want.sample;
    const sim::PhaseSample& b = got.sample;
    const double wa[] = {a.position[0], a.position[1], a.position[2],
                         a.phase,       a.rssi_dbm,    a.t};
    const double wb[] = {b.position[0], b.position[1], b.position[2],
                         b.phase,       b.rssi_dbm,    b.t};
    for (int i = 0; i < 6; ++i) {
      if (bits(wa[i]) != bits(wb[i])) {
        return ::testing::AssertionFailure()
               << "sample field " << i << " is " << wb[i] << ", referee "
               << wa[i];
      }
    }
    if (a.channel != b.channel) {
      return ::testing::AssertionFailure()
             << "channel " << b.channel << ", referee " << a.channel;
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded 64-bit LCG (MMIX constants): reproducible, no random_device.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  std::size_t below(std::size_t n) { return n ? next() % n : 0; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-42; }
};

// Every class of field the fast path must either answer exactly or hand
// to std::stod: signs, hex, inf/nan spellings, subnormals and the DBL_MIN
// rounding edge, overflow/underflow, empty fields, trailing junk, zeros
// with and without nonzero digits, bare dots and exponents.
const std::vector<std::string>& odd_tokens() {
  static const std::vector<std::string> tokens = {
      "+1.5", "+0", "-0", "0", "00", "0.000", "-0.0e0", "0e5", "0e-999",
      "0x10", "0x1p-3", "-0x1.8p1", "0X1P4", "inf", "-inf", "+inf", "INF",
      "infinity", "-Infinity", "nan", "-nan", "NaN", "nan(123)", "nan(x)",
      "4.9406564584124654e-324", "1e-310", "-2.5e-320",
      "2.2250738585072011e-308", "2.2250738585072012e-308",
      "-2.2250738585072012e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "1e999", "-1e999", "1e-400", "-1e-400",
      "", " ", "1.5abc", "1e", "1e+", "e5", ".", "-", "+", "-.", ".5", "5.",
      "-.5e1", "1e+5", "1E5", "1.5E-3", "1 2", "1,5", "0..1", "--1",
      "4294967295", "4294967296", "-1", "-0.5", "-0.999", "7.9", "1e10",
      "18446744073709551616", "123456789012345678901234567890",
      "0.1000000000000000055511151231257827", "+-1", "-+1", "++1", "+ 1",
      "\x01", "1\x7f"};
  return tokens;
}

std::string random_number(Lcg& rng) {
  char buf[64];
  const double mag = std::pow(10.0, static_cast<double>(rng.below(40)) - 20);
  const double v = (rng.unit() - 0.5) * 2.0 * mag;
  switch (rng.below(5)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.6f", v);
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%d",
                    static_cast<int>(rng.below(200)) - 20);
      break;
    case 2:
      std::snprintf(buf, sizeof buf, "%.*g",
                    static_cast<int>(1 + rng.below(17)), v);
      break;
    case 3:  // bare random doubles, every exponent
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::ldexp(rng.unit() + 0.5,
                               static_cast<int>(rng.below(2100)) - 1074));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%.17g", v);
      break;
  }
  return buf;
}

std::string random_field(Lcg& rng) {
  std::string f = rng.below(6) == 0
                      ? odd_tokens()[rng.below(odd_tokens().size())]
                      : random_number(rng);
  if (rng.below(10) == 0) f = " " + f;
  if (rng.below(10) == 0) f += "\t";
  return f;
}

const std::vector<std::string>& header_lines() {
  static const std::vector<std::string> headers = {
      "x,y,z,phase",
      "x,y,z,phase,rssi,channel,t",
      "phase,z,y,x,rssi",
      "X, Y ,Z,Phase_Rad,RSSI_dBm,Channel,Timestamp\r",
      "t,channel,rssi,phase,z,y,x,",
      "z,phase,x,y",
      "x,y,phase",
      "foo,x,bar,y,z,phase,time",
      "x,y,z,phase,1.5",
  };
  return headers;
}

// A data row, or now and then a header (mid-stream it is a data row
// with non-numeric fields), comment, blank or comma-only line.
std::string random_line(Lcg& rng) {
  static const std::vector<std::string> specials = {
      "# comment, 1,2,3", "#", "", "   ", "\t\r", ",", ",,,,"};
  if (rng.below(25) == 0) {
    return rng.below(2) == 0 ? header_lines()[rng.below(header_lines().size())]
                             : specials[rng.below(specials.size())];
  }
  std::string line;
  const std::size_t fields = 1 + rng.below(9);
  for (std::size_t i = 0; i < fields; ++i) {
    if (i > 0) line += ',';
    line += random_field(rng);
  }
  switch (rng.below(12)) {
    case 0:
      line += ',';
      break;
    case 1:
      line += "\r";
      break;
    case 2:
      line = ',' + line;
      break;
    case 3:
      line = "  " + line + " \r";
      break;
    default:
      break;
  }
  return line;
}

TEST(CsvDifferential, MatchesTheStodRefereeOnFuzzedLines) {
  Lcg rng{20261020};
  CsvStreamParser parser;
  RefereeCsvParser referee;
  std::size_t samples = 0;
  std::size_t errors = 0;
  std::size_t headers = 0;
  constexpr int kLines = 120000;
  for (int i = 0; i < kLines; ++i) {
    bool fresh = false;
    if (rng.below(40) == 0) {  // fresh stream: layout detection again
      parser.reset();
      referee.reset();
      fresh = true;
    }
    const std::string line =
        fresh && rng.below(2) == 0
            ? header_lines()[rng.below(header_lines().size())]
            : random_line(rng);
    const auto want = referee.push_line(line);
    const auto got = parser.push_line(line);
    ASSERT_TRUE(same_result(want, got)) << "line " << i << ": '" << line
                                        << "'";
    ASSERT_EQ(referee.line_number(), parser.line_number()) << line;
    samples += want.status == CsvRowStatus::kSample;
    errors += want.status == CsvRowStatus::kError;
    headers += want.status == CsvRowStatus::kHeader;
  }
  // The fuzz must reach every outcome in bulk, not just one.
  EXPECT_GT(samples, static_cast<std::size_t>(kLines) / 10);
  EXPECT_GT(errors, static_cast<std::size_t>(kLines) / 10);
  EXPECT_GT(headers, 500u);
}

TEST(CsvDifferential, EveryOddTokenMatchesTheRefereeInEveryColumn) {
  for (const std::string& token : odd_tokens()) {
    for (int col = 0; col < 7; ++col) {
      std::string line;
      for (int i = 0; i < 7; ++i) {
        if (i > 0) line += ',';
        line += i == col ? token : "1.25";
      }
      CsvStreamParser parser;
      RefereeCsvParser referee;
      EXPECT_TRUE(same_result(referee.push_line(line), parser.push_line(line)))
          << "'" << line << "'";
    }
  }
}

TEST(CsvDifferential, RoundingUpToDblMinIsStillAnStodRangeError) {
  // from_chars rounds this to DBL_MIN, a normal value; glibc's strtod
  // flags the underflow of the exact value with ERANGE, so std::stod
  // throws and the row has always been an error.
  CsvStreamParser parser;
  const auto r = parser.push_line("2.2250738585072012e-308,0,0,1");
  ASSERT_EQ(r.status, CsvRowStatus::kError);
  EXPECT_EQ(r.error,
            "csv: non-numeric field '2.2250738585072012e-308' on line 1");
  const auto ok = parser.push_line("2.2250738585072014e-308,0,0,1");
  ASSERT_EQ(ok.status, CsvRowStatus::kSample);
  EXPECT_EQ(ok.sample.position[0], 2.2250738585072014e-308);
}

TEST(CsvDifferential, StodOnlySpellingsKeepTheirValues) {
  CsvStreamParser parser;
  const auto r = parser.push_line("+1.5,0x10,-0,nan,-inf,7,+2");
  ASSERT_EQ(r.status, CsvRowStatus::kSample) << r.error;
  EXPECT_EQ(r.sample.position[0], 1.5);
  EXPECT_EQ(r.sample.position[1], 16.0);
  EXPECT_EQ(bits(r.sample.position[2]), bits(-0.0));
  EXPECT_TRUE(std::isnan(r.sample.phase));
  EXPECT_EQ(r.sample.rssi_dbm, -HUGE_VAL);
  EXPECT_EQ(r.sample.channel, 7u);
  EXPECT_EQ(r.sample.t, 2.0);
  for (const char* bad : {"1e-310,0,0,1", "1e999,0,0,1", "1e-400,0,0,1",
                          ",0,0,1", "1.5abc,0,0,1"}) {
    EXPECT_EQ(parser.push_line(bad).status, CsvRowStatus::kError) << bad;
  }
}

TEST(Csv, ChannelOutsideTheUint32RangeIsARowError) {
  CsvStreamParser parser;
  ASSERT_EQ(parser.push_line("x,y,z,phase,rssi,channel,t").status,
            CsvRowStatus::kHeader);
  std::size_t line = 1;
  for (const char* channel :
       {"-1", "-7.5", "4294967296", "1e300", "nan", "-nan", "inf", "-inf"}) {
    ++line;
    const auto r = parser.push_line(std::string("0,0,0,1,-60,") + channel +
                                    ",0.5");
    ASSERT_EQ(r.status, CsvRowStatus::kError) << channel;
    EXPECT_EQ(r.error,
              "csv: channel out of range on line " + std::to_string(line))
        << channel;
  }
  // In range: today's truncation toward zero, unchanged.
  const std::pair<const char*, std::uint32_t> kept[] = {
      {"0", 0u},           {"-0.5", 0u}, {"-0.999", 0u},
      {"7.9", 7u},         {"3", 3u},    {"4294967295", 4294967295u},
      {"4294967295.5", 4294967295u}};
  for (const auto& [text, want] : kept) {
    const auto r =
        parser.push_line(std::string("0,0,0,1,-60,") + text + ",0.5");
    ASSERT_EQ(r.status, CsvRowStatus::kSample) << text << ": " << r.error;
    EXPECT_EQ(r.sample.channel, want) << text;
  }
  // A row whose other fields fail reports that field first, as before.
  const auto first = parser.push_line("0,0,0,1,-60,-1,abc");
  ASSERT_EQ(first.status, CsvRowStatus::kError);
  EXPECT_NE(first.error.find("non-numeric field 'abc'"), std::string::npos);
}

}  // namespace
}  // namespace lion::io
