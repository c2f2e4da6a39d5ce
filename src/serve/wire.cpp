#include "serve/wire.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace lion::serve {

namespace {

std::string_view trim_view(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// strtod with required full consumption; never throws, rejects empty.
bool parse_number(std::string_view token, double& out) {
  const std::string buf(trim_view(token));
  if (buf.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

bool parse_count(std::string_view token, std::size_t& out) {
  double v = 0.0;
  if (!parse_number(token, v)) return false;
  if (v < 0.0 || v != v || v > 1e15 ||
      v != static_cast<double>(static_cast<std::size_t>(v))) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_vec3(std::string_view token, Vec3& out) {
  // "x,y,z" — three comma-separated numbers, no spare fields.
  std::size_t start = 0;
  int part = 0;
  for (std::size_t i = 0; i <= token.size(); ++i) {
    if (i == token.size() || token[i] == ',') {
      if (part >= 3) return false;
      double v = 0.0;
      if (!parse_number(token.substr(start, i - start), v)) return false;
      out[part++] = v;
      start = i + 1;
    }
  }
  return part == 3;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[j]))) {
      ++j;
    }
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

ParsedLine error_line(std::string detail) {
  ParsedLine out;
  out.kind = ParsedLine::kError;
  out.error = std::move(detail);
  return out;
}

ParsedLine parse_control(std::string_view line) {
  const auto tokens = split_ws(line);
  // tokens[0] is the command including '!'.
  const std::string_view cmd = tokens[0];
  ParsedLine out;

  auto require_id = [&](std::size_t count) -> bool {
    if (tokens.size() != count) return false;
    if (!valid_session_id(tokens[1])) return false;
    out.session = std::string(tokens[1]);
    return true;
  };

  if (cmd == "!flush") {
    out.kind = ParsedLine::kFlush;
    if (!require_id(2)) return error_line("wire: usage: !flush <id>");
    return out;
  }
  if (cmd == "!close") {
    out.kind = ParsedLine::kClose;
    if (!require_id(2)) return error_line("wire: usage: !close <id>");
    return out;
  }
  if (cmd == "!stats") {
    out.kind = ParsedLine::kStats;
    if (tokens.size() != 1) return error_line("wire: usage: !stats");
    return out;
  }
  if (cmd == "!healthz") {
    out.kind = ParsedLine::kHealthz;
    if (tokens.size() != 1) return error_line("wire: usage: !healthz");
    return out;
  }
  if (cmd == "!trace") {
    out.kind = ParsedLine::kTrace;
    if (!require_id(2)) return error_line("wire: usage: !trace <id>");
    return out;
  }
  if (cmd == "!tick") {
    if (tokens.size() != 2) {
      return error_line("wire: usage: !tick <n>|<session-id>");
    }
    // Disambiguate on the first character: numeric-looking arguments are
    // clock advances (and must parse as a positive count), anything else
    // is a pose-tick session id. Ids that *start* with a digit, sign, or
    // '.' are therefore not pose-tickable — documented wire limitation.
    const char lead = tokens[1].front();
    const bool numeric_lead =
        (lead >= '0' && lead <= '9') || lead == '-' || lead == '+' ||
        lead == '.';
    if (numeric_lead) {
      out.kind = ParsedLine::kTick;
      const std::optional<std::size_t> n = parse_tick_count(tokens[1]);
      if (!n) return error_line("wire: usage: !tick <n>");
      out.ticks = *n;
      return out;
    }
    out.kind = ParsedLine::kPoseTick;
    if (!valid_session_id(tokens[1])) {
      return error_line("wire: usage: !tick <n>|<session-id>");
    }
    out.session = std::string(tokens[1]);
    return out;
  }
  if (cmd == "!session") {
    out.kind = ParsedLine::kSession;
    if (tokens.size() < 2 || !valid_session_id(tokens[1])) {
      return error_line(
          "wire: usage: !session <id> [mode=...] [center=x,y,z] ...");
    }
    out.session = std::string(tokens[1]);
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const std::string_view kv = tokens[i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        return error_line("wire: bad session option '" + std::string(kv) +
                          "' (want key=value)");
      }
      const std::string_view key = kv.substr(0, eq);
      const std::string_view val = kv.substr(eq + 1);
      bool ok = true;
      if (key == "mode") {
        if (val == "calibrate") {
          out.mode = SessionMode::kCalibrate;
        } else if (val == "track") {
          out.mode = SessionMode::kTrack;
        } else {
          ok = false;
        }
      } else if (key == "center") {
        Vec3 v;
        ok = parse_vec3(val, v);
        if (ok) out.center = v;
      } else if (key == "dir") {
        Vec3 v;
        ok = parse_vec3(val, v);
        if (ok) out.direction = v;
      } else if (key == "hint") {
        Vec3 v;
        ok = parse_vec3(val, v);
        if (ok) out.hint = v;
      } else if (key == "speed") {
        double v = 0.0;
        ok = parse_number(val, v) && v > 0.0;
        if (ok) out.speed = v;
      } else if (key == "wavelength") {
        double v = 0.0;
        ok = parse_number(val, v) && v > 0.0;
        if (ok) out.wavelength = v;
      } else if (key == "window") {
        std::size_t v = 0;
        ok = parse_count(val, v);
        if (ok) out.window = v;
      } else if (key == "hop") {
        std::size_t v = 0;
        ok = parse_count(val, v);
        if (ok) out.hop = v;
      } else if (key == "dim") {
        std::size_t v = 0;
        ok = parse_count(val, v) && (v == 2 || v == 3);
        if (ok) out.dim = v;
      } else if (key == "smoothing") {
        std::size_t v = 0;
        ok = parse_count(val, v);
        if (ok) out.smoothing = v;
      } else {
        return error_line("wire: unknown session option '" +
                          std::string(key) + "'");
      }
      if (!ok) {
        return error_line("wire: bad value for session option '" +
                          std::string(key) + "'");
      }
    }
    return out;
  }
  return error_line("wire: unknown control '" + std::string(cmd) + "'");
}

// Flat JSON object decoder for one read record. Accepts exactly one level
// of {"key":value} pairs; values are numbers, or a string for "session".
// Anything nested, duplicated-with-disagreement, or unknown is an error —
// this is a network-facing parser, strictness is the feature.
ParsedLine parse_json_record(std::string_view line) {
  struct Cursor {
    std::string_view s;
    std::size_t i = 0;
    void skip_ws() {
      while (i < s.size() &&
             std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
    }
    bool eat(char c) {
      skip_ws();
      if (i < s.size() && s[i] == c) {
        ++i;
        return true;
      }
      return false;
    }
    bool done() {
      skip_ws();
      return i == s.size();
    }
  };
  Cursor cur{line};

  auto parse_string = [&](std::string& out) -> bool {
    cur.skip_ws();
    if (!cur.eat('"')) return false;
    out.clear();
    while (cur.i < cur.s.size()) {
      const char c = cur.s[cur.i++];
      if (c == '"') return true;
      if (c == '\\') {
        if (cur.i >= cur.s.size()) return false;
        const char esc = cur.s[cur.i++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: return false;  // \uXXXX etc. not needed for ids
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  };

  auto parse_value_number = [&](double& out) -> bool {
    cur.skip_ws();
    const std::size_t start = cur.i;
    while (cur.i < cur.s.size() && cur.s[cur.i] != ',' &&
           cur.s[cur.i] != '}') {
      ++cur.i;
    }
    return parse_number(cur.s.substr(start, cur.i - start), out);
  };

  if (!cur.eat('{')) return error_line("wire: json record must be an object");

  ParsedLine out;
  out.kind = ParsedLine::kData;
  sim::PhaseSample sample;
  bool has_x = false, has_y = false, has_z = false, has_phase = false;

  if (!cur.eat('}')) {
    while (true) {
      std::string key;
      if (!parse_string(key)) {
        return error_line("wire: json record: expected string key");
      }
      if (!cur.eat(':')) {
        return error_line("wire: json record: expected ':' after key");
      }
      if (key == "session") {
        std::string id;
        if (!parse_string(id) || !valid_session_id(id)) {
          return error_line("wire: json record: bad session id");
        }
        out.session = std::move(id);
      } else {
        double v = 0.0;
        if (!parse_value_number(v)) {
          return error_line("wire: json record: bad number for '" + key +
                            "'");
        }
        if (key == "x") {
          sample.position[0] = v;
          has_x = true;
        } else if (key == "y") {
          sample.position[1] = v;
          has_y = true;
        } else if (key == "z") {
          sample.position[2] = v;
          has_z = true;
        } else if (key == "phase") {
          sample.phase = v;
          has_phase = true;
        } else if (key == "rssi") {
          sample.rssi_dbm = v;
        } else if (key == "channel") {
          if (v < 0.0 || v != v) {
            return error_line("wire: json record: bad channel");
          }
          sample.channel = static_cast<std::uint32_t>(v);
        } else if (key == "t") {
          sample.t = v;
        } else {
          return error_line("wire: json record: unknown key '" + key + "'");
        }
      }
      if (cur.eat(',')) continue;
      if (cur.eat('}')) break;
      return error_line("wire: json record: expected ',' or '}'");
    }
  }
  if (!cur.done()) {
    return error_line("wire: json record: trailing bytes after '}'");
  }
  if (!(has_x && has_y && has_z && has_phase)) {
    return error_line("wire: json record: x, y, z and phase are required");
  }
  out.json_sample = sample;
  return out;
}

}  // namespace

std::optional<std::size_t> parse_tick_count(std::string_view token) {
  std::size_t n = 0;
  if (!parse_count(token, n) || n == 0) return std::nullopt;
  return n;
}

bool valid_session_id(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == '.' || c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

ChunkDecoder::Lines ChunkDecoder::feed(std::string_view bytes) {
  Lines out;
  for (const char c : bytes) {
    if (c == '\n') {
      if (discarding_) {
        ++out.oversized_dropped;
        discarding_ = false;
      } else {
        if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
        out.lines.push_back(std::move(partial_));
      }
      partial_.clear();
      continue;
    }
    if (discarding_) continue;
    if (partial_.size() >= max_line_) {
      partial_.clear();
      discarding_ = true;
      continue;
    }
    partial_.push_back(c);
  }
  return out;
}

ChunkDecoder::Lines ChunkDecoder::finish() {
  Lines out;
  if (discarding_) {
    ++out.oversized_dropped;
    discarding_ = false;
  } else if (!partial_.empty()) {
    if (partial_.back() == '\r') partial_.pop_back();
    if (!partial_.empty()) out.lines.push_back(std::move(partial_));
  }
  partial_.clear();
  return out;
}

ParsedLine parse_line(std::string_view line) {
  const std::string_view stripped = trim_view(line);
  if (stripped.empty() || stripped[0] == '#') {
    return ParsedLine{};  // kComment
  }
  if (stripped[0] == '!') return parse_control(stripped);
  if (stripped[0] == '{') return parse_json_record(stripped);

  ParsedLine out;
  out.kind = ParsedLine::kData;
  if (stripped[0] == '@') {
    const std::size_t sp = stripped.find_first_of(" \t");
    if (sp == std::string_view::npos) {
      return error_line("wire: usage: @<id> <csv-row>");
    }
    const std::string_view id = stripped.substr(1, sp - 1);
    if (!valid_session_id(id)) {
      return error_line("wire: bad session id in '@' route");
    }
    out.session = std::string(id);
    out.csv_row = std::string(stripped.substr(sp + 1));
    return out;
  }
  out.csv_row = std::string(stripped);
  return out;
}

}  // namespace lion::serve
