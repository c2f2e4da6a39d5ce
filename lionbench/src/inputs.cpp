#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <random>

#include "io/csv.hpp"
#include "rf/antenna.hpp"
#include "rf/phase_model.hpp"
#include "sim/scenario.hpp"
#include "sim/trajectory.hpp"

namespace lionbench {

using namespace lion;

std::uint64_t mix(std::uint64_t x) {
  std::uint64_t z = x + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string csv_row(const sim::PhaseSample& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g,%.17g,%u,%.17g",
                s.position[0], s.position[1], s.position[2], s.phase,
                s.rssi_dbm, static_cast<unsigned>(s.channel), s.t);
  return buf;
}

Unit make_unit(std::uint64_t seed, std::size_t index, std::size_t stride,
               bool with_rows) {
  Unit unit;
  unit.id = static_cast<std::uint32_t>(mix(seed * 1000003ULL + index));
  const rf::Antenna antenna = rf::make_antenna(kPhysicalCenter, unit.id);
  unit.truth = antenna.phase_center();
  auto scenario = sim::Scenario::Builder{}
                      .environment(sim::EnvironmentKind::kLabTypical)
                      .add_antenna(antenna)
                      .add_tag()
                      .seed(mix(seed ^ (static_cast<std::uint64_t>(unit.id)
                                        << 20)))
                      .build();
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto samples = scenario.sweep(0, 0, rig.build());
  if (stride == 0) stride = 1;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    unit.samples.push_back(samples[i]);
    if (with_rows) unit.rows.push_back(csv_row(samples[i]));
  }
  return unit;
}

std::vector<sim::PhaseSample> parse_rows(const std::vector<std::string>& rows,
                                         std::size_t count) {
  io::CsvStreamParser parser;
  std::vector<sim::PhaseSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && i < rows.size(); ++i) {
    const auto r = parser.push_line(rows[i]);
    if (r.status == io::CsvRowStatus::kSample) out.push_back(r.sample);
  }
  return out;
}

TrackStream make_track(std::uint64_t seed, std::size_t index,
                       std::size_t rows) {
  // A tag rides a belt along +x at 5 cm/s past an antenna at the origin,
  // read at 100 Hz; the belt's stand-off and the phase noise are seeded.
  std::mt19937_64 rng(mix(seed * 7919ULL + index));
  std::uniform_real_distribution<double> standoff(0.55, 0.65);
  std::normal_distribution<double> noise(0.0, 0.05);
  const double y0 = standoff(rng);
  TrackStream out;
  out.id = "trk" + std::to_string(index);
  char decl[200];
  std::snprintf(decl, sizeof decl,
                "!session %s mode=track center=0,0,0 dir=1,0,0 speed=0.05 "
                "window=1000000 hop=1000000 hint=-1,%.6f,0",
                out.id.c_str(), y0);
  out.declare = decl;
  out.rows.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double t = 0.01 * static_cast<double>(i);
    const double x = -1.0 + 0.05 * t;
    const double d = std::sqrt(x * x + y0 * y0);
    const double phase = rf::wrap_phase(rf::distance_phase(d) + noise(rng));
    char buf[200];
    std::snprintf(buf, sizeof buf, "@%s 0,0,0,%.17g,-40,0,%.17g",
                  out.id.c_str(), phase, t);
    out.rows.emplace_back(buf);
  }
  return out;
}

}  // namespace lionbench
