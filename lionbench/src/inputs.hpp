// Seeded load generation. Only `sim` and `rf` are used here: they make the
// inputs, they are not measured. Every generator is a pure function of its
// arguments, so the same seed always gives the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vec.hpp"
#include "sim/reader.hpp"

namespace lionbench {

using lion::linalg::Vec3;

/// Believed (ruler-measured) center of every simulated antenna unit.
inline const Vec3 kPhysicalCenter{0.0, 0.8, 0.0};

/// One simulated antenna unit swept by the default 0.55 m three-line rig
/// in kLabTypical multipath.
struct Unit {
  std::uint32_t id = 0;  ///< antenna identity (rf::make_antenna quirks)
  Vec3 truth{};          ///< simulated phase center
  std::vector<lion::sim::PhaseSample> samples;  ///< the reads, in order
  std::vector<std::string> rows;  ///< wire CSV rows (when requested)
};

/// Unit `index` of the fleet drawn from `seed`. `stride` > 1 keeps every
/// stride-th read (a cheaper scan of the same geometry). `with_rows` also
/// renders the reads as wire rows.
Unit make_unit(std::uint64_t seed, std::size_t index, std::size_t stride,
               bool with_rows);

/// One read as a wire CSV row: x,y,z,phase,rssi,channel,t with round-trip
/// precision.
std::string csv_row(const lion::sim::PhaseSample& s);

/// Parse the first `count` rows exactly as a session's CSV parser does.
std::vector<lion::sim::PhaseSample> parse_rows(
    const std::vector<std::string>& rows, std::size_t count);

/// A conveyor-belt read stream for one track-mode session.
struct TrackStream {
  std::string id;
  std::string declare;            ///< `!session ... mode=track ...`
  std::vector<std::string> rows;  ///< `@id x,y,z,phase,rssi,ch,t` lines
};

TrackStream make_track(std::uint64_t seed, std::size_t index,
                       std::size_t rows);

/// splitmix64, for deriving seeds and ids.
std::uint64_t mix(std::uint64_t x);

}  // namespace lionbench
