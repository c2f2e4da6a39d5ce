// Two-lane SIMD values for the exact lane-parallel kernels (DESIGN §10.7).
//
// GCC vector-extension types: the compiler lowers them to the target's
// SIMD registers (SSE2 at the default x86-64 ISA, NEON on aarch64) or to
// scalar code, with no intrinsics and no ISA-specific path. Each lane
// performs the IEEE operation its scalar counterpart would, so a lane
// rounds exactly like the scalar loop it replaces.
#pragma once

#include <cstring>

namespace lion::linalg {

/// Two doubles.
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

/// Two 64-bit integers: the lane masks a comparison of Lanes2 yields
/// (-1 where true, 0 where false), and lane-wise counters.
typedef long long Counts2
    __attribute__((vector_size(2 * sizeof(long long))));

/// Unaligned load of p[0], p[1].
inline Lanes2 load2(const double* p) {
  Lanes2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned store of both lanes to p[0], p[1].
inline void store2(double* p, Lanes2 v) { std::memcpy(p, &v, sizeof v); }

/// Both lanes set to v.
inline Lanes2 splat2(double v) { return Lanes2{v, v}; }

/// Lane-wise |v| by clearing the sign bit, as std::abs does.
inline Lanes2 abs2(Lanes2 v) {
  return (Lanes2)((Counts2)v & Counts2{0x7fffffffffffffffLL,
                                        0x7fffffffffffffffLL});
}

}  // namespace lion::linalg
