// Steady-state allocation contract of the small-system solver core: once a
// SolverWorkspace and result object have been warmed on a system shape, the
// whole RANSAC/IRLS hot path must not touch the heap again. This pins the
// PR's central claim — allocator pressure, not FLOPs, dominated the batch
// engine — with a hard zero, not a benchmark.
//
// Mechanism: the test binary replaces the global allocation functions with
// counting wrappers. Counting is gated by an atomic flag so GTest's own
// bookkeeping between phases does not pollute the numbers; delete stays
// unconditional (it must always free what any new returned).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <stdio.h>
#include <unistd.h>

#include "core/ransac.hpp"
#include "io/csv.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "linalg/small.hpp"
#include "linalg/stats.hpp"
#include "rf/rng.hpp"
#include "serve/journal.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lion {
namespace {

struct Problem {
  linalg::Matrix a;
  std::vector<double> b;
};

Problem line_problem(std::size_t n, double outlier_fraction,
                     std::uint64_t seed) {
  rf::Rng rng(seed);
  Problem p{linalg::Matrix(n, 2), std::vector<double>(n)};
  const std::size_t bad =
      static_cast<std::size_t>(outlier_fraction * static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 0.1 * static_cast<double>(i);
    p.a(i, 0) = x;
    p.a(i, 1) = 1.0;
    p.b[i] = 2.0 * x - 3.0 + rng.gaussian(0.01);
    if (i < bad) p.b[i] += 5.0;
  }
  return p;
}

/// Count global-new calls while running `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationContract, CountersSeeVectorGrowth) {
  // Sanity-check the instrumentation itself: heap traffic is visible.
  const std::size_t n = allocations_during([] {
    std::vector<double> v(4096);
    v[0] = 1.0;
  });
  EXPECT_GT(n, 0u);
}

TEST(AllocationContract, WarmRansacSolveIsAllocationFree) {
  const auto p = line_problem(120, 0.3, 11);
  const core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  // Two warm passes: the first sizes the workspace and result vectors, the
  // second proves the sizing is stable before counting starts.
  core::ransac_solve(p.a, p.b, opt, ws, out);
  core::ransac_solve(p.a, p.b, opt, ws, out);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) core::ransac_solve(p.a, p.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warmed consensus loop touched the heap " << n
                   << " times";
  ASSERT_TRUE(out.consensus);
}

TEST(AllocationContract, WarmIrlsSolveIsAllocationFree) {
  const auto p = line_problem(120, 0.1, 12);
  linalg::IrlsOptions opt;
  opt.loss = linalg::RobustLoss::kHuber;
  linalg::SolverWorkspace ws;
  linalg::LstsqResult out;
  linalg::solve_irls(p.a, p.b, opt, ws, out);
  linalg::solve_irls(p.a, p.b, opt, ws, out);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) linalg::solve_irls(p.a, p.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "warmed IRLS loop touched the heap " << n << " times";
  ASSERT_EQ(out.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(out.x[0]));
}

TEST(AllocationContract, WarmMaskedIrlsSolveIsAllocationFree) {
  // The consensus refit: IRLS over the rows a RANSAC inlier mask selects,
  // compacted into the workspace, with bracketed medians from the second
  // round on.
  const auto p = line_problem(150, 0.2, 15);
  linalg::IrlsOptions opt;
  opt.loss = linalg::RobustLoss::kHuber;
  std::vector<char> mask(p.a.rows(), 1);
  std::size_t count = mask.size();
  for (std::size_t i = 0; i < mask.size(); i += 5) {
    mask[i] = 0;
    --count;
  }
  linalg::SolverWorkspace ws;
  ws.load(p.a, p.b);
  linalg::LstsqResult out;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(linalg::solve_irls_masked(ws, mask.data(), count, opt, out),
              linalg::SolveStatus::kOk);
  }

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) {
      linalg::solve_irls_masked(ws, mask.data(), count, opt, out);
    }
  });
  EXPECT_EQ(n, 0u) << "warmed masked IRLS touched the heap " << n << " times";
  EXPECT_GT(out.iterations, 1u);
  EXPECT_EQ(out.weights.size(), count);
}

TEST(AllocationContract, WarmSameShapeLoadIsAllocationFree) {
  // load() rewrites the column-major cache in place.
  const auto p = line_problem(200, 0.1, 16);
  const auto q = line_problem(200, 0.3, 17);
  linalg::SolverWorkspace ws;
  ws.load(p.a, p.b);

  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) {
      ws.load(q.a, q.b);
      ws.load(p.a, p.b);
    }
  });
  EXPECT_EQ(n, 0u) << "same-shape load touched the heap " << n << " times";
  EXPECT_EQ(ws.rows(), 200u);
}

TEST(AllocationContract, SampledMedianSelectionIsAllocationFree) {
  // n = 8192 takes the verified sample bracket; its sample lives on the
  // stack and its compaction swaps within the range.
  rf::Rng rng(18);
  std::vector<double> values(8192);
  for (auto& v : values) v = rng.gaussian(1.0);
  std::vector<double> work = values;

  double sink = 0.0;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 5; ++i) {
      std::copy(values.begin(), values.end(), work.begin());
      sink += linalg::median_order_in_place(work.data(),
                                            work.data() + work.size())
                  .median;
    }
  });
  EXPECT_EQ(n, 0u) << "median selection touched the heap " << n << " times";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocationContract, ReloadAcrossShapesStaysAllocationFreeOnceWarm) {
  // Alternating between two row counts after warming both: load() must
  // reuse capacity, not reallocate per shape switch.
  const auto small = line_problem(60, 0.2, 13);
  const auto large = line_problem(140, 0.2, 14);
  const core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  for (int i = 0; i < 2; ++i) {
    core::ransac_solve(small.a, small.b, opt, ws, out);
    core::ransac_solve(large.a, large.b, opt, ws, out);
  }

  const std::size_t n = allocations_during([&] {
    core::ransac_solve(small.a, small.b, opt, ws, out);
    core::ransac_solve(large.a, large.b, opt, ws, out);
  });
  EXPECT_EQ(n, 0u) << "shape switch reallocated " << n << " times";
}

TEST(AllocationContract, CsvDataRowIsAllocationFreeOnceTheLayoutIsLocked) {
  // The serve shard thread parses every wire read with this call; its
  // fields are string_views and plain decimals never reach std::stod.
  std::vector<std::string> rows;
  rf::Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g,%.6f,%d,%.17g",
                  rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                  rng.uniform(0.0, 0.5), rng.uniform(0.0, 6.28),
                  rng.uniform(-70.0, -40.0), i % 16, 0.01 * i);
    rows.emplace_back(buf);
  }
  io::CsvStreamParser parser;
  ASSERT_EQ(parser.push_line("x,y,z,phase,rssi,channel,t").status,
            io::CsvRowStatus::kHeader);
  ASSERT_EQ(parser.push_line(rows[0]).status, io::CsvRowStatus::kSample);

  std::size_t parsed = 0;
  const std::size_t n = allocations_during([&] {
    for (const std::string& row : rows) {
      parsed += parser.push_line(row).status == io::CsvRowStatus::kSample;
    }
  });
  EXPECT_EQ(n, 0u) << "data rows touched the heap " << n << " times";
  EXPECT_EQ(parsed, rows.size());
}

TEST(AllocationContract, WarmJournalAppendIsAllocationFree) {
  char tmpl[] = "/tmp/lion_alloc_journal_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  {
    serve::JournalStoreConfig cfg;
    cfg.dir = dir;
    cfg.fsync_every = 64;  // a few syncs land inside the counted window
    serve::JournalStore store(cfg);
    ASSERT_TRUE(store.ok()) << store.error();
    auto writer = store.open_writer("alloc", 0);
    ASSERT_NE(writer, nullptr);
    const std::string row =
        "0.12345678901234567,-0.5,0.25,3.1415926535897931,-55.5,3,0.125";
    ASSERT_TRUE(writer->append(serve::JournalRecordType::kCsvRow, row, 1, 1));

    bool ok = true;
    const std::size_t n = allocations_during([&] {
      for (std::uint64_t i = 2; i < 200; ++i) {
        ok = writer->append(serve::JournalRecordType::kCsvRow, row, i, i) &&
             ok;
      }
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(n, 0u) << "warm appends touched the heap " << n << " times";
    writer.reset();
    store.remove("alloc");
  }
  ::rmdir(dir);
}

}  // namespace
}  // namespace lion
