#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>

#include "core/pairing.hpp"

namespace lion::core {

LocalizerConfig adaptive_cell_config(const AdaptiveConfig& config,
                                     double interval,
                                     const signal::PhaseProfile& windowed) {
  LocalizerConfig lc = config.base;
  lc.pair_interval = interval;
  // A fresh reference per window: the configured index refers to the
  // full profile, which may be cropped away.
  if (!lc.reference_index || *lc.reference_index >= windowed.size()) {
    lc.reference_index = windowed.size() / 2;
  }
  return lc;
}

bool adaptive_candidate_usable(const LocalizationResult& result,
                               const AdaptiveConfig& config) {
  return result.equations >= config.min_equations &&
         result.condition <= config.max_condition &&
         std::isfinite(result.position[0]) &&
         std::isfinite(result.position[1]) &&
         std::isfinite(result.position[2]);
}

AdaptiveResult finalize_adaptive_sweep(
    std::vector<AdaptiveCandidate> candidates, const AdaptiveConfig& config) {
  AdaptiveResult out;
  out.candidates = std::move(candidates);

  std::vector<const AdaptiveCandidate*> usable;
  for (const auto& c : out.candidates) {
    if (c.usable) usable.push_back(&c);
  }
  if (usable.empty()) {
    throw std::invalid_argument(
        "locate_adaptive: no parameter combination produced a solution");
  }

  std::sort(usable.begin(), usable.end(),
            [](const AdaptiveCandidate* a, const AdaptiveCandidate* b) {
              return std::abs(a->result.mean_residual) <
                     std::abs(b->result.mean_residual);
            });

  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(config.keep_fraction *
                       static_cast<double>(usable.size()))));

  Vec3 avg{};
  double avg_dr = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    avg += usable[i]->result.position;
    avg_dr += usable[i]->result.reference_distance;
    out.selected.push_back(*usable[i]);
  }
  out.position = avg / static_cast<double>(keep);
  out.reference_distance = avg_dr / static_cast<double>(keep);
  out.best_range = usable.front()->range;
  out.best_interval = usable.front()->interval;
  return out;
}

AdaptiveResult locate_adaptive(const signal::PhaseProfile& profile,
                               const AdaptiveConfig& config) {
  if (config.ranges.empty() || config.intervals.empty()) {
    throw std::invalid_argument("locate_adaptive: empty candidate lists");
  }
  const std::size_t n_intervals = config.intervals.size();
  // Pre-sized slots in (range, interval) order: the ranking in
  // finalize_adaptive_sweep sees the same vector whichever thread filled
  // which slot.
  std::vector<AdaptiveCandidate> candidates(config.ranges.size() *
                                            n_intervals);

  // One range's window and its intervals, in order. The window lives only
  // for the task, so at most one per running thread exists at a time.
  const auto solve_range = [&](std::size_t r, linalg::SolverWorkspace* ws) {
    const double range = config.ranges[r];
    const auto windowed =
        restrict_to_x_range(profile, config.range_center_x, range);
    for (std::size_t j = 0; j < n_intervals; ++j) {
      AdaptiveCandidate& cand = candidates[r * n_intervals + j];
      cand.range = range;
      cand.interval = config.intervals[j];
      LocalizerConfig lc =
          adaptive_cell_config(config, cand.interval, windowed);
      lc.workspace = ws;
      try {
        cand.result = LinearLocalizer(lc).locate(windowed);
        cand.usable = adaptive_candidate_usable(cand.result, config);
      } catch (const std::exception&) {
        cand.usable = false;
      }
    }
  };

  if (config.executor == nullptr) {
    for (std::size_t r = 0; r < config.ranges.size(); ++r) {
      solve_range(r, config.base.workspace);
    }
  } else {
    // Widest ranges first: a wider window holds more rows and costs more,
    // so claiming it early shortens the tail of the fork-join. A failing
    // range is remembered in its own slot so the rethrown error is the
    // one the serial loop meets first.
    std::vector<std::size_t> order(config.ranges.size());
    for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
    const auto width = [&](std::size_t r) {
      const double v = config.ranges[r];
      return std::isnan(v) ? -std::numeric_limits<double>::infinity() : v;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return width(a) > width(b);
                     });
    std::vector<std::exception_ptr> errors(order.size());
    config.executor->parallel_for(order.size(), [&](std::size_t i) {
      try {
        solve_range(order[i], nullptr);
      } catch (...) {
        errors[order[i]] = std::current_exception();
      }
    });
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  return finalize_adaptive_sweep(std::move(candidates), config);
}

}  // namespace lion::core
