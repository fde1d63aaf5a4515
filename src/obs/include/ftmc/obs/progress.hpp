/// \file progress.hpp
/// \brief Progress reporting for long-running campaigns.
///
/// The parallel runtime invokes a ProgressFn from the COORDINATING thread
/// only, so the callback needs no synchronization of its own (it may
/// freely write to stderr, update a UI, ...). It hands over every
/// completion that thread observes, plus a final {done == total} call;
/// a callback that prints limits its own rate, as stderr_progress does.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace ftmc::obs {

/// One progress update: `done` of `total` items finished, `wall_seconds`
/// elapsed, `eta_seconds` the remaining-time estimate (< 0 when unknown,
/// i.e. before the first item completed).
struct Progress {
  std::size_t done = 0;
  std::size_t total = 0;
  double wall_seconds = 0.0;
  double eta_seconds = -1.0;

  [[nodiscard]] double fraction() const noexcept {
    return total > 0 ? static_cast<double>(done) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

using ProgressFn = std::function<void(const Progress&)>;

/// "label 450/1000 (45%) 2.1s elapsed, eta 2.6s".
[[nodiscard]] std::string format_progress(std::string_view label,
                                          const Progress& p);

/// A ProgressFn printing carriage-return-refreshed updates to stderr, at
/// most one every 0.25 s (counted from its creation), and always the
/// final one (done == total, newline-terminated).
[[nodiscard]] ProgressFn stderr_progress(std::string label);

}  // namespace ftmc::obs
