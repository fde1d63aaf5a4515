#include "ftmc/obs/progress.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace ftmc::obs {

std::string format_progress(std::string_view label, const Progress& p) {
  std::ostringstream out;
  out << label << " " << p.done << "/" << p.total << " ("
      << static_cast<int>(p.fraction() * 100.0 + 0.5) << "%) ";
  out.precision(1);
  out << std::fixed << p.wall_seconds << "s elapsed";
  if (p.eta_seconds >= 0.0) {
    out << ", eta " << p.eta_seconds << "s";
  }
  return out.str();
}

ProgressFn stderr_progress(std::string label) {
  using Clock = std::chrono::steady_clock;
  return [label = std::move(label),
          last = Clock::now()](const Progress& p) mutable {
    if (p.done < p.total) {
      const Clock::time_point now = Clock::now();
      if (now - last < std::chrono::milliseconds(250)) return;
      last = now;
    }
    std::fputs(("\r" + format_progress(label, p)).c_str(), stderr);
    if (p.done >= p.total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };
}

}  // namespace ftmc::obs
