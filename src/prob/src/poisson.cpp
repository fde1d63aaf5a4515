#include "ftmc/prob/poisson.hpp"

#include <cmath>
#include <limits>

#include "ftmc/common/contracts.hpp"
#include "ftmc/prob/safe_math.hpp"

namespace ftmc::prob {
namespace {

// Series expansion of P(a, x), converges fast for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 1000; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Lentz continued fraction for Q(a, x), converges fast for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double gamma_p(double a, double x) {
  FTMC_EXPECTS(a > 0.0 && x >= 0.0, "gamma_p: need a > 0, x >= 0");
  if (x == 0.0) return 0.0;
  return x < a + 1.0 ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  FTMC_EXPECTS(a > 0.0 && x >= 0.0, "gamma_q: need a > 0, x >= 0");
  if (x == 0.0) return 1.0;
  return x < a + 1.0 ? 1.0 - gamma_p_series(a, x) : gamma_q_cf(a, x);
}

PoissonInterval poisson_interval(std::uint64_t k, double confidence) {
  FTMC_EXPECTS(confidence > 0.0 && confidence < 1.0,
               "poisson_interval: confidence must be in (0, 1)");
  const double alpha = 1.0 - confidence;
  const double half = alpha / 2.0;
  const double kd = static_cast<double>(k);
  PoissonInterval ci;

  // Bisection is robust here: both target functions are strictly
  // monotone in mu and cheap to evaluate.
  const auto bisect = [](double lo, double hi, auto f) {
    for (int i = 0; i < 200; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (mid == lo || mid == hi) break;
      if (f(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return 0.5 * (lo + hi);
  };

  if (k > 0) {
    // P(X >= k; mu) = gamma_p(k, mu), increasing in mu; the lower
    // endpoint makes seeing >= k events a half-alpha tail event.
    ci.lower = bisect(0.0, kd, [&](double mu) {
      return gamma_p(kd, mu) >= half;
    });
  }

  // P(X <= k; mu) = gamma_q(k + 1, mu), decreasing in mu. For k = 0 this
  // is exp(-mu), so upper = -ln(alpha/2) (~3.689 at 95%).
  double hi = kd + 10.0 * std::sqrt(kd + 1.0) + 10.0;
  while (gamma_q(kd + 1.0, hi) > half) hi *= 2.0;
  ci.upper = bisect(kd, hi, [&](double mu) {
    return gamma_q(kd + 1.0, mu) <= half;
  });
  return ci;
}

}  // namespace ftmc::prob
