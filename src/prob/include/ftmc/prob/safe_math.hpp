/// \file safe_math.hpp
/// \brief Numerically stable scalar building blocks for probability bounds.
///
/// The PFH analysis of the paper manipulates probabilities spanning ~45
/// orders of magnitude (f^n with f = 1e-5 and n up to ~9) and complements of
/// products of near-unity survival probabilities raised to ~1e6-th powers.
/// Every primitive here is written so that *relative* accuracy of the small
/// quantity of interest (a failure probability) is preserved.
#pragma once

#include <cmath>
#include <limits>

#include "ftmc/common/contracts.hpp"

namespace ftmc::prob {

/// ln |Gamma(x)| through POSIX lgamma_r. std::lgamma stores the sign of
/// Gamma(x) in the process-global `signgam`, a data race once analyses
/// run on several threads (exec pools); lgamma_r returns the same value
/// and writes the sign to a local instead.
inline double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// log(1 - exp(x)) for x < 0, stable for both x -> 0- and x -> -inf.
/// Uses the Maechler (2012) split at -ln 2.
inline double log1mexp(double x) {
  FTMC_EXPECTS(x <= 0.0, "log1mexp requires x <= 0");
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  constexpr double kLn2 = 0.6931471805599453;
  if (x > -kLn2) {
    return std::log(-std::expm1(x));
  }
  return std::log1p(-std::exp(x));
}

/// log(p^n) = n * log(p) for a probability p in [0,1] and integer n >= 0.
/// Returns 0 for n == 0 (p^0 == 1) and -inf for p == 0, n > 0.
inline double log_pow(double p, long long n) {
  FTMC_EXPECTS(p >= 0.0 && p <= 1.0, "log_pow requires a probability");
  FTMC_EXPECTS(n >= 0, "log_pow requires a non-negative exponent");
  if (n == 0) return 0.0;
  if (p == 0.0) return -std::numeric_limits<double>::infinity();
  return static_cast<double>(n) * std::log(p);
}

/// log((1-p)^r) = r * log1p(-p): the log-survival of r independent trials
/// each failing with probability p. Stable for tiny p and huge r.
inline double log_survival(double p, double r) {
  FTMC_EXPECTS(p >= 0.0 && p <= 1.0, "log_survival requires a probability");
  FTMC_EXPECTS(r >= 0.0, "log_survival requires a non-negative count");
  if (p >= 1.0) {
    return r == 0.0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  return r * std::log1p(-p);
}

/// 1 - exp(log_s): the complement of a survival probability given in log
/// domain. Preserves relative accuracy when exp(log_s) is close to 1.
inline double complement_from_log(double log_s) {
  FTMC_EXPECTS(log_s <= 0.0, "complement_from_log requires log_s <= 0");
  return -std::expm1(log_s);
}

/// 1 - (1-a)(1-b) computed without cancellation: a + b - a*b.
inline double union_bound_pair(double a, double b) {
  FTMC_EXPECTS(a >= 0.0 && a <= 1.0 && b >= 0.0 && b <= 1.0,
               "union_bound_pair requires probabilities");
  return a + b - a * b;
}

/// p^n in linear domain through the log domain (exact for the magnitudes
/// used here; avoids pow() corner cases for p == 0 / n == 0).
inline double pow_prob(double p, long long n) {
  return std::exp(log_pow(p, n));
}

}  // namespace ftmc::prob
