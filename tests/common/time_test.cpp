#include "ftmc/common/time.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ftmc {
namespace {

TEST(Time, HoursToMillis) {
  EXPECT_DOUBLE_EQ(hours_to_millis(1.0), 3'600'000.0);
  EXPECT_DOUBLE_EQ(hours_to_millis(10.0), 36'000'000.0);
  EXPECT_DOUBLE_EQ(hours_to_millis(0.5), 1'800'000.0);
}

TEST(Time, TickConversionRoundTrip) {
  EXPECT_EQ(sim::millis_to_ticks(1.0), 1'000);
  EXPECT_EQ(sim::millis_to_ticks(0.001), 1);
  EXPECT_EQ(sim::millis_to_ticks(60.0), 60'000);
  EXPECT_DOUBLE_EQ(sim::ticks_to_millis(60'000), 60.0);
  EXPECT_DOUBLE_EQ(sim::ticks_to_millis(1), 0.001);
}

TEST(Time, TickConversionRoundsToNearest) {
  // 0.0004 ms = 0.4 us rounds down; 0.0006 ms = 0.6 us rounds up.
  EXPECT_EQ(sim::millis_to_ticks(0.0004), 0);
  EXPECT_EQ(sim::millis_to_ticks(0.0006), 1);
}

TEST(Time, TickConversionRefusesValuesOutsideTheTickRange) {
  // A bare cast of any of these to int64 is undefined behaviour.
  EXPECT_FALSE(sim::try_millis_to_ticks(std::nan("")).has_value());
  EXPECT_FALSE(sim::try_millis_to_ticks(HUGE_VAL).has_value());
  EXPECT_FALSE(sim::try_millis_to_ticks(-HUGE_VAL).has_value());
  EXPECT_FALSE(sim::try_millis_to_ticks(-0.001).has_value());
  EXPECT_FALSE(sim::try_millis_to_ticks(0x1p63 / 1000.0).has_value());
  EXPECT_FALSE(sim::try_millis_to_ticks(1e300).has_value());
  EXPECT_EQ(sim::try_millis_to_ticks(9.2e15), 9'200'000'000'000'000'000);
  EXPECT_THROW((void)sim::millis_to_ticks(1e300), ContractViolation);
}

TEST(Time, HourInTicks) {
  EXPECT_EQ(sim::kTicksPerHour, 3'600'000'000LL);
  EXPECT_EQ(sim::millis_to_ticks(kMillisPerHour), sim::kTicksPerHour);
}

TEST(Time, OneHourHorizonFitsExactlyInDouble) {
  // The analysis relies on t = O_S hours being exactly representable.
  const Millis t = hours_to_millis(10.0);
  EXPECT_EQ(t, 36'000'000.0);
  EXPECT_EQ(t + 1.0 - t, 1.0);  // integer-exact arithmetic at this scale
}

}  // namespace
}  // namespace ftmc
