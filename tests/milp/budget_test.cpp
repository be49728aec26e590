#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "milp/budget.hpp"

namespace archex::milp {
namespace {

using Clock = Budget::Clock;

TEST(BudgetTest, DefaultIsUnlimited) {
  const Budget b;
  EXPECT_FALSE(b.limited());
  EXPECT_EQ(b.deadline_from(Clock::now()), Clock::time_point::max());
  EXPECT_EQ(Budget::unlimited().seconds, std::numeric_limits<double>::infinity());
}

TEST(BudgetTest, ConstructorsAgreeOnUnits) {
  EXPECT_DOUBLE_EQ(Budget::of_seconds(2.5).seconds, 2.5);
  EXPECT_DOUBLE_EQ(Budget::of_ms(2500.0).seconds, 2.5);
  EXPECT_TRUE(Budget::of_seconds(2.5).limited());
}

TEST(BudgetTest, DeadlineFromIsTheStartPlusTheAllowance) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point d = Budget::of_seconds(1.5).deadline_from(start);
  const double delta = std::chrono::duration<double>(d - start).count();
  EXPECT_NEAR(delta, 1.5, 1e-6);
}

TEST(BudgetTest, NegativeBudgetClampsToStart) {
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(Budget::of_seconds(-3.0).deadline_from(start), start);
  EXPECT_EQ(Budget::of_seconds(0.0).deadline_from(start), start);
}

TEST(BudgetTest, NanBehavesAsUnlimited) {
  const Budget b = Budget::of_seconds(std::nan(""));
  EXPECT_FALSE(b.limited());
  EXPECT_EQ(b.deadline_from(Clock::now()), Clock::time_point::max());
}

TEST(BudgetTest, HugeBudgetSaturatesInsteadOfOverflowing) {
  // A duration cast of 1e18 seconds would overflow steady_clock's range;
  // the conversion point must saturate to the "never" sentinel.
  const Budget b = Budget::of_seconds(1e18);
  EXPECT_TRUE(b.limited());
  EXPECT_EQ(b.deadline_from(Clock::now()), Clock::time_point::max());
}

TEST(BudgetTest, TighterPicksTheSmallerAllowance) {
  EXPECT_DOUBLE_EQ(Budget::tighter(Budget::of_seconds(2.0), Budget::of_seconds(5.0)).seconds,
                   2.0);
  EXPECT_DOUBLE_EQ(Budget::tighter(Budget::unlimited(), Budget::of_seconds(5.0)).seconds,
                   5.0);
  // NaN loses against anything, including the unlimited default.
  EXPECT_DOUBLE_EQ(
      Budget::tighter(Budget::of_seconds(std::nan("")), Budget::of_seconds(5.0)).seconds,
      5.0);
  EXPECT_FALSE(Budget::tighter(Budget::of_seconds(std::nan("")), Budget::unlimited())
                   .limited());
}

TEST(BudgetTest, DeadlineFromReturnsTheEarlierEnd) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point soon = start + std::chrono::seconds(1);
  const Clock::time_point late = start + std::chrono::seconds(10);
  // `until` alone ends at its time point, whatever the start.
  EXPECT_EQ(Budget::until(soon).deadline_from(start), soon);
  // Both parts set: the earlier end wins, whichever part it comes from.
  EXPECT_EQ(Budget::tighter(Budget::of_seconds(5.0), Budget::until(soon)).deadline_from(start),
            soon);
  const Clock::time_point d =
      Budget::tighter(Budget::of_seconds(2.0), Budget::until(late)).deadline_from(start);
  EXPECT_NEAR(std::chrono::duration<double>(d - start).count(), 2.0, 1e-6);
  // A relative part too large for the clock still leaves `until` in charge.
  EXPECT_EQ(Budget::tighter(Budget::of_seconds(1e18), Budget::until(soon)).deadline_from(start),
            soon);
}

TEST(BudgetTest, TighterKeepsTheEarlierUntil) {
  const Clock::time_point now = Clock::now();
  const Clock::time_point early = now + std::chrono::milliseconds(100);
  const Clock::time_point late = now + std::chrono::seconds(100);
  EXPECT_EQ(Budget::tighter(Budget::until(late), Budget::until(early)).end, early);
  EXPECT_EQ(Budget::tighter(Budget::until(early), Budget::unlimited()).end, early);
  // Mixing kinds keeps both parts: the allowance of one, the end of the other.
  const Budget mixed = Budget::tighter(Budget::of_seconds(3.0), Budget::until(late));
  EXPECT_DOUBLE_EQ(mixed.seconds, 3.0);
  EXPECT_EQ(mixed.end, late);
  EXPECT_TRUE(Budget::until(late).limited());
}

TEST(BudgetTest, PastUntilWithInfiniteSecondsIsAlreadyExpired) {
  const Clock::time_point past = Clock::now() - std::chrono::seconds(1);
  const Budget b = Budget::until(past);
  EXPECT_EQ(b.seconds, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(b.limited());
  const Clock::time_point now = Clock::now();
  EXPECT_LE(b.deadline_from(now), now);
}

}  // namespace
}  // namespace archex::milp
