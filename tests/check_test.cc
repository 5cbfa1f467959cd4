#include "src/common/check.h"

#include <string>

#include <gtest/gtest.h>

#include "src/common/status.h"

namespace klink {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  KLINK_CHECK(true);
  KLINK_CHECK_EQ(2 + 2, 4);
  KLINK_CHECK_NE(1, 2);
  KLINK_CHECK_LT(1, 2);
  KLINK_CHECK_LE(2, 2);
  KLINK_CHECK_GT(3, 2);
  KLINK_CHECK_GE(3, 3);
  KLINK_CHECK_OK(Status::Ok());
  KLINK_CHECK_OK(StatusOr<int>(7));
}

TEST(CheckTest, OperandsEvaluateExactlyOnce) {
  int a = 0;
  int b = 10;
  KLINK_CHECK_LT([&] { return ++a; }(), [&] { return ++b; }());
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 11);
  KLINK_CHECK_OK([&] {
    ++a;
    return Status::Ok();
  }());
  EXPECT_EQ(a, 2);
}

TEST(CheckTest, CheckOpValueFormatsCommonTypes) {
  using check_internal::CheckOpValue;
  EXPECT_EQ(CheckOpValue(42), "42");
  EXPECT_EQ(CheckOpValue(int64_t{-7}), "-7");
  EXPECT_EQ(CheckOpValue(true), "true");
  EXPECT_EQ(CheckOpValue(std::string("abc")), "abc");
  EXPECT_EQ(CheckOpValue("lit"), "lit");
  EXPECT_EQ(CheckOpValue(static_cast<const char*>(nullptr)), "(null)");
  EXPECT_EQ(CheckOpValue(0.5), "0.5");
  // Full precision round-trips: the printed double parses back exactly.
  const double v = 1.0 / 3.0;
  EXPECT_EQ(std::stod(CheckOpValue(v)), v);
  struct Opaque {};
  EXPECT_EQ(CheckOpValue(Opaque{}), "<unprintable>");
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckPrintsExpression) {
  EXPECT_DEATH(KLINK_CHECK(1 == 2), "KLINK_CHECK failed .*: 1 == 2");
}

TEST(CheckDeathTest, CheckOpPrintsEvaluatedValues) {
  const int lhs = 3;
  const int rhs = 7;
  EXPECT_DEATH(KLINK_CHECK_EQ(lhs, rhs), "lhs == rhs \\(3 vs 7\\)");
  EXPECT_DEATH(KLINK_CHECK_GE(lhs * 2, rhs * 2), "\\(6 vs 14\\)");
}

TEST(CheckDeathTest, CheckOpPrintsDoubleValues) {
  const double x = 0.25;
  EXPECT_DEATH(KLINK_CHECK_GT(x, 1.5), "\\(0.25 vs 1.5\\)");
}

TEST(CheckDeathTest, CheckOkPrintsStatus) {
  EXPECT_DEATH(KLINK_CHECK_OK(Status::InvalidArgument("bad port")),
               "INVALID_ARGUMENT: bad port");
  EXPECT_DEATH(KLINK_CHECK_OK(StatusOr<int>(Status::Internal("no stream"))),
               "INTERNAL: no stream");
}

TEST(CheckDeathTest, DcheckActiveMatchesBuildMode) {
#ifdef NDEBUG
  KLINK_DCHECK(false);  // compiled away
#else
  EXPECT_DEATH(KLINK_DCHECK(false), "KLINK_CHECK failed");
#endif
}

}  // namespace
}  // namespace klink
