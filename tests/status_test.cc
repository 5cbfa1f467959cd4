#include "src/common/status.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad window size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window size");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad window size");
}

TEST(StatusTest, InternalCarriesCodeAndMessage) {
  const Status s = Status::Internal("connect failed");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.ToString(), "INTERNAL: connect failed");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::Internal("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  ASSERT_TRUE(v.ok());
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

}  // namespace
}  // namespace klink
