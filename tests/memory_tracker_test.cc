#include "src/runtime/memory_tracker.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

TEST(MemoryTrackerTest, UtilizationFraction) {
  MemoryTracker t(1000);
  t.Update(250);
  EXPECT_DOUBLE_EQ(t.utilization(), 0.25);
  EXPECT_EQ(t.used_bytes(), 250);
  EXPECT_EQ(t.capacity_bytes(), 1000);
}

TEST(MemoryTrackerTest, PeakTracksMaximum) {
  MemoryTracker t(1000);
  t.Update(300);
  t.Update(700);
  t.Update(100);
  EXPECT_EQ(t.peak_bytes(), 700);
}

TEST(MemoryTrackerTest, BackpressureEngagesAtCapacity) {
  MemoryTracker t(1000);
  t.Update(999);
  EXPECT_FALSE(t.backpressured());
  t.Update(1000);
  EXPECT_TRUE(t.backpressured());
}

TEST(MemoryTrackerTest, HysteresisOnResume) {
  MemoryTracker t(1000);
  t.Update(1000);
  ASSERT_TRUE(t.backpressured());
  t.Update(900);  // below capacity but above the resume threshold
  EXPECT_TRUE(t.backpressured());
  t.Update(800);  // at the resume threshold
  EXPECT_FALSE(t.backpressured());
}

TEST(MemoryTrackerTest, ReengagesAfterResume) {
  MemoryTracker t(1000);
  t.Update(1000);
  t.Update(500);
  EXPECT_FALSE(t.backpressured());
  t.Update(1200);
  EXPECT_TRUE(t.backpressured());
}

}  // namespace
}  // namespace klink
