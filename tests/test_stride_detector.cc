/**
 * @file
 * Unit tests for SVR's stride detector: confidence training, waiting
 * mode ranges, Seen bits, stride limits, and LRU replacement.
 */

#include <gtest/gtest.h>

#include "svr/stride_detector.hh"

namespace svr
{
namespace
{

StrideDetectorParams
params(unsigned entries = 32)
{
    StrideDetectorParams p;
    p.entries = entries;
    return p;
}

TEST(StrideDetector, DetectsConstantStride)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 4; i++)
        obs = sd.observe(0x400, 0x1000 + i * 8);
    EXPECT_TRUE(obs.isStriding);
    EXPECT_TRUE(obs.matched);
    EXPECT_EQ(obs.entry->stride, 8);
}

TEST(StrideDetector, NeedsConfidence)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    const StrideObservation obs = sd.observe(0x400, 0x1008);
    // One delta observed: stride recorded but confidence too low.
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, NegativeStride)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 4; i++)
        obs = sd.observe(0x400, 0x8000 - i * 4);
    EXPECT_TRUE(obs.isStriding);
    EXPECT_EQ(obs.entry->stride, -4);
}

TEST(StrideDetector, LargeStrideRejected)
{
    StrideDetector sd(params());
    StrideObservation obs;
    for (int i = 0; i < 6; i++)
        obs = sd.observe(0x400, 0x1000 + i * 4096);
    // Stride 4096 exceeds the 8-bit stride field (Table II).
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, RandomAddressesNeverStride)
{
    StrideDetector sd(params());
    const Addr addrs[] = {0x1000, 0x9230, 0x4418, 0xff00, 0x0140};
    StrideObservation obs;
    for (Addr a : addrs)
        obs = sd.observe(0x400, a);
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, WaitRangePositiveStride)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    StrideEntry *e = sd.find(0x400);
    ASSERT_NE(e, nullptr);
    // Simulate a runahead round covering 16 elements ahead.
    e->lastPrefetch = 0x1018 + 16 * 8;
    e->hasLastPrefetch = true;
    // Next accesses inside the range report waiting.
    StrideObservation obs = sd.observe(0x400, 0x1020);
    EXPECT_TRUE(obs.inWaitRange);
    obs = sd.observe(0x400, 0x1018 + 16 * 8);
    EXPECT_TRUE(obs.inWaitRange);
    // First access beyond Last Prefetch leaves waiting mode.
    obs = sd.observe(0x400, 0x1018 + 17 * 8);
    EXPECT_FALSE(obs.inWaitRange);
    EXPECT_FALSE(e->hasLastPrefetch);
}

TEST(StrideDetector, WaitRangeDiscontinuityExitsEarly)
{
    // A jump far away (new loop instance) must escape waiting mode
    // even though the covered range was not consumed (footnote 3).
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    StrideEntry *e = sd.find(0x400);
    e->lastPrefetch = 0x2000;
    e->hasLastPrefetch = true;
    const StrideObservation obs = sd.observe(0x400, 0x90000);
    EXPECT_FALSE(obs.inWaitRange);
}

TEST(StrideDetector, WaitRangeNegativeStride)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x8000 - i * 8);
    StrideEntry *e = sd.find(0x400);
    e->lastPrefetch = 0x8000 - 20 * 8;
    e->hasLastPrefetch = true;
    StrideObservation obs = sd.observe(0x400, 0x8000 - 5 * 8);
    EXPECT_TRUE(obs.inWaitRange);
    obs = sd.observe(0x400, 0x8000 - 21 * 8);
    EXPECT_FALSE(obs.inWaitRange);
}

TEST(StrideDetector, SeenBitsClearedExcept)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.observe(0x500, 0x2000);
    sd.observe(0x600, 0x3000);
    sd.markSeen(*sd.find(0x400));
    sd.markSeen(*sd.find(0x500));
    sd.markSeen(*sd.find(0x600));
    sd.clearSeenExcept(0x500);
    EXPECT_FALSE(sd.seen(*sd.find(0x400)));
    EXPECT_TRUE(sd.seen(*sd.find(0x500)));
    EXPECT_FALSE(sd.seen(*sd.find(0x600)));
}

TEST(StrideDetector, LruEviction)
{
    StrideDetector sd(params(2));
    sd.observe(0x400, 0x1000);
    sd.observe(0x500, 0x2000);
    sd.observe(0x400, 0x1008); // refresh 0x400
    sd.observe(0x600, 0x3000); // evicts 0x500
    EXPECT_NE(sd.find(0x400), nullptr);
    EXPECT_EQ(sd.find(0x500), nullptr);
    EXPECT_NE(sd.find(0x600), nullptr);
}

TEST(StrideDetector, ConfidenceDecaysOnMismatch)
{
    StrideDetector sd(params());
    for (int i = 0; i < 4; i++)
        sd.observe(0x400, 0x1000 + i * 8);
    // Break the pattern repeatedly.
    sd.observe(0x400, 0x9000);
    sd.observe(0x400, 0xa000);
    sd.observe(0x400, 0xb500);
    const StrideObservation obs = sd.observe(0x400, 0xc000);
    EXPECT_FALSE(obs.isStriding);
}

TEST(StrideDetector, UselessnessResets)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.find(0x400)->uselessRounds = 8;
    sd.resetUselessness();
    EXPECT_EQ(sd.find(0x400)->uselessRounds, 0u);
}

TEST(StrideDetector, ResetDropsEntries)
{
    StrideDetector sd(params());
    sd.observe(0x400, 0x1000);
    sd.reset();
    EXPECT_EQ(sd.find(0x400), nullptr);
}

} // namespace
} // namespace svr
