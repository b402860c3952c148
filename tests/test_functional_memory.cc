/**
 * @file
 * Unit tests for the sparse functional memory (copy-on-write forks of
 * a shared image, page-at-a-time writes and the allocator's bounds
 * included) and array layout helpers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "mem/functional_memory.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "test_helpers.hh"
#include "workloads/workload.hh"

namespace svr
{
namespace
{

TEST(FunctionalMemory, ZeroInitialized)
{
    FunctionalMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u); // reads do not materialize pages
}

TEST(FunctionalMemory, ReadBackAllSizes)
{
    FunctionalMemory m;
    m.write(0x1000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
}

TEST(FunctionalMemory, PartialWriteOnlyTouchesBytes)
{
    FunctionalMemory m;
    m.write(0x2000, 0xffffffffffffffffULL, 8);
    m.write(0x2002, 0xab, 1);
    EXPECT_EQ(m.read(0x2000, 8), 0xffffffffffabffffULL);
}

TEST(FunctionalMemory, PageStraddlingAccess)
{
    FunctionalMemory m;
    const Addr addr = pageBytes - 4; // straddles two pages
    m.write(addr, 0x0102030405060708ULL, 8);
    EXPECT_EQ(m.read(addr, 8), 0x0102030405060708ULL);
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(FunctionalMemory, StraddleEveryWidthAtEveryOffset)
{
    // Every multi-byte width at every split point across the page
    // boundary exercises the byte-loop slow path on both sides.
    for (unsigned bytes : {2u, 4u, 8u}) {
        for (unsigned on_second = 1; on_second < bytes; on_second++) {
            FunctionalMemory m;
            const Addr addr = 3 * pageBytes - (bytes - on_second);
            const std::uint64_t val =
                0x1122334455667788ULL >> (8 * (8 - bytes));
            m.write(addr, val, bytes);
            EXPECT_EQ(m.read(addr, bytes), val)
                << "bytes=" << bytes << " on_second=" << on_second;
            // Byte-level agreement across the boundary.
            for (unsigned i = 0; i < bytes; i++)
                EXPECT_EQ(m.read(addr + i, 1), (val >> (8 * i)) & 0xff);
            EXPECT_EQ(m.pagesTouched(), 2u);
        }
    }
}

TEST(FunctionalMemory, StraddleReadIntoUnmappedPageZeroFills)
{
    FunctionalMemory m;
    // Fill the last 8 bytes of a page; the next page stays unmapped.
    m.write(pageBytes - 8, ~0ULL, 8);
    EXPECT_EQ(m.pagesTouched(), 1u);
    // A straddling read gets real bytes low, zeros high...
    EXPECT_EQ(m.read(pageBytes - 4, 8), 0x00000000ffffffffULL);
    // ...and does not materialize the unmapped page.
    EXPECT_EQ(m.pagesTouched(), 1u);
}

TEST(FunctionalMemory, ReadsNeverMaterializePages)
{
    FunctionalMemory m;
    // Fast path (within a page) and slow path (straddling), mapped
    // nowhere: all zeros, no pages created.
    EXPECT_EQ(m.read(0x5000, 8), 0u);
    EXPECT_EQ(m.read(7 * pageBytes - 3, 8), 0u);
    EXPECT_EQ(m.read(0x5000, 1), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(FunctionalMemory, DirectoryBoundaryCrossing)
{
    // Directories cover 2 MiB; a write straddling that boundary spans
    // two pages in two different directories.
    FunctionalMemory m;
    const Addr dir_span = Addr(1) << 21;
    const Addr addr = 5 * dir_span - 4;
    m.write(addr, 0x0102030405060708ULL, 8);
    EXPECT_EQ(m.read(addr, 8), 0x0102030405060708ULL);
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(FunctionalMemory, ManyAlternatingPagesStayConsistent)
{
    // More distinct hot pages than the internal translation caches
    // hold, revisited repeatedly: caching must never change values.
    FunctionalMemory m;
    constexpr unsigned numPages = 64;
    for (unsigned i = 0; i < numPages; i++)
        m.write(Addr(i) * pageBytes + 16, i + 1, 8);
    for (unsigned pass = 0; pass < 3; pass++)
        for (unsigned i = 0; i < numPages; i++)
            EXPECT_EQ(m.read(Addr(i) * pageBytes + 16, 8), i + 1u);
    EXPECT_EQ(m.pagesTouched(), numPages);
}

TEST(FunctionalMemory, Doubles)
{
    FunctionalMemory m;
    m.writeDouble(0x3000, 3.14159);
    EXPECT_DOUBLE_EQ(m.readDouble(0x3000), 3.14159);
}

TEST(FunctionalMemory, AllocAlignmentAndDisjointness)
{
    FunctionalMemory m;
    const Addr a = m.alloc(100, 64);
    const Addr b = m.alloc(100, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(FunctionalMemory, AllocTracksBytes)
{
    FunctionalMemory m;
    m.alloc(128, 64);
    m.alloc(64, 64);
    EXPECT_GE(m.bytesAllocated(), 192u);
}

TEST(FunctionalMemory, SparsePagesOnlyWhereWritten)
{
    FunctionalMemory m;
    m.write(0x10000000, 1, 8);
    m.write(0x20000000, 1, 8);
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(WorkloadLayout, Array64RoundTrip)
{
    FunctionalMemory m;
    const std::vector<std::uint64_t> vals = {1, 2, 3, 0xdeadbeef};
    const Addr base = layoutArray64(m, vals);
    for (std::size_t i = 0; i < vals.size(); i++)
        EXPECT_EQ(m.read64(base + i * 8), vals[i]);
}

TEST(WorkloadLayout, Array32RoundTrip)
{
    FunctionalMemory m;
    const std::vector<std::uint32_t> vals = {10, 20, 0xffffffffu};
    const Addr base = layoutArray32(m, vals);
    for (std::size_t i = 0; i < vals.size(); i++)
        EXPECT_EQ(m.read(base + i * 4, 4), vals[i]);
}

TEST(WorkloadLayout, DoublesRoundTrip)
{
    FunctionalMemory m;
    const std::vector<double> vals = {0.5, -2.25, 1e100};
    const Addr base = layoutDoubles(m, vals);
    for (std::size_t i = 0; i < vals.size(); i++)
        EXPECT_DOUBLE_EQ(m.readDouble(base + i * 8), vals[i]);
}

TEST(WorkloadLayout, ZerosReserveRange)
{
    FunctionalMemory m;
    const Addr base = layoutZeros(m, 100, 4);
    const Addr next = m.alloc(8, 8);
    EXPECT_GE(next, base + 400);
    EXPECT_EQ(m.read(base + 396, 4), 0u);
}

// ---------------------------------------------------------------------
// Copy-on-write forks of a shared image
// ---------------------------------------------------------------------

using Image = FunctionalMemory::Image;

/** Every page's number and bytes, in page order. */
std::string
pageBytesOf(const FunctionalMemory &m)
{
    std::string out;
    for (const auto &page : m.snapshotPages()) {
        out.append(reinterpret_cast<const char *>(&page.pageNum),
                   sizeof(page.pageNum));
        out.append(reinterpret_cast<const char *>(page.data), pageBytes);
    }
    return out;
}

/** A small built memory: two arrays on three pages plus zeroed space. */
FunctionalMemory
builtMemory()
{
    FunctionalMemory m;
    std::vector<std::uint64_t> vals(700);
    for (std::size_t i = 0; i < vals.size(); i++)
        vals[i] = 0x1000 + i;
    layoutArray64(m, vals);
    layoutZeros(m, 4096, 8);
    layoutArray32(m, {7, 8, 9});
    return m;
}

std::shared_ptr<const Image>
builtImage()
{
    return std::make_shared<const Image>(builtMemory());
}

TEST(CowMemory, FreezingMovesThePagesAndClearsTheSource)
{
    FunctionalMemory m = builtMemory();
    const std::string bytes = pageBytesOf(m);
    const auto image = std::make_shared<const Image>(std::move(m));
    EXPECT_EQ(m.pagesTouched(), 0u);
    EXPECT_EQ(m.bytesAllocated(), 0u);
    EXPECT_EQ(pageBytesOf(FunctionalMemory(image)), bytes);
}

TEST(CowMemory, UnwrittenForkEqualsTheImage)
{
    const FunctionalMemory ref = builtMemory();
    const FunctionalMemory fork(builtImage());
    EXPECT_EQ(fork.pagesTouched(), ref.pagesTouched());
    EXPECT_EQ(fork.allocTop(), ref.allocTop());
    EXPECT_EQ(fork.bytesAllocated(), ref.bytesAllocated());
    EXPECT_EQ(pageBytesOf(fork), pageBytesOf(ref));
}

TEST(CowMemory, WriteLeavesTheImageAndASiblingUnchanged)
{
    const FunctionalMemory ref = builtMemory();
    const auto image = builtImage();
    const Addr base = FunctionalMemory::dataBase;
    FunctionalMemory a(image);
    FunctionalMemory b(image);
    a.write64(base + 8, 0xabcdef);
    EXPECT_EQ(a.read64(base + 8), 0xabcdefu);
    EXPECT_EQ(a.read64(base + 16), 0x1002u); // rest of the page copied
    EXPECT_EQ(a.pagesTouched(), ref.pagesTouched()); // a copy, not new
    EXPECT_EQ(b.read64(base + 8), 0x1001u);
    EXPECT_EQ(pageBytesOf(b), pageBytesOf(ref));
    EXPECT_EQ(pageBytesOf(FunctionalMemory(image)), pageBytesOf(ref));
}

TEST(CowMemory, ReadAfterWriteThroughACachedPageSeesTheNewValue)
{
    FunctionalMemory a(builtImage());
    const std::size_t i = 520; // on the array's second page
    const Addr addr = FunctionalMemory::dataBase + 8 * i;
    // The read fills the read-side cache with the image's page first.
    ASSERT_EQ(a.read64(addr), 0x1000u + i);
    for (std::uint64_t v = 1; v <= 3; v++) {
        a.write64(addr, v);
        EXPECT_EQ(a.read64(addr), v);
        EXPECT_EQ(a.read(addr, 4), v);
    }
}

TEST(CowMemory, StraddlingWriteCopiesBothPages)
{
    const FunctionalMemory ref = builtMemory();
    const auto image = builtImage();
    FunctionalMemory a(image);
    const Addr boundary = FunctionalMemory::dataBase + pageBytes;
    a.write(boundary - 4, 0x1122334455667788ULL, 8);
    EXPECT_EQ(a.read(boundary - 4, 8), 0x1122334455667788ULL);
    // The untouched bytes of both pages kept the image's values.
    EXPECT_EQ(a.read64(boundary - 16), ref.read64(boundary - 16));
    EXPECT_EQ(a.read64(boundary + 8), ref.read64(boundary + 8));
    EXPECT_EQ(a.pagesTouched(), ref.pagesTouched());
    EXPECT_EQ(pageBytesOf(FunctionalMemory(image)), pageBytesOf(ref));
}

TEST(CowMemory, NeverMaterializedZeroPagesStayPrivate)
{
    const FunctionalMemory ref = builtMemory();
    const auto image = builtImage();
    FunctionalMemory a(image);
    // Inside the layoutZeros() range: allocated, but no page exists.
    const Addr zeros = FunctionalMemory::dataBase + 4 * pageBytes;
    EXPECT_EQ(a.read64(zeros), 0u);
    a.write64(zeros, 5);
    EXPECT_EQ(a.read64(zeros), 5u);
    EXPECT_EQ(a.pagesTouched(), ref.pagesTouched() + 1);
    const FunctionalMemory b(image);
    EXPECT_EQ(b.read64(zeros), 0u);
    EXPECT_EQ(b.pagesTouched(), ref.pagesTouched());
}

TEST(CowMemory, AFrozenForkKeepsItsImagePagesAlive)
{
    auto first = builtImage();
    FunctionalMemory a(first);
    a.write64(FunctionalMemory::dataBase, 99);
    const std::string want = pageBytesOf(a);
    const auto second = std::make_shared<const Image>(std::move(a));
    first.reset(); // only the second image still refers to its pages
    FunctionalMemory b(second);
    EXPECT_EQ(pageBytesOf(b), want);
    b.write64(FunctionalMemory::dataBase + 8, 100);
    EXPECT_EQ(pageBytesOf(FunctionalMemory(second)), want);
}

TEST(CowMemory, ThawGivesBackThePagesTheFreezeTook)
{
    FunctionalMemory m(builtImage());
    m.write64(FunctionalMemory::dataBase, 99); // owned; the rest shared
    const auto pages = m.snapshotPages();
    const std::string bytes = pageBytesOf(m);
    const Addr top = m.allocTop();
    auto image = std::make_shared<Image>(std::move(m));
    {
        FunctionalMemory fork(image);
        fork.write64(FunctionalMemory::dataBase + 8, 5);
        try {
            m.thaw(std::move(image));
            ADD_FAILURE() << "thawed while a fork is alive";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::InternalInvariant);
        }
        ASSERT_NE(image, nullptr);
    }
    m.thaw(std::move(image));
    EXPECT_EQ(image, nullptr);
    const auto back = m.snapshotPages();
    ASSERT_EQ(back.size(), pages.size());
    for (std::size_t i = 0; i < pages.size(); i++) {
        EXPECT_EQ(back[i].pageNum, pages[i].pageNum);
        EXPECT_EQ(back[i].data, pages[i].data) << "page " << i;
    }
    EXPECT_EQ(m.allocTop(), top);
    EXPECT_EQ(pageBytesOf(m), bytes);
    // The page it owned is written in place again, not copied.
    m.write64(FunctionalMemory::dataBase, 7);
    EXPECT_EQ(m.snapshotPages()[0].data, pages[0].data);
    EXPECT_EQ(m.read64(FunctionalMemory::dataBase), 7u);
}

// ---------------------------------------------------------------------
// Page-at-a-time writes
// ---------------------------------------------------------------------

/** Element-by-element 32-bit writes, as the bulk writes replace. */
void
writeEach32(FunctionalMemory &m, Addr addr,
            const std::vector<std::uint32_t> &values)
{
    for (std::size_t i = 0; i < values.size(); i++)
        m.write(addr + i * 4, values[i], 4);
}

std::vector<std::uint32_t>
ramp32(std::size_t n)
{
    std::vector<std::uint32_t> v(n);
    for (std::size_t i = 0; i < n; i++)
        v[i] = 0x9e3779b9u * static_cast<std::uint32_t>(i + 1);
    return v;
}

TEST(BulkWrite, StraddlesPagesWithUnalignedEnds)
{
    // Neither end is page- or even element-aligned, and the range
    // covers the tail of one page, a whole page and the head of a third.
    const std::vector<std::uint32_t> vals = ramp32(1100);
    for (const Addr addr : {3 * pageBytes - 6, 3 * pageBytes - 7}) {
        SCOPED_TRACE(addr);
        FunctionalMemory bulk, each;
        bulk.writeArray(addr, vals.data(), vals.size());
        writeEach32(each, addr, vals);
        EXPECT_EQ(bulk.pagesTouched(), 3u);
        EXPECT_EQ(pageBytesOf(bulk), pageBytesOf(each));
        for (std::size_t i = 0; i < vals.size(); i++)
            ASSERT_EQ(bulk.read(addr + i * 4, 4), vals[i]) << i;
    }
}

TEST(BulkWrite, FillKeepsItsPhaseAcrossPages)
{
    // From an odd address the fill restarts mid-value at each page.
    const std::uint32_t value = 0x44332211u;
    for (const Addr addr : {5 * pageBytes - 7, 5 * pageBytes - 8,
                            5 * pageBytes + 1}) {
        SCOPED_TRACE(addr);
        FunctionalMemory bulk, each;
        bulk.fill32(addr, value, 2000);
        writeEach32(each, addr, std::vector<std::uint32_t>(2000, value));
        EXPECT_EQ(bulk.pagesTouched(), each.pagesTouched());
        EXPECT_EQ(pageBytesOf(bulk), pageBytesOf(each));
        EXPECT_EQ(bulk.read(addr + 1999 * 4, 4), value);
        EXPECT_EQ(bulk.read(addr + 2000 * 4, 4), 0u); // nothing past the end
    }
}

TEST(BulkWrite, ZeroLengthTouchesNothing)
{
    FunctionalMemory m;
    const std::uint64_t one = 1;
    m.writeArray(0x5000, &one, 0);
    m.fill32(0x6ffe, 7, 0);
    EXPECT_EQ(m.pagesTouched(), 0u);
    EXPECT_TRUE(m.snapshotPages().empty());
    EXPECT_EQ(layoutArray32(m, {}), layoutFill32(m, 0, 7));
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(BulkWrite, MaterializesNeverWrittenZeroPages)
{
    FunctionalMemory m;
    const Addr zeros = layoutZeros(m, 3 * pageBytes, 1);
    const Addr after = m.alloc(8, 8);
    EXPECT_EQ(m.pagesTouched(), 0u);
    m.fill32(zeros + 8, 0xffffffffu, pageBytes / 4);
    EXPECT_EQ(m.pagesTouched(), 2u); // the range straddles one boundary
    EXPECT_EQ(m.read(zeros + 4, 4), 0u);
    EXPECT_EQ(m.read(zeros + 8, 4), 0xffffffffu);
    EXPECT_EQ(m.read(zeros + 8 + pageBytes, 4), 0u);
    EXPECT_EQ(m.read(after, 8), 0u);
}

TEST(BulkWrite, ForkCopiesOnWriteAndLeavesImageAndSiblingUnchanged)
{
    const FunctionalMemory ref = builtMemory();
    const auto image = builtImage();
    FunctionalMemory a(image);
    const FunctionalMemory b(image);
    // Over the image's first array (pages 0-1) and on into the
    // layoutZeros() range, whose pages the image never materialized.
    const Addr base = FunctionalMemory::dataBase + 8;
    const std::vector<std::uint32_t> vals = ramp32(3 * pageBytes / 4);
    a.writeArray(base, vals.data(), vals.size());
    EXPECT_EQ(a.read(base, 4), vals[0]);
    EXPECT_EQ(a.read64(FunctionalMemory::dataBase), 0x1000u); // kept
    EXPECT_EQ(a.pagesTouched(), ref.pagesTouched() + 2);
    EXPECT_EQ(pageBytesOf(b), pageBytesOf(ref));
    EXPECT_EQ(pageBytesOf(FunctionalMemory(image)), pageBytesOf(ref));

    FunctionalMemory each(image);
    writeEach32(each, base, vals);
    EXPECT_EQ(pageBytesOf(a), pageBytesOf(each));
    EXPECT_EQ(a.pagesTouched(), each.pagesTouched());
}

TEST(BulkWrite, LayoutHelpersMatchElementWiseWrites)
{
    // Sizes around a page of elements, at 64-byte-aligned bases that
    // drift across page offsets from one helper to the next.
    for (const std::size_t n : {1u, 511u, 512u, 513u, 1023u, 1024u, 1025u,
                                5000u}) {
        SCOPED_TRACE(n);
        std::vector<std::uint64_t> v64(n);
        std::vector<double> vd(n);
        for (std::size_t i = 0; i < n; i++) {
            v64[i] = 0x0123456789abcdefULL * (i + 1);
            vd[i] = 1.0 / static_cast<double>(i + 3);
        }
        const std::vector<std::uint32_t> v32 = ramp32(n);

        FunctionalMemory bulk, each;
        EXPECT_EQ(layoutArray32(bulk, v32), each.alloc(n * 4, 64));
        EXPECT_EQ(layoutArray64(bulk, v64), each.alloc(n * 8, 64));
        EXPECT_EQ(layoutDoubles(bulk, vd), each.alloc(n * 8, 64));
        EXPECT_EQ(layoutFill32(bulk, n, 0x7ffffff0u), each.alloc(n * 4, 64));
        Addr at = FunctionalMemory::dataBase;
        writeEach32(each, at, v32);
        at = (at + n * 4 + 63) & ~Addr{63};
        for (std::size_t i = 0; i < n; i++)
            each.write64(at + i * 8, v64[i]);
        at = (at + n * 8 + 63) & ~Addr{63};
        for (std::size_t i = 0; i < n; i++)
            each.writeDouble(at + i * 8, vd[i]);
        at = (at + n * 8 + 63) & ~Addr{63};
        writeEach32(each, at, std::vector<std::uint32_t>(n, 0x7ffffff0u));

        EXPECT_EQ(bulk.pagesTouched(), each.pagesTouched());
        EXPECT_EQ(bulk.allocTop(), each.allocTop());
        EXPECT_EQ(pageBytesOf(bulk), pageBytesOf(each));
    }
}

// ---------------------------------------------------------------------
// Allocator bounds
// ---------------------------------------------------------------------

/** Whether alloc(@p bytes, @p align) on @p m fails as a WorkloadBuild. */
bool
allocFails(FunctionalMemory &m, std::uint64_t bytes, std::uint64_t align)
{
    const ScopedErrorCapture capture(ErrCode::WorkloadBuild);
    try {
        m.alloc(bytes, align);
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkloadBuild);
        return true;
    }
    return false;
}

TEST(FunctionalMemory, AllocPastTheTopIsFatalNotAWrap)
{
    FunctionalMemory m;
    const Addr a = m.alloc(64);
    ASSERT_EQ(a, FunctionalMemory::dataBase);
    // Its end would wrap to just past a, so the next alloc would hand
    // out a's address again.
    EXPECT_TRUE(allocFails(m, ~std::uint64_t{0} - 0x3f, 64));
    EXPECT_EQ(m.allocTop(), a + 64); // the failed request took nothing
    EXPECT_EQ(m.alloc(64), a + 64);
}

TEST(FunctionalMemory, AllocMayEndAtTheTopButNotPassIt)
{
    FunctionalMemory m;
    const Addr top = ~Addr{0};
    m.alloc(top - 0xff - FunctionalMemory::dataBase, 1); // to 2^64 - 0x100
    EXPECT_TRUE(allocFails(m, 0x100, 1)); // would end exactly at 2^64
    EXPECT_FALSE(allocFails(m, 0xff, 1)); // ends at 2^64 - 1
    EXPECT_EQ(m.allocTop(), top);
    EXPECT_TRUE(allocFails(m, 0, 64)); // rounding up would wrap
    EXPECT_TRUE(allocFails(m, 1, 1));
}

TEST(FunctionalMemory, WrappingAllocFailsItsSweepCellAsAWorkloadBuild)
{
    const WorkloadSpec wraps{"wraps", "test", [] {
        WorkloadInstance w = test::streamSum(1 << 10);
        w.mem->alloc(~std::uint64_t{0} - 0x3f);
        return w;
    }};
    SimConfig config = presets::inorder();
    config.maxInstructions = 1000;
    MatrixOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.summary = false;
    try {
        runMatrix({wraps}, {config}, opts);
        FAIL() << "the wrapping alloc did not fail the sweep";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkloadBuild);
        EXPECT_EQ(e.context().workload, "wraps");
    }
}

} // namespace
} // namespace svr
