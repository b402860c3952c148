/**
 * @file
 * Unit tests for the sparse functional memory (copy-on-write forks of
 * a shared image included) and array layout helpers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mem/functional_memory.hh"
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

TEST(CowMemory, ClearAndInstallPageRestoreAFork)
{
    const auto image = builtImage();
    FunctionalMemory donor(image);
    donor.write64(FunctionalMemory::dataBase, 42);
    donor.write64(0x7000, 43); // a page the image lacks
    const std::string want = pageBytesOf(donor);

    FunctionalMemory a(image);
    a.read64(FunctionalMemory::dataBase); // warm the caches
    a.clear();
    EXPECT_EQ(a.pagesTouched(), 0u);
    EXPECT_EQ(a.allocTop(), FunctionalMemory::dataBase);
    EXPECT_EQ(a.read64(FunctionalMemory::dataBase), 0u);
    for (const auto &page : donor.snapshotPages())
        a.installPage(page.pageNum, page.data);
    a.setAllocTop(donor.allocTop());
    EXPECT_EQ(pageBytesOf(a), want);
    EXPECT_EQ(a.read64(FunctionalMemory::dataBase), 42u);
    EXPECT_EQ(FunctionalMemory(image).read64(FunctionalMemory::dataBase),
              0x1000u);
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

} // namespace
} // namespace svr
