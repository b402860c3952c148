/**
 * @file
 * Sparse functional memory: holds the *values* of simulated memory.
 *
 * The functional Executor reads and writes program data here; SVR's
 * transient lanes and IMP's value-reading prefetch logic also read it
 * (exactly as the hardware would read prefetched cache lines).
 *
 * Storage is a two-level page table — a directory level indexed by
 * address bits above the page offset, hashed only once per 2 MiB
 * region — plus small direct-mapped page-translation caches, so the
 * common case (accesses cycling over a few hot pages) costs one
 * compare and one fixed-size copy instead of a hash lookup per byte.
 * Page-straddling accesses take the byte-by-byte slow path. Reads
 * never materialize pages; unmapped memory reads as zero.
 *
 * A built memory can be frozen into an immutable Image
 * (std::shared_ptr<const FunctionalMemory::Image>) that any number of
 * forks on any threads share: a fork starts with every page a
 * read-only reference to an image page and copies a page (4 KiB) into
 * storage it owns on the first write to it. The image has no caches
 * and nothing writes to it; the forks themselves stay private. Once
 * the last fork is gone, thaw() moves the image's pages back into a
 * memory that writes them in place again.
 *
 * The translation caches make read() logically-const-but-caching; an
 * instance must not be shared between concurrently simulating cells
 * (each cell simulates its own fork, see sim/experiment.hh).
 */

#ifndef SVR_MEM_FUNCTIONAL_MEMORY_HH
#define SVR_MEM_FUNCTIONAL_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace svr
{

/**
 * Byte-addressable sparse memory backed by 4 KiB host pages, with a
 * bump allocator for laying out workload data structures.
 */
class FunctionalMemory
{
  public:
    class Image;

    FunctionalMemory();

    /**
     * A copy-on-write fork of @p image: the same pages, allocator
     * cursor and page count, with no page copied until it is written.
     */
    explicit FunctionalMemory(std::shared_ptr<const Image> image);

    /**
     * Replace this memory's contents with the pages of @p image (the
     * inverse of freezing them: no page is copied) and null @p image.
     * Throws SimError(InternalInvariant), changing nothing, while
     * anything else (a fork) still holds @p image.
     */
    void thaw(std::shared_ptr<Image> &&image);

    /** Read @p bytes (1/2/4/8) at @p addr, zero-extended. */
    std::uint64_t
    read(Addr addr, unsigned bytes) const
    {
        const Addr off = addr & (pageBytes - 1);
        if (littleEndianHost && off + bytes <= pageBytes) [[likely]] {
            checkSize("read", bytes);
            const std::uint8_t *page = translate(addr);
            if (!page)
                return 0;
            return loadLe(page + off, bytes);
        }
        return readSlow(addr, bytes);
    }

    /**
     * Write the low @p bytes of @p value at @p addr. A hit in the
     * write-side translation cache, which holds only pages this memory
     * owns, costs one tag compare; everything else (a new page, the
     * first write to an image page) goes out of line to writablePage().
     */
    void
    write(Addr addr, std::uint64_t value, unsigned bytes)
    {
        const Addr off = addr & (pageBytes - 1);
        if (littleEndianHost && off + bytes <= pageBytes) [[likely]] {
            checkSize("write", bytes);
            const Addr page_num = addr >> pageShift;
            const std::size_t slot = page_num & (tcEntries - 1);
            std::uint8_t *page = wtcTag[slot] == page_num
                                     ? wtcData[slot]
                                     : writablePage(page_num);
            storeLe(page + off, value, bytes);
            return;
        }
        writeSlow(addr, value, bytes);
    }

    /** Convenience 64-bit accessors. */
    std::uint64_t read64(Addr addr) const { return read(addr, 8); }
    void write64(Addr addr, std::uint64_t v) { write(addr, v, 8); }

    /** Read/write a double stored at @p addr. */
    double readDouble(Addr addr) const;
    void writeDouble(Addr addr, double v);

    /**
     * Store @p count consecutive little-endian elements (4- or 8-byte
     * integers or doubles) from @p values at @p addr. The bytes, the
     * pages materialized and pagesTouched() are those of the
     * element-by-element write() loop, but each 4 KiB page costs one
     * writablePage() call and one copy.
     */
    template <typename T>
    void
    writeArray(Addr addr, const T *values, std::uint64_t count)
    {
        static_assert(sizeof(T) == 4 || sizeof(T) == 8);
        if constexpr (littleEndianHost) {
            writeRange(addr, count * sizeof(T),
                       reinterpret_cast<const std::uint8_t *>(values), 0);
        } else {
            using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                            std::uint64_t>;
            for (std::uint64_t i = 0; i < count; i++)
                write(addr + i * sizeof(T), std::bit_cast<Bits>(values[i]),
                      sizeof(T));
        }
    }

    /**
     * Store @p count copies of the 32-bit @p value from @p addr on, a
     * page at a time, as writeArray() does.
     */
    void
    fill32(Addr addr, std::uint32_t value, std::uint64_t count)
    {
        writeRange(addr, count * 4, nullptr, value);
    }

    /**
     * Allocate @p bytes in the data segment with @p align alignment
     * (power of two), returning the base address. Memory is zeroed.
     * fatal() if the range would pass the top of the address space.
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /**
     * Number of distinct pages materialized by writes (for tests and
     * reports), a fork's image pages included. Reads of unmapped
     * memory do not count.
     */
    std::size_t pagesTouched() const { return table.numPages; }

    /** Total bytes handed out by alloc(). */
    std::uint64_t
    bytesAllocated() const
    {
        return table.allocCursor - dataBase;
    }

    // ---- Checkpointing (sim/checkpoint.hh) ----------------------------
    //
    // A Checkpoint holds its memory as an Image: capture freezes this
    // memory into one and re-forks it, restore assigns a fork of it.
    // Only the byte format reads and writes pages one at a time, with
    // snapshotPages() on a fork and installPage()/setAllocTop() on a
    // fresh memory that it then freezes.

    /** Base of the data segment: the freshly-constructed alloc cursor. */
    static constexpr Addr dataBase = 0x10000000;
    /** log2(pageBytes): page offset width. */
    static constexpr unsigned pageShift = 12;
    /** Page numbers are below this (addr >> pageShift of a 64-bit Addr). */
    static constexpr Addr pageNumLimit = Addr{1} << (64 - pageShift);

    /** One materialized page: number (addr >> 12) + its 4 KiB image. */
    struct PageRef
    {
        Addr pageNum = 0;
        const std::uint8_t *data = nullptr; //!< pageBytes bytes
    };

    /**
     * Every materialized page, sorted by page number (deterministic
     * order for serialization). Pointers remain valid until the next
     * write to, or assignment of, this memory.
     */
    std::vector<PageRef> snapshotPages() const;

    /**
     * Materialize page @p page_num (< pageNumLimit) and overwrite it
     * with @p data (pageBytes bytes). Deserialization path: a fresh
     * memory installs each saved page, then is frozen into an Image.
     */
    void installPage(Addr page_num, const std::uint8_t *data);

    /** Raw bump-allocator cursor (absolute address), for checkpoints. */
    Addr allocTop() const { return table.allocCursor; }

    /**
     * Restore the bump-allocator cursor. @p top must be >= dataBase
     * (the freshly-constructed cursor); panics otherwise.
     */
    void setAllocTop(Addr top);

  private:
    static constexpr bool littleEndianHost =
        std::endian::native == std::endian::little;

    static_assert(pageBytes == 1u << pageShift);
    /** Directory fanout: 512 pages = 2 MiB per directory. */
    static constexpr unsigned dirBits = 9;
    static constexpr std::size_t dirFanout = std::size_t{1} << dirBits;

    using Page = std::array<std::uint8_t, pageBytes>;

    /** The pages of one 2 MiB region. */
    struct Dir
    {
        /** Every mapped page, owned or an image's (the read side). */
        std::array<const Page *, dirFanout> page{};
        /** The pages this table owns; page[i] points at own[i] if set. */
        std::array<std::unique_ptr<Page>, dirFanout> own;
    };

    /** Everything but the caches: what an Image freezes. */
    struct PageTable
    {
        /** Root level, keyed by addr >> (pageShift + dirBits). */
        std::unordered_map<Addr, std::unique_ptr<Dir>> dirs;
        std::size_t numPages = 0;
        Addr allocCursor = dataBase;
        /** Keeps alive the image pages this table maps but does not own. */
        std::shared_ptr<const Image> base;
    };

    /** Page data for @p addr, or nullptr; never materializes. */
    const std::uint8_t *
    translate(Addr addr) const
    {
        const Addr page_num = addr >> pageShift;
        const std::size_t slot = page_num & (tcEntries - 1);
        if (tcTag[slot] == page_num)
            return tcData[slot];
        return translateWalk(addr);
    }

    /**
     * Owned page @p page_num, materializing it (zeroed) or copying it
     * out of the image first if needed; fills both translation caches.
     */
    std::uint8_t *writablePage(Addr page_num);

    /** Directory @p dir_num through the dir cache, or nullptr. */
    Dir *
    findDir(Addr dir_num) const
    {
        const std::size_t dslot = dir_num & (dcEntries - 1);
        if (dcTag[dslot] == dir_num)
            return dcDir[dslot];
        const auto it = table.dirs.find(dir_num);
        if (it == table.dirs.end())
            return nullptr;
        dcTag[dslot] = dir_num;
        dcDir[dslot] = it->second.get();
        return dcDir[dslot];
    }

    /**
     * Two-level walk behind the translation cache (read side). Inline:
     * gather-style workloads touch more distinct pages than the cache
     * holds, so the walk itself is on the functional hot path.
     */
    const std::uint8_t *
    translateWalk(Addr addr) const
    {
        const Addr page_num = addr >> pageShift;
        const Dir *dir = findDir(page_num >> dirBits);
        if (!dir)
            return nullptr;
        const Page *page = dir->page[page_num & (dirFanout - 1)];
        if (!page)
            return nullptr;
        const std::size_t slot = page_num & (tcEntries - 1);
        tcTag[slot] = page_num;
        tcData[slot] = page->data();
        return page->data();
    }

    /**
     * The page-at-a-time write behind writeArray() and fill32(): copy
     * @p bytes from @p src, or, if @p src is null, repeat the
     * little-endian bytes of @p fill from @p addr on.
     */
    void writeRange(Addr addr, std::uint64_t bytes, const std::uint8_t *src,
                    std::uint32_t fill);

    /** Byte-by-byte paths for page-straddling (or odd-host) accesses. */
    std::uint64_t readSlow(Addr addr, unsigned bytes) const;
    void writeSlow(Addr addr, std::uint64_t value, unsigned bytes);

    /**
     * Fixed-size copies of a checked width (1/2/4/8): a variable-size
     * memcpy compiles to a libc call wherever read()/write() end up
     * out of line, and every functional load and store pays for it.
     */
    static std::uint64_t
    loadLe(const std::uint8_t *p, unsigned bytes)
    {
        switch (bytes) {
          case 8: {
            std::uint64_t v;
            std::memcpy(&v, p, 8);
            return v;
          }
          case 4: {
            std::uint32_t v;
            std::memcpy(&v, p, 4);
            return v;
          }
          case 2: {
            std::uint16_t v;
            std::memcpy(&v, p, 2);
            return v;
          }
          default:
            return *p;
        }
    }

    static void
    storeLe(std::uint8_t *p, std::uint64_t value, unsigned bytes)
    {
        switch (bytes) {
          case 8:
            std::memcpy(p, &value, 8);
            break;
          case 4: {
            const auto v = static_cast<std::uint32_t>(value);
            std::memcpy(p, &v, 4);
            break;
          }
          case 2: {
            const auto v = static_cast<std::uint16_t>(value);
            std::memcpy(p, &v, 2);
            break;
          }
          default:
            *p = static_cast<std::uint8_t>(value);
        }
    }

    /** Cheap inline size check; the panic itself stays out of line. */
    static void
    checkSize(const char *what, unsigned bytes)
    {
        // Valid sizes are 1/2/4/8: bit mask 0b1_0001_0110.
        if (bytes > 8 || !((0x116u >> bytes) & 1u)) [[unlikely]]
            badSize(what, bytes);
    }

    [[noreturn]] static void badSize(const char *what, unsigned bytes);

    /** Empty every translation cache. */
    void flushCaches();

    PageTable table;

    // Translation caches. Page and dir pointers stay valid until the
    // table is frozen or reassigned, which flushes the caches: pages
    // are never freed before, and a copy-on-write copy repoints the
    // read-cache entry of its page. All levels are direct-mapped with
    // several entries rather than a single register: workloads
    // typically alternate between a few data structures (e.g. index
    // array and gather tables), which thrashes a one-entry cache. The dir cache in
    // particular covers all of a workload's hot 2 MiB regions at once,
    // keeping the root hash map off the per-access path entirely —
    // sized for paper-scale footprints (64 x 2 MiB = 128 MiB), where
    // the checkpoint fast-forward path lives or dies by it. The write
    // cache holds only owned pages, so a write hit never copies.
    static constexpr std::size_t tcEntries = 64;
    mutable std::array<Addr, tcEntries> tcTag;
    mutable std::array<const std::uint8_t *, tcEntries> tcData{};
    std::array<Addr, tcEntries> wtcTag;
    std::array<std::uint8_t *, tcEntries> wtcData{};
    static constexpr std::size_t dcEntries = 64;
    mutable std::array<Addr, dcEntries> dcTag;
    mutable std::array<Dir *, dcEntries> dcDir{};
};

/**
 * An immutable page image, frozen from a built memory. Held as
 * std::shared_ptr<const Image> and forked with
 * FunctionalMemory(std::shared_ptr<const Image>); it has no caches, so
 * forks on any number of threads may share it.
 */
class FunctionalMemory::Image
{
  public:
    /**
     * Freeze @p built: its pages move here (no copy); it is left
     * freshly constructed.
     */
    explicit Image(FunctionalMemory &&built);

  private:
    friend class FunctionalMemory;
    PageTable table;
};

} // namespace svr

#endif // SVR_MEM_FUNCTIONAL_MEMORY_HH
