#include "mem/functional_memory.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"

namespace svr
{

FunctionalMemory::FunctionalMemory()
{
    flushCaches();
}

FunctionalMemory::FunctionalMemory(std::shared_ptr<const Image> image)
    : FunctionalMemory()
{
    const PageTable &src = image->table;
    table.dirs.reserve(src.dirs.size());
    // Hash-map order is harmless: it only fills another hash map.
    for (const auto &[dir_num, dir] : src.dirs) { // det-lint: allow
        auto copy = std::make_unique<Dir>();
        copy->page = dir->page;
        table.dirs.emplace(dir_num, std::move(copy));
    }
    table.numPages = src.numPages;
    table.allocCursor = src.allocCursor;
    table.base = std::move(image);
}

FunctionalMemory::Image::Image(FunctionalMemory &&built)
    : table(std::move(built.table))
{
    built.table = PageTable{};
    built.flushCaches();
}

void
FunctionalMemory::thaw(std::shared_ptr<Image> &&image)
{
    if (image.use_count() != 1) {
        throw SimError(ErrCode::InternalInvariant,
                       "FunctionalMemory::thaw: a fork of the image is alive");
    }
    table = std::move(image->table);
    image.reset();
    flushCaches();
}

void
FunctionalMemory::flushCaches()
{
    // ~0 can never equal a real page number (it would need an address
    // above 2^64), so empty slots can never produce a false hit.
    tcTag.fill(~static_cast<Addr>(0));
    tcData.fill(nullptr);
    wtcTag.fill(~static_cast<Addr>(0));
    wtcData.fill(nullptr);
    dcTag.fill(~static_cast<Addr>(0));
    dcDir.fill(nullptr);
}

void
FunctionalMemory::badSize(const char *what, unsigned bytes)
{
    panic("FunctionalMemory::%s: bad size %u", what, bytes);
}

std::uint8_t *
FunctionalMemory::writablePage(Addr page_num)
{
    const Addr dir_num = page_num >> dirBits;
    Dir *dir = findDir(dir_num);
    if (!dir) {
        auto &entry = table.dirs[dir_num];
        entry = std::make_unique<Dir>();
        dir = entry.get();
        const std::size_t dslot = dir_num & (dcEntries - 1);
        dcTag[dslot] = dir_num;
        dcDir[dslot] = dir;
    }
    const std::size_t i = page_num & (dirFanout - 1);
    std::unique_ptr<Page> &own = dir->own[i];
    if (!own) {
        if (const Page *shared = dir->page[i]) {
            own = std::make_unique<Page>(*shared); // copy on write
        } else {
            own = std::make_unique<Page>();
            own->fill(0);
            table.numPages++;
        }
        dir->page[i] = own.get();
    }
    // Both caches now name the owned page; this also repoints a read
    // entry that still named the image's copy.
    const std::size_t slot = page_num & (tcEntries - 1);
    tcTag[slot] = page_num;
    tcData[slot] = own->data();
    wtcTag[slot] = page_num;
    wtcData[slot] = own->data();
    return own->data();
}

void
FunctionalMemory::writeRange(Addr addr, std::uint64_t bytes,
                             const std::uint8_t *src, std::uint32_t fill)
{
    // The fill's little-endian bytes twice over: the four bytes from
    // pattern[i & 3] on continue the fill at range offset i.
    std::uint8_t pattern[8];
    for (unsigned i = 0; i < 8; i++)
        pattern[i] = static_cast<std::uint8_t>(fill >> (8 * (i & 3)));
    for (std::uint64_t done = 0; done < bytes;) {
        const Addr a = addr + done;
        const Addr off = a & (pageBytes - 1);
        const std::uint64_t n =
            std::min<std::uint64_t>(pageBytes - off, bytes - done);
        std::uint8_t *dst = writablePage(a >> pageShift) + off;
        if (src) {
            std::memcpy(dst, src + done, n);
        } else {
            const std::uint8_t *phase = pattern + (done & 3);
            std::uint32_t word;
            std::memcpy(&word, phase, 4);
            std::uint64_t i = 0;
            for (; i + 4 <= n; i += 4)
                std::memcpy(dst + i, &word, 4);
            for (; i < n; i++)
                dst[i] = phase[i & 3];
        }
        done += n;
    }
}

std::uint64_t
FunctionalMemory::readSlow(Addr addr, unsigned bytes) const
{
    checkSize("read", bytes);
    std::uint64_t result = 0;
    // Page-straddling accesses (and big-endian hosts) go byte by byte.
    for (unsigned i = 0; i < bytes; i++) {
        const Addr a = addr + i;
        const std::uint8_t *page = translate(pageAlign(a));
        const std::uint8_t byte = page ? page[a & (pageBytes - 1)] : 0;
        result |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return result;
}

void
FunctionalMemory::writeSlow(Addr addr, std::uint64_t value, unsigned bytes)
{
    checkSize("write", bytes);
    for (unsigned i = 0; i < bytes; i++) {
        const Addr a = addr + i;
        std::uint8_t *page = writablePage(a >> pageShift);
        page[a & (pageBytes - 1)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

double
FunctionalMemory::readDouble(Addr addr) const
{
    return std::bit_cast<double>(read64(addr));
}

void
FunctionalMemory::writeDouble(Addr addr, double v)
{
    write64(addr, std::bit_cast<std::uint64_t>(v));
}

std::vector<FunctionalMemory::PageRef>
FunctionalMemory::snapshotPages() const
{
    std::vector<PageRef> pages;
    pages.reserve(table.numPages);
    // Hash-map order is harmless: the pages are sorted below.
    for (const auto &[dir_num, dir] : table.dirs) { // det-lint: allow
        for (std::size_t i = 0; i < dirFanout; i++) {
            if (const Page *page = dir->page[i]) {
                pages.push_back(
                    {(dir_num << dirBits) | static_cast<Addr>(i),
                     page->data()});
            }
        }
    }
    std::sort(pages.begin(), pages.end(),
              [](const PageRef &a, const PageRef &b) {
                  return a.pageNum < b.pageNum;
              });
    return pages;
}

void
FunctionalMemory::installPage(Addr page_num, const std::uint8_t *data)
{
    std::memcpy(writablePage(page_num), data, pageBytes);
}

void
FunctionalMemory::setAllocTop(Addr top)
{
    if (top < dataBase) {
        panic("FunctionalMemory::setAllocTop: cursor %llx below the "
              "data base %llx",
              static_cast<unsigned long long>(top),
              static_cast<unsigned long long>(dataBase));
    }
    table.allocCursor = top;
}

Addr
FunctionalMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("FunctionalMemory::alloc: alignment %llu not a power of two",
              static_cast<unsigned long long>(align));
    Addr &cursor = table.allocCursor;
    const Addr base = (cursor + (align - 1)) & ~(align - 1);
    // Rounding up wrapped if base < cursor; the end wraps if it would
    // pass 2^64 - 1. Either way the range would alias existing data.
    if (base < cursor || bytes > ~Addr{0} - base) {
        fatal("FunctionalMemory::alloc: %llu bytes (alignment %llu) "
              "from cursor %llx pass the top of the address space",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(align),
              static_cast<unsigned long long>(cursor));
    }
    cursor = base + bytes;
    return base;
}

} // namespace svr
