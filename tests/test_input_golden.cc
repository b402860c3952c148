/**
 * @file
 * Byte identity of every generated input: FNV-1a digests of each
 * built-in graph input's CSR arrays and of each fullSuite/specSuite
 * workload's built memory image, compared with
 * tests/golden/input_digests.txt.
 *
 * Every figure, golden stat and journal depends on these bytes, so a
 * generator or layout change that is meant to be a pure speed-up must
 * leave this file untouched. After an intentional input change,
 * regenerate it with
 *
 *     UPDATE_GOLDEN=1 ./build/tests/svrsim_tests \
 *         --gtest_filter='InputGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "workloads/suites.hh"

namespace svr
{
namespace
{

const std::string goldenPath =
    std::string(SVR_GOLDEN_DIR) + "/input_digests.txt";

/** Running 64-bit FNV-1a over little-endian bytes. */
class Fnv1a
{
  public:
    void
    bytes(const std::uint8_t *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    /** The @p width low bytes of @p v, least significant first. */
    void
    word(std::uint64_t v, unsigned width = 8)
    {
        for (unsigned i = 0; i < width; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[19];
        std::snprintf(buf, sizeof(buf), "0x%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

template <typename T>
std::string
arrayDigest(const std::vector<T> &values)
{
    Fnv1a f;
    for (const T v : values)
        f.word(v, sizeof(T));
    return f.hex();
}

/** Sorted page numbers, page bytes, then the allocation cursor. */
std::string
imageDigest(const FunctionalMemory &mem)
{
    Fnv1a f;
    for (const auto &page : mem.snapshotPages()) {
        f.word(page.pageNum);
        f.bytes(page.data, pageBytes);
    }
    f.word(mem.allocTop());
    return f.hex();
}

std::map<std::string, std::string>
currentDigests()
{
    std::map<std::string, std::string> d;
    for (const char *name : {"KR", "KR18", "UR", "LJN", "TW", "ORK"}) {
        const auto g = getGraphInput(name);
        d["graph/" + std::string(name) + "/offsets"] =
            arrayDigest(g->offsets);
        d["graph/" + std::string(name) + "/neighbors"] =
            arrayDigest(g->neighbors);
    }
    std::vector<WorkloadSpec> specs = fullSuite();
    for (const WorkloadSpec &spec : specSuite())
        specs.push_back(spec);
    for (const WorkloadSpec &spec : specs)
        d["image/" + spec.name] = imageDigest(*spec.make().mem);
    return d;
}

std::map<std::string, std::string>
readGolden()
{
    std::map<std::string, std::string> d;
    std::ifstream in(goldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        fields >> key >> digest;
        d[key] = digest;
    }
    return d;
}

TEST(InputGolden, GeneratedBytesMatchDigests)
{
    const auto now = currentDigests();
    if (std::getenv("UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath);
        out << "# FNV-1a 64 digests of the generated inputs "
               "(tests/test_input_golden.cc).\n"
               "# graph/<input>/<array>: little-endian element bytes.\n"
               "# image/<workload>: sorted page numbers and bytes, then "
               "allocTop.\n";
        for (const auto &[key, digest] : now)
            out << key << ' ' << digest << '\n';
        GTEST_SKIP() << "UPDATE_GOLDEN set: rewrote " << goldenPath;
    }

    const auto golden = readGolden();
    ASSERT_FALSE(golden.empty()) << "cannot read " << goldenPath;
    for (const auto &[key, digest] : now) {
        const auto it = golden.find(key);
        if (it == golden.end())
            ADD_FAILURE() << key << ": no golden digest";
        else
            EXPECT_EQ(digest, it->second) << key;
    }
    for (const auto &[key, digest] : golden)
        EXPECT_TRUE(now.count(key)) << key << ": golden digest for an "
                                    << "input that no longer exists";
}

} // namespace
} // namespace svr
