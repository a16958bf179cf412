/**
 * @file
 * Tests for the `.htb` binary format (docs/OUTOFCORE.md): write/load
 * round trips, the byte-exact validation of the memory-mapped loader
 * against truncated and corrupted files (clean FatalError, never a
 * crash), the panel-index fast path vs binary search, and EINTR
 * resilience of the low-level full-read primitive.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <pthread.h>
#include <unistd.h>

#include "common/error.hpp"
#include "sparse/generators.hpp"
#include "sparse/htb.hpp"
#include "sparse/tiling.hpp"

using namespace hottiles;

namespace {

std::string
tmpPath(const std::string& name)
{
    return testing::TempDir() + "/" + name;
}

CooMatrix
sortedRmat(Index rows, size_t nnz, uint64_t seed)
{
    CooMatrix m = genRmat(rows, nnz, 0.57, 0.19, 0.19, 0.05, seed);
    m.sortRowMajor();
    m.dedupSum();
    return m;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** A tiny hand-known matrix: entries (0,1), (0,2), (1,0), (3,3). */
CooMatrix
tinyMatrix()
{
    CooMatrix m(4, 4);
    m.push(0, 1, 1.0f);
    m.push(0, 2, 2.0f);
    m.push(1, 0, 3.0f);
    m.push(3, 3, 4.0f);
    return m;
}

} // namespace

TEST(OutOfCoreHtb, WriteLoadRoundTrip)
{
    CooMatrix m = sortedRmat(256, 2000, 11);
    std::string path = tmpPath("roundtrip.htb");
    writeHtbFromCoo(path, m, /*panel_rows=*/32);

    CooMatrix back = loadHtbToCoo(path);
    ASSERT_TRUE(back.sameStructure(m));
    for (size_t i = 0; i < m.nnz(); ++i)
        ASSERT_EQ(back.value(i), m.value(i)) << "value " << i;

    MappedMatrix mm(path);
    EXPECT_EQ(mm.rows(), m.rows());
    EXPECT_EQ(mm.cols(), m.cols());
    EXPECT_EQ(mm.nnz(), m.nnz());
    EXPECT_EQ(mm.panelRows(), 32u);
    EXPECT_EQ(mm.panelIndex().size(), size_t(mm.numPanels()) + 1);
    EXPECT_NO_THROW(mm.validateData());
    EXPECT_EQ(std::memcmp(mm.rowIds().data(), m.rowIds().data(),
                          m.nnz() * sizeof(Index)),
              0);
    EXPECT_EQ(std::memcmp(mm.vals().data(), m.values().data(),
                          m.nnz() * sizeof(Value)),
              0);
}

TEST(OutOfCoreHtb, EmptyPanelsSurviveRoundTrip)
{
    // Rows 1 and 2 are empty; the middle panels must still index cleanly.
    CooMatrix m(8, 4);
    m.push(0, 0, 1.0f);
    m.push(7, 3, 2.0f);
    std::string path = tmpPath("sparse_panels.htb");
    writeHtbFromCoo(path, m, /*panel_rows=*/2);
    MappedMatrix mm(path);
    EXPECT_EQ(mm.numPanels(), 4u);
    EXPECT_NO_THROW(mm.validateData());
    CooMatrix back = loadHtbToCoo(path);
    EXPECT_TRUE(back.sameStructure(m));
}

TEST(OutOfCoreHtb, RejectsTruncatedFiles)
{
    CooMatrix m = sortedRmat(64, 400, 3);
    std::string full_path = tmpPath("full.htb");
    writeHtbFromCoo(full_path, m, 16);
    std::string bytes = slurp(full_path);

    std::string cut = tmpPath("truncated.htb");
    for (size_t keep :
         {size_t(0), size_t(7), sizeof(HtbHeader) - 1, sizeof(HtbHeader),
          sizeof(HtbHeader) + 10, bytes.size() - 1}) {
        SCOPED_TRACE("keep=" + std::to_string(keep));
        spit(cut, bytes.substr(0, keep));
        EXPECT_THROW(MappedMatrix{cut}, FatalError);
    }
    // Trailing garbage is just as invalid: the size must be byte-exact.
    spit(cut, bytes + "x");
    EXPECT_THROW(MappedMatrix{cut}, FatalError);
}

TEST(OutOfCoreHtb, RejectsBadMagicAndVersion)
{
    CooMatrix m = sortedRmat(64, 400, 4);
    std::string good = tmpPath("good.htb");
    writeHtbFromCoo(good, m, 16);
    std::string bytes = slurp(good);
    std::string bad = tmpPath("bad_header.htb");

    std::string flipped = bytes;
    flipped[0] = 'X';
    spit(bad, flipped);
    EXPECT_THROW(MappedMatrix{bad}, FatalError);

    std::string vers = bytes;
    uint32_t v2 = 2;
    std::memcpy(vers.data() + 8, &v2, sizeof v2);
    spit(bad, vers);
    EXPECT_THROW(MappedMatrix{bad}, FatalError);
}

TEST(OutOfCoreHtb, RejectsCorruptPanelIndex)
{
    CooMatrix m = sortedRmat(64, 400, 5);
    std::string good = tmpPath("good_idx.htb");
    writeHtbFromCoo(good, m, 16);
    std::string bytes = slurp(good);
    std::string bad = tmpPath("bad_idx.htb");

    // Last index entry must equal nnz; nnz+1 overruns the arrays.
    uint64_t beyond = m.nnz() + 1;
    std::string over = bytes;
    std::memcpy(over.data() + over.size() - sizeof beyond, &beyond,
                sizeof beyond);
    spit(bad, over);
    EXPECT_THROW(MappedMatrix{bad}, FatalError);

    // A non-monotone interior entry breaks the panel slicing contract.
    if (MappedMatrix(good).numPanels() >= 2) {
        uint64_t huge = m.nnz();
        std::string nonmono = bytes;
        std::memcpy(nonmono.data() + nonmono.size() -
                        3 * sizeof(uint64_t),
                    &huge, sizeof huge);
        spit(bad, nonmono);
        EXPECT_THROW(MappedMatrix{bad}, FatalError);
    }
}

TEST(OutOfCoreHtb, ValidateDataCatchesContentCorruption)
{
    CooMatrix m = tinyMatrix();
    std::string path = tmpPath("content.htb");
    writeHtbFromCoo(path, m, 2);
    std::string bytes = slurp(path);
    const size_t col_off = sizeof(HtbHeader) + m.nnz() * sizeof(Index);
    std::string bad = tmpPath("bad_content.htb");

    auto set_col = [&](std::string& b, size_t i, Index c) {
        std::memcpy(b.data() + col_off + i * sizeof(Index), &c, sizeof c);
    };

    // (0,1),(0,2) -> (0,2),(0,1): not row-major sorted any more.
    std::string unsorted = bytes;
    set_col(unsorted, 0, 2);
    set_col(unsorted, 1, 1);
    spit(bad, unsorted);
    EXPECT_THROW(MappedMatrix(bad).validateData(), FatalError);

    // Duplicate coordinate: the format stores strictly deduped entries.
    std::string dup = bytes;
    set_col(dup, 1, 1);
    spit(bad, dup);
    EXPECT_THROW(MappedMatrix(bad).validateData(), FatalError);

    // Column id outside the matrix.
    std::string oob = bytes;
    set_col(oob, 0, 100);
    spit(bad, oob);
    EXPECT_THROW(MappedMatrix(bad).validateData(), FatalError);
}

TEST(OutOfCoreHtb, MappedTileGridRejectsContentCorruption)
{
    // TileGrid over the mapped arrays validates in the scan's pass 1
    // (no validateData() call), with the streamed planner's messages.
    CooMatrix m = tinyMatrix();
    std::string path = tmpPath("grid_content.htb");
    writeHtbFromCoo(path, m, 2);
    std::string bytes = slurp(path);
    std::string bad = tmpPath("bad_grid_content.htb");
    auto expectRejected = [&](size_t offset, Index v, const char* what) {
        SCOPED_TRACE(what);
        std::string b = bytes;
        std::memcpy(b.data() + offset, &v, sizeof v);
        spit(bad, b);
        MappedMatrix mm(bad);
        try {
            TileGrid grid(mm.rows(), mm.cols(), mm.rowIds(), mm.colIds(),
                          mm.vals(), 2, 2);
            ADD_FAILURE() << "no FatalError";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    const size_t row_off = sizeof(HtbHeader);
    const size_t col_off = row_off + m.nnz() * sizeof(Index);

    // Rows (0,0,1,3) -> (0,3,1,3): row 3 inside panel 0's entries.
    expectRejected(row_off + 1 * sizeof(Index), 3, "outside panel");
    // Column at cols.
    expectRejected(col_off + 0 * sizeof(Index), 4, "outside panel");
    // (0,1),(0,2) -> (0,1),(0,0): order broken inside panel 0.
    expectRejected(col_off + 1 * sizeof(Index), 0, "not row-major sorted");
}

TEST(OutOfCoreHtb, PanelBeginEntryMatchesSearchOnAnyTileHeight)
{
    CooMatrix m = sortedRmat(256, 3000, 6);
    std::string path = tmpPath("panels.htb");
    writeHtbFromCoo(path, m, /*panel_rows=*/32);
    MappedMatrix mm(path);

    // 32 hits the writer's index fast path; the others binary-search.
    for (Index tile_h : {Index(32), Index(48), Index(100), Index(256)}) {
        const Index num_panels = Index((mm.rows() + tile_h - 1) / tile_h);
        for (Index p = 0; p <= num_panels; ++p) {
            const Index row0 =
                Index(std::min<uint64_t>(uint64_t(p) * tile_h, mm.rows()));
            size_t expect = 0;
            while (expect < m.nnz() && m.rowId(expect) < row0)
                ++expect;
            ASSERT_EQ(mm.panelBeginEntry(tile_h, p), expect)
                << "tile_h=" << tile_h << " p=" << p;
        }
    }
}

TEST(OutOfCoreHtb, GenRmatHtbIsDeterministicAndValid)
{
    std::string a = tmpPath("rmat_a.htb");
    std::string b = tmpPath("rmat_b.htb");
    uint64_t na =
        genRmatHtb(a, 1 << 10, size_t(8) << 10, 0.57, 0.19, 0.19, 0.05, 9, 64);
    uint64_t nb =
        genRmatHtb(b, 1 << 10, size_t(8) << 10, 0.57, 0.19, 0.19, 0.05, 9, 64);
    EXPECT_EQ(na, nb);
    EXPECT_EQ(slurp(a), slurp(b));

    MappedMatrix mm(a);
    EXPECT_EQ(mm.nnz(), na);
    EXPECT_NO_THROW(mm.validateData());

    // A different seed must not produce the same stream.
    std::string c = tmpPath("rmat_c.htb");
    genRmatHtb(c, 1 << 10, size_t(8) << 10, 0.57, 0.19, 0.19, 0.05, 10, 64);
    EXPECT_NE(slurp(a), slurp(c));
}

namespace {
void
ignoreSignal(int)
{
}
} // namespace

TEST(OutOfCoreHtb, ReadFullyRetriesAfterEintr)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);

    // Install a no-op handler WITHOUT SA_RESTART so a blocking read()
    // genuinely returns EINTR instead of being transparently resumed.
    struct sigaction sa {};
    sa.sa_handler = ignoreSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    struct sigaction old {};
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    const std::string payload = "hello, out-of-core world";
    pthread_t reader = pthread_self();
    std::thread writer([&] {
        // First half, then repeated interrupts while the reader blocks
        // on the second half, then the rest.  The signals race with the
        // read by design; readFully must be correct either way.
        writeFully(fds[1], payload.data(), payload.size() / 2);
        for (int i = 0; i < 5; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            pthread_kill(reader, SIGUSR1);
        }
        writeFully(fds[1], payload.data() + payload.size() / 2,
                   payload.size() - payload.size() / 2);
        close(fds[1]);
    });

    std::string buf(payload.size(), '\0');
    size_t got = readFully(fds[0], buf.data(), buf.size());
    writer.join();
    close(fds[0]);
    ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

    EXPECT_EQ(got, payload.size());
    EXPECT_EQ(buf, payload);
}

TEST(OutOfCoreHtb, ReadFullyReportsShortReadAtEof)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    writeFully(fds[1], "abc", 3);
    close(fds[1]);
    char buf[16];
    EXPECT_EQ(readFully(fds[0], buf, sizeof buf), 3u);
    close(fds[0]);
}
