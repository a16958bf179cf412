/**
 * @file
 * Out-of-core preprocessing tests (docs/OUTOFCORE.md): the panel-
 * streamed planner and the mmap-built HotTiles must be bit-identical
 * to the in-memory pipeline across thread counts, window sizes and
 * panel-source flavours; malformed streams must fail with a clean
 * FatalError; and the streaming MatrixMarket converter must agree with
 * the in-memory reader (symmetry expansion and duplicate-summing
 * included).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/outofcore.hpp"
#include "exec/backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/htb.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/panel_stream.hpp"

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

Architecture
testArch(Index tile)
{
    Architecture arch = calibrated(makeSpadeSextans(2));
    arch.tile_height = tile;
    arch.tile_width = tile;
    return arch;
}

/** RAII thread-count override (restores the previous pool size). */
struct ThreadGuard
{
    unsigned saved;
    explicit ThreadGuard(unsigned n) : saved(ThreadPool::globalThreads())
    {
        ThreadPool::setGlobalThreads(n);
    }
    ~ThreadGuard() { ThreadPool::setGlobalThreads(saved); }
};

void
expectPlanMatchesInMemory(const StreamedPlan& plan, const HotTiles& ht)
{
    const TileGrid& g = ht.grid();
    ASSERT_EQ(plan.tiles.size(), g.numTiles());
    for (size_t i = 0; i < plan.tiles.size(); ++i) {
        const Tile& a = plan.tiles[i];
        const Tile& b = g.tile(i);
        ASSERT_EQ(a.panel, b.panel) << "tile " << i;
        ASSERT_EQ(a.tcol, b.tcol) << "tile " << i;
        ASSERT_EQ(a.row0, b.row0) << "tile " << i;
        ASSERT_EQ(a.col0, b.col0) << "tile " << i;
        ASSERT_EQ(a.height, b.height) << "tile " << i;
        ASSERT_EQ(a.width, b.width) << "tile " << i;
        ASSERT_EQ(a.offset, b.offset) << "tile " << i;
        ASSERT_EQ(a.nnz, b.nnz) << "tile " << i;
        ASSERT_EQ(a.uniq_rids, b.uniq_rids) << "tile " << i;
        ASSERT_EQ(a.uniq_cids, b.uniq_cids) << "tile " << i;
    }
    const std::vector<TileEstimate>& est = ht.context().estimates;
    ASSERT_EQ(plan.estimates.size(), est.size());
    ASSERT_EQ(std::memcmp(plan.estimates.data(), est.data(),
                          est.size() * sizeof(TileEstimate)),
              0)
        << "model estimates diverge bitwise";
    const Partition& p = ht.partition();
    EXPECT_EQ(plan.partition.is_hot, p.is_hot);
    EXPECT_EQ(plan.partition.serial, p.serial);
    EXPECT_EQ(plan.partition.heuristic, p.heuristic);
    EXPECT_EQ(plan.partition.predicted_cycles, p.predicted_cycles);
}

} // namespace

TEST(OutOfCorePlan, MatchesInMemoryAcrossThreadsAndWindows)
{
    CooMatrix m = sortedRmat(1 << 11, size_t(8) << 11, 17);
    Architecture arch = testArch(128);
    HotTilesOptions hopts;
    hopts.build_formats = false;
    HotTiles ht(arch, m, hopts);

    CooPanelSource src(m);
    for (unsigned threads : {1u, 2u, 7u}) {
        ThreadGuard tg(threads);
        for (Index window : {Index(0), Index(1), Index(3), Index(8)}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " window=" + std::to_string(window));
            StreamedPlanOptions opts;
            opts.window_panels = window;
            StreamedPlan plan = streamedPlan(arch, src, opts);
            expectPlanMatchesInMemory(plan, ht);
        }
    }
}

TEST(OutOfCorePlan, DirectoryOnlyReadjustMatchesInMemory)
{
    // With tiled-traversal workers the readjustment reads only the tile
    // directory: the planner scores on its grid-free context, with no
    // second pass over the windows.
    CooMatrix m = sortedRmat(1 << 11, size_t(8) << 11, 19);
    Architecture arch = testArch(128);
    arch.cold.traversal = TraversalOrder::TiledRowMajor;
    HotTilesOptions hopts;
    hopts.build_formats = false;
    HotTiles ht(arch, m, hopts);

    CooPanelSource src(m);
    for (unsigned threads : {1u, 7u}) {
        ThreadGuard tg(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectPlanMatchesInMemory(streamedPlan(arch, src, {}), ht);
    }
}

TEST(OutOfCorePlan, MappedSourceMatchesCooSource)
{
    CooMatrix m = sortedRmat(1 << 10, size_t(8) << 10, 23);
    Architecture arch = testArch(64);
    HotTilesOptions hopts;
    hopts.build_formats = false;
    HotTiles ht(arch, m, hopts);

    std::string path = tmpPath("plan_src.htb");
    // Writer panel height != consumer tile height: the mapped source
    // must re-derive boundaries by binary search.
    writeHtbFromCoo(path, m, /*panel_rows=*/48);
    MappedMatrix mapped(path);
    MappedPanelSource msrc(mapped);
    StreamedPlan plan = streamedPlan(arch, msrc, {});
    expectPlanMatchesInMemory(plan, ht);

    EXPECT_EQ(plan.nnz, m.nnz());
    EXPECT_EQ(plan.panel_begin.size(), size_t(plan.num_panels) + 1);
    EXPECT_EQ(plan.panel_begin.back(), plan.tiles.size());
}

/** Run @p fn and expect a FatalError whose message contains @p what. */
template <typename Fn>
void
expectFatal(Fn&& fn, const std::string& what)
{
    try {
        fn();
        ADD_FAILURE() << "no FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(OutOfCorePlan, RejectsMalformedStreams)
{
    // The header/index of these files are valid; only the entry content
    // is corrupted, so the mmap opens fine and the planner's inline
    // validation must catch it with a clean FatalError.
    Architecture arch = testArch(64);
    CooMatrix m(128, 128);
    m.push(0, 1, 1.0f);
    m.push(0, 2, 2.0f);
    m.push(3, 0, 3.0f);
    std::string good = tmpPath("stream_good.htb");
    writeHtbFromCoo(good, m, 64);

    std::string bytes;
    {
        std::ifstream in(good, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const size_t col_off = sizeof(HtbHeader) + m.nnz() * sizeof(Index);
    auto corrupted = [&](size_t i, Index c) {
        std::string b = bytes;
        std::memcpy(b.data() + col_off + i * sizeof(Index), &c, sizeof c);
        std::string path = tmpPath("stream_bad.htb");
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(b.data(), std::streamsize(b.size()));
        return path;
    };

    {  // (0,1),(0,2) -> (0,4),(0,2): not sorted within the panel
        MappedMatrix mm(corrupted(0, 4));
        MappedPanelSource src(mm);
        EXPECT_THROW(streamedPlan(arch, src, {}), FatalError);
    }
    {  // column id outside the matrix
        MappedMatrix mm(corrupted(1, 500));
        MappedPanelSource src(mm);
        EXPECT_THROW(streamedPlan(arch, src, {}), FatalError);
    }

    // The scan's pass 1 is shared by the streamed planner and the
    // mmap-built TileGrid: each malformed input must fail both with the
    // same FatalError.
    auto expectBothReject = [&](const std::string& path, const char* what) {
        SCOPED_TRACE(what);
        MappedMatrix mm(path);
        MappedPanelSource src(mm);
        expectFatal([&] { streamedPlan(arch, src, {}); }, what);
        expectFatal([&] { HotTiles(arch, mm, {}); }, what);
    };
    auto corruptedRow = [&](size_t i, Index r) {
        std::string b = bytes;
        std::memcpy(b.data() + sizeof(HtbHeader) + i * sizeof(Index), &r,
                    sizeof r);
        std::string path = tmpPath("stream_bad_row.htb");
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(b.data(), std::streamsize(b.size()));
        return path;
    };
    // (0,2) -> (100,2): row 100 sits between panel-0 entries.
    expectBothReject(corruptedRow(1, 100), "outside panel");
    // (0,2) -> (0,128): column at cols.
    expectBothReject(corrupted(1, 128), "outside panel");
    // (0,2) -> (0,0): order broken inside panel 0.
    expectBothReject(corrupted(1, 0), "not row-major sorted");
}

TEST(OutOfCoreMmap, HotTilesBitIdenticalAcrossThreads)
{
    CooMatrix m = sortedRmat(1 << 11, size_t(8) << 11, 31);
    Architecture arch = testArch(128);
    std::string path = tmpPath("mmap_build.htb");
    writeHtbFromCoo(path, m, 128);

    HotTilesOptions opts;
    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(5);
    din.fillRandom(rng);

    HotTiles inmem(arch, m, opts);
    DenseMatrix ref = exec::referenceExecute(inmem.grid(), inmem.partition(),
                                             opts.kernel, din);

    for (unsigned threads : {1u, 2u, 7u}) {
        ThreadGuard tg(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        MappedMatrix mapped(path);
        HotTiles viamap(arch, mapped, opts);
        EXPECT_TRUE(samePreprocessedState(inmem, viamap));

        DenseMatrix out = exec::referenceExecute(
            viamap.grid(), viamap.partition(), opts.kernel, din);
        ASSERT_EQ(out.data().size(), ref.data().size());
        EXPECT_EQ(std::memcmp(out.data().data(), ref.data().data(),
                              ref.data().size() * sizeof(Value)),
                  0);
    }
}

TEST(OutOfCoreConvert, MatrixMarketConverterMatchesReader)
{
    // General file with duplicate coordinates: the converter must sum
    // them in file order, exactly like the in-memory reader.
    std::string mtx = tmpPath("dups.mtx");
    {
        std::ofstream out(mtx);
        out << "%%MatrixMarket matrix coordinate real general\n"
            << "6 6 5\n"
            << "1 2 1.25\n"
            << "1 2 2.5\n"
            << "5 1 -3.0\n"
            << "6 6 0.5\n"
            << "1 2 0.125\n";
    }
    std::string htb = tmpPath("dups.htb");
    uint64_t n = convertMatrixMarketToHtb(mtx, htb, /*panel_rows=*/2);
    CooMatrix expect = readMatrixMarketFile(mtx);
    CooMatrix got = loadHtbToCoo(htb);
    EXPECT_EQ(n, expect.nnz());
    ASSERT_TRUE(got.sameStructure(expect));
    for (size_t i = 0; i < got.nnz(); ++i)
        ASSERT_EQ(got.value(i), expect.value(i)) << "entry " << i;
}

TEST(OutOfCoreConvert, ExpandsSymmetryLikeReader)
{
    std::string mtx = tmpPath("sym.mtx");
    {
        std::ofstream out(mtx);
        out << "%%MatrixMarket matrix coordinate real symmetric\n"
            << "5 5 3\n"
            << "3 1 2.0\n"
            << "4 4 1.0\n"
            << "5 2 -0.5\n";
    }
    std::string htb = tmpPath("sym.htb");
    convertMatrixMarketToHtb(mtx, htb, 2);
    CooMatrix expect = readMatrixMarketFile(mtx);
    CooMatrix got = loadHtbToCoo(htb);
    ASSERT_TRUE(got.sameStructure(expect));
    for (size_t i = 0; i < got.nnz(); ++i)
        ASSERT_EQ(got.value(i), expect.value(i)) << "entry " << i;

    std::string skew = tmpPath("skew.mtx");
    {
        std::ofstream out(skew);
        out << "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            << "4 4 2\n"
            << "3 1 2.0\n"
            << "4 2 -1.5\n";
    }
    std::string skew_htb = tmpPath("skew.htb");
    convertMatrixMarketToHtb(skew, skew_htb, 2);
    CooMatrix se = readMatrixMarketFile(skew);
    CooMatrix sg = loadHtbToCoo(skew_htb);
    ASSERT_TRUE(sg.sameStructure(se));
    for (size_t i = 0; i < sg.nnz(); ++i)
        ASSERT_EQ(sg.value(i), se.value(i)) << "entry " << i;
}

TEST(OutOfCoreConvert, MatchesReaderOnGeneratedMatrix)
{
    CooMatrix m = sortedRmat(512, 4000, 41);
    std::string mtx = tmpPath("gen.mtx");
    writeMatrixMarketFile(m, mtx);
    std::string htb = tmpPath("gen.htb");
    convertMatrixMarketToHtb(mtx, htb, 64);
    CooMatrix expect = readMatrixMarketFile(mtx);
    CooMatrix got = loadHtbToCoo(htb);
    ASSERT_TRUE(got.sameStructure(expect));
    for (size_t i = 0; i < got.nnz(); ++i)
        ASSERT_EQ(got.value(i), expect.value(i)) << "entry " << i;
}

// --- exact-reservation pins (no-regrow allocation contract) ------------

TEST(OutOfCoreAlloc, CsrFromCooReservesExactly)
{
    CooMatrix m = sortedRmat(256, 3000, 43);
    CsrMatrix csr = CsrMatrix::fromCoo(m);
    EXPECT_EQ(csr.colIds().capacity(), csr.colIds().size());
    EXPECT_EQ(csr.values().capacity(), csr.values().size());
    EXPECT_EQ(csr.colIds().size(), m.nnz());
}

TEST(OutOfCoreAlloc, MatrixMarketReaderNeverRegrows)
{
    CooMatrix m = sortedRmat(256, 3000, 47);
    std::string mtx = tmpPath("noregrow.mtx");
    writeMatrixMarketFile(m, mtx);

    Counter& regrow = MetricsRegistry::global().counter("alloc.coo_regrow");
    uint64_t before = regrow.value();
    CooMatrix back = readMatrixMarketFile(mtx);
    EXPECT_EQ(regrow.value(), before)
        << "reader reallocated despite knowing the entry count";
    EXPECT_EQ(back.nnz(), m.nnz());
}
