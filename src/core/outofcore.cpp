#include "core/outofcore.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rss.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/hottiles.hpp"
#include "partition/heuristics.hpp"
#include "partition/predicted_runtime.hpp"

namespace hottiles {

StreamedPlan
streamedPlan(const Architecture& arch, const PanelSource& src,
             const StreamedPlanOptions& opts)
{
    HT_ASSERT(arch.hot.count > 0 && arch.cold.count > 0,
              "streamedPlan needs both worker types");
    auto progress = [&](const char* stage) {
        if (opts.progress)
            opts.progress(stage);
    };

    StreamedPlan plan;
    plan.rows = src.rows();
    plan.cols = src.cols();
    plan.nnz = src.nnz();
    plan.tile_h = arch.tile_height;
    plan.tile_w = arch.tile_width;
    HT_ASSERT(plan.tile_h > 0 && plan.tile_w > 0, "tile dims must be > 0");
    const TileShape shape{plan.rows, plan.cols, plan.tile_h, plan.tile_w};
    plan.num_panels = shape.numPanels();
    plan.num_tcols = shape.numTileCols();
    const Index window =
        opts.window_panels > 0 ? opts.window_panels : Index(32);
    // Windows are entry-budgeted, not fixed-width: a skewed matrix
    // (RMAT's dense top rows) concentrates a large share of the
    // nonzeros in a few panels, and a fixed panel count would make the
    // scratch high-water O(that share).  The budget is `window` average
    // panel populations; a window always advances at least one panel,
    // so the bound degrades gracefully to the largest single panel.
    // Per-panel results are window-independent, so this only moves the
    // memory/parallelism trade-off, never the plan bits.
    const size_t entry_budget =
        size_t(window) *
        std::max<size_t>(
            1, ceilDiv(plan.nnz, size_t(std::max<Index>(1, plan.num_panels))));
    auto windowEnd = [&](Index p0) {
        const size_t first = src.beginEntry(plan.tile_h, p0);
        Index p1 = p0 + 1;
        while (p1 < plan.num_panels && p1 - p0 < window &&
               src.beginEntry(plan.tile_h, p1 + 1) - first <= entry_budget)
            ++p1;
        return p1;
    };
    // Acquire panels [p0, p1) as a scan window (ids only).
    std::vector<size_t> pstart;
    auto acquire = [&](Index p0, Index p1) {
        pstart.resize(size_t(p1 - p0) + 1);
        for (Index p = p0; p <= p1; ++p)
            pstart[p - p0] = src.beginEntry(plan.tile_h, p);
        return PanelWindow{p0, pstart,
                           src.rowIds(pstart.front(), pstart.back()),
                           src.colIds(pstart.front(), pstart.back()), {}};
    };
    // The panel index slice of window [p0, p1).
    auto windowIndex = [&](Index p0, Index p1) {
        return std::span(plan.panel_begin).subspan(p0, size_t(p1 - p0) + 1);
    };
    auto release = [&](const PanelWindow& w) {
        src.release(w.start.front(), w.start.back());
        recordPeakRss();
    };

    // ---- Pass A: scan + model, one panel window at a time.  Each
    // window goes through the matrix scan TileGrid uses (validation,
    // directory append with global offsets, a window-local scatter for
    // the unique-id statistics), is estimated, and released.  Panels
    // are independent and chunk bounds depend only on the range, so
    // every Tile and TileEstimate comes out bit-identical to the
    // in-memory TileGrid + estimateTiles path regardless of thread
    // count or window size.
    progress("scan");
    plan.panel_begin.assign(size_t(plan.num_panels) + 1, 0);
    std::vector<Index> srows;  // window-local tiled-order row ids
    std::vector<Index> scols;  // window-local tiled-order column ids
    double scan_s = 0;
    double model_s = 0;

    for (Index p0 = 0, p1; p0 < plan.num_panels; p0 = p1) {
        p1 = windowEnd(p0);
        double t0 = monotonicSeconds();
        const size_t tiles_before = plan.tiles.size();
        const PanelWindow w = acquire(p0, p1);
        scanPanelWindow(shape, w, plan.tiles, windowIndex(p0, p1), srows,
                        scols, nullptr);
        double t1 = monotonicSeconds();
        scan_s += t1 - t0;

        // Model: one estimate per window tile; elementwise pure, so the
        // chunking cannot affect the result.
        if (p0 == 0)
            progress("model");
        plan.estimates.resize(plan.tiles.size());
        parallelFor(tiles_before, plan.tiles.size(), kGrainTiles,
                    [&](size_t tb, size_t te) {
                        for (size_t i = tb; i < te; ++i)
                            plan.estimates[i] =
                                estimateTile(plan.tiles[i], arch.hot,
                                             arch.cold, opts.kernel);
                    });
        model_s += monotonicSeconds() - t1;
        release(w);
    }
    plan.timing.scan_s = scan_s;
    plan.timing.model_s = model_s;
    srows = {};
    scols = {};

    // ---- Pass B: grid-free partitioning through the partition core
    // hotTilesPartition runs, so the winning partition — including
    // predicted_cycles — is bit-identical.  The §IV-C readjustment
    // reads only the directory unless a worker type is an
    // untiled-traversal InterTile one; then it needs each tile's row
    // ids, and the windows are streamed once more.
    progress("partition");
    double t2 = monotonicSeconds();
    const PlatformTerms pt = platformTerms(arch, opts.kernel, plan.rows);
    PartitionContext ctx = makePartitionContextFromDirectory(
        plan.tiles, plan.panel_begin, std::move(plan.estimates), arch.hot,
        arch.cold, opts.kernel, pt.bw_bytes_per_cycle, pt.t_merge_cycles,
        pt.race_free, pt.hot_bw_bytes_per_cycle);

    auto needsRowWalk = [](const WorkerTraits& w) {
        return w.dout_reuse == ReuseType::InterTile &&
               w.traversal != TraversalOrder::TiledRowMajor;
    };
    if (!needsRowWalk(arch.hot) && !needsRowWalk(arch.cold)) {
        plan.partition = hotTilesPartition(ctx);
    } else {
        // Per-panel scores are independent, so the window decomposition
        // cannot change them; one re-stream serves every candidate.
        plan.partition = hotTilesPartitionWith(
            ctx, [&](std::vector<Partition>& cands) {
                std::vector<AssignmentScore> scores(cands.size());
                for (AssignmentScore& sc : scores) {
                    sc.bytes.resize(plan.tiles.size());
                    sc.time.resize(plan.tiles.size());
                }
                for (Index p0 = 0, p1; p0 < plan.num_panels; p0 = p1) {
                    p1 = windowEnd(p0);
                    const PanelWindow w = acquire(p0, p1);
                    srows.resize(w.rows.size());
                    scatterPanelWindow(shape, w, plan.tiles,
                                       windowIndex(p0, p1), srows.data(),
                                       nullptr, nullptr);
                    auto rows_of = [&](size_t t) {
                        return std::span<const Index>(
                            srows.data() +
                                (plan.tiles[t].offset - w.start.front()),
                            plan.tiles[t].nnz);
                    };
                    for (size_t c = 0; c < cands.size(); ++c)
                        assignmentScoreWindow(ctx, cands[c].is_hot, p0, p1,
                                              rows_of, scores[c]);
                    release(w);
                }
                for (size_t c = 0; c < cands.size(); ++c)
                    cands[c].predicted_cycles = predictedCycles(
                        ctx,
                        reduceAssignmentScore(ctx, cands[c].is_hot,
                                              scores[c]),
                        cands[c].serial);
            });
    }
    srows = {};
    plan.estimates = std::move(ctx.estimates);
    plan.timing.partition_s = monotonicSeconds() - t2;

    MetricsRegistry& reg = MetricsRegistry::global();
    reg.timer("preprocess.scan").observe(plan.timing.scan_s);
    reg.timer("preprocess.model").observe(plan.timing.model_s);
    reg.timer("preprocess.partition").observe(plan.timing.partition_s);
    recordPeakRss();
    return plan;
}

} // namespace hottiles
