#include "partition/predicted_runtime.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "model/memory_model.hpp"
#include "model/time_model.hpp"

namespace hottiles {

namespace {

/** Row-id stamp scratch for the untiled-traversal readjustment plus
 *  panel-local extras buffers; one per parallel chunk, generations
 *  never reused across panels or types. */
struct PanelScratch
{
    std::vector<uint32_t> rid_stamp;
    uint32_t generation = 0;
    std::vector<double> extra_hot;
    std::vector<double> extra_cold;
};

/** The grid's row ids per tile, for the untiled readjustment. */
TileRowsFn
gridRows(const PartitionContext& ctx)
{
    return [&ctx](size_t t) {
        HT_ASSERT(ctx.grid, "untiled readjustment needs the grid's row ids; "
                            "stream them instead");
        return ctx.grid->tileRows(t);
    };
}

/**
 * Extra Dout bytes charged to each tile of one worker type once the
 * assignment is known (§IV-C), for a single row panel.  Under the
 * maximum-reuse assumption, tiles with Dout inter-tile reuse were
 * charged zero; in reality the first tile of the type in a row panel
 * streams the panel's Dout (tiled traversal), or each r_id's
 * first-appearance tile fetches that row on demand (untiled traversal).
 * Writes per-tile extra bytes (read + write) into @p extra, indexed
 * panel-locally (extra[t - first]); 0 for tiles the type does not own.
 */
void
readjustPanel(const PartitionContext& ctx, const std::vector<uint8_t>& is_hot,
              bool for_hot, Index p, const TileRowsFn& rows_of,
              PanelScratch& scratch, double* extra)
{
    const WorkerTraits& w = for_hot ? *ctx.hot : *ctx.cold;
    auto [first, last] = ctx.panelTiles(p);
    std::fill(extra, extra + (last - first), 0.0);
    if (w.dout_reuse != ReuseType::InterTile)
        return;

    const double row_bytes = denseRowBytes(w, ctx.kernel);
    if (w.traversal == TraversalOrder::TiledRowMajor) {
        // The first owned tile streams the whole panel's Dout rows in
        // and the last one writes them back; charge both to the first
        // tile (it bounds the predicted time identically).
        for (size_t t = first; t < last; ++t) {
            if ((is_hot[t] != 0) == for_hot) {
                extra[t - first] = 2.0 * row_bytes * ctx.tileAt(t).height;
                break;
            }
        }
        return;
    }
    // Untiled: each r_id's first appearance among owned tiles costs one
    // demand read + one write of the row.
    std::vector<uint32_t>& stamp = scratch.rid_stamp;
    const uint32_t generation = ++scratch.generation;
    for (size_t t = first; t < last; ++t) {
        if ((is_hot[t] != 0) != for_hot)
            continue;
        const Tile& tile = ctx.tileAt(t);
        if (stamp.size() < tile.height)
            stamp.resize(tile.height, 0);
        double new_rids = 0;
        for (Index rid : rows_of(t)) {
            Index local = rid - tile.row0;
            if (stamp[local] != generation) {
                stamp[local] = generation;
                new_rids += 1.0;
            }
        }
        extra[t - first] = 2.0 * row_bytes * new_rids;
    }
}

struct TileContrib
{
    double bytes;
    double time;
};

/** One tile's readjusted byte/time contribution under its assigned
 *  type. */
TileContrib
tileContrib(const PartitionContext& ctx, const Tile& tile,
            const TileEstimate& e, bool hot, double extra)
{
    const WorkerTraits& w = hot ? *ctx.hot : *ctx.cold;
    TileContrib c;
    c.bytes = (hot ? e.bh : e.bc) + extra;
    c.time = hot ? e.th : e.tc;
    if (extra > 0.0) {
        TileBytes tb = tileBytes(tile, w, ctx.kernel);
        tb.dout_read += extra / 2.0;
        tb.dout_write += extra / 2.0;
        c.time =
            tileTimeFromBytes(tb, double(tile.nnz), w, ctx.kernel).total;
    }
    return c;
}

/** Score panel @p p into @p s; an empty @p rows_of skips the
 *  readjustment (raw maximum-reuse contributions). */
void
scorePanel(const PartitionContext& ctx, const std::vector<uint8_t>& is_hot,
           Index p, const TileRowsFn& rows_of, PanelScratch& scratch,
           AssignmentScore& s)
{
    auto [first, last] = ctx.panelTiles(p);
    const size_t len = last - first;
    if (scratch.extra_hot.size() < len) {
        scratch.extra_hot.resize(len);
        scratch.extra_cold.resize(len);
    }
    if (rows_of) {
        readjustPanel(ctx, is_hot, /*for_hot=*/true, p, rows_of, scratch,
                      scratch.extra_hot.data());
        readjustPanel(ctx, is_hot, /*for_hot=*/false, p, rows_of, scratch,
                      scratch.extra_cold.data());
    }
    for (size_t i = first; i < last; ++i) {
        const bool hot = is_hot[i] != 0;
        const double extra = !rows_of ? 0.0
                             : hot    ? scratch.extra_hot[i - first]
                                      : scratch.extra_cold[i - first];
        TileContrib c =
            tileContrib(ctx, ctx.tileAt(i), ctx.estimates[i], hot, extra);
        s.bytes[i] = c.bytes;
        s.time[i] = c.time;
    }
}

} // namespace

void
assignmentScore(const PartitionContext& ctx,
                const std::vector<uint8_t>& is_hot, AssignmentScore& out)
{
    out.bytes.resize(ctx.numTiles());
    out.time.resize(ctx.numTiles());
    assignmentScoreWindow(ctx, is_hot, 0, ctx.numPanels(), gridRows(ctx), out);
}

void
assignmentScorePanels(const PartitionContext& ctx,
                      const std::vector<uint8_t>& is_hot,
                      const std::vector<Index>& panels, AssignmentScore& io)
{
    HT_ASSERT(io.bytes.size() == ctx.numTiles(), "score is not sized");
    const TileRowsFn rows = gridRows(ctx);
    parallelFor(0, panels.size(), 1, [&](size_t b, size_t e) {
        PanelScratch scratch;
        for (size_t i = b; i < e; ++i)
            scorePanel(ctx, is_hot, panels[i], rows, scratch, io);
    });
}

void
assignmentScoreWindow(const PartitionContext& ctx,
                      const std::vector<uint8_t>& is_hot, Index p0, Index p1,
                      const TileRowsFn& rows_of, AssignmentScore& io)
{
    HT_ASSERT(is_hot.size() == ctx.numTiles(), "assignment size mismatch");
    HT_ASSERT(ctx.estimates.size() == ctx.numTiles(), "estimates missing");
    HT_ASSERT(io.bytes.size() == ctx.numTiles() &&
                  io.time.size() == ctx.numTiles(),
              "score is not sized");
    parallelFor(p0, p1, kGrainPanels, [&](size_t pb, size_t pe) {
        PanelScratch scratch;
        for (size_t p = pb; p < pe; ++p)
            scorePanel(ctx, is_hot, Index(p), rows_of, scratch, io);
    });
}

AssignmentTotals
reduceAssignmentScore(const PartitionContext& ctx,
                      const std::vector<uint8_t>& is_hot,
                      const AssignmentScore& s)
{
    const size_t n = ctx.numTiles();
    const double n_hw = ctx.hot->count;
    const double n_cw = ctx.cold->count;
    // Deterministic parallel reduction: per-chunk partial totals are
    // combined in chunk order, independent of the thread count.
    return parallelReduce(
        0, n, kGrainTiles, AssignmentTotals{},
        [&](size_t b, size_t e_end) {
            AssignmentTotals totals;
            for (size_t i = b; i < e_end; ++i) {
                if (is_hot[i]) {
                    totals.bh_total += s.bytes[i];
                    totals.th_total += s.time[i] / n_hw;
                } else {
                    totals.bc_total += s.bytes[i];
                    totals.tc_total += s.time[i] / n_cw;
                }
            }
            return totals;
        },
        [](AssignmentTotals a, const AssignmentTotals& b) {
            a.th_total += b.th_total;
            a.tc_total += b.tc_total;
            a.bh_total += b.bh_total;
            a.bc_total += b.bc_total;
            return a;
        });
}

AssignmentTotals
assignmentTotals(const PartitionContext& ctx,
                 const std::vector<uint8_t>& is_hot, bool readjust)
{
    // Every total goes through the per-tile score, so the fresh,
    // incremental and streamed paths share one arithmetic.
    AssignmentScore s;
    s.bytes.resize(ctx.numTiles());
    s.time.resize(ctx.numTiles());
    assignmentScoreWindow(ctx, is_hot, 0, ctx.numPanels(),
                          readjust ? gridRows(ctx) : TileRowsFn{}, s);
    return reduceAssignmentScore(ctx, is_hot, s);
}

double
predictedParallelCycles(const PartitionContext& ctx,
                        const AssignmentTotals& t)
{
    double exec = std::max(std::max(t.th_total, t.tc_total),
                           t.bTotal() / ctx.bw_bytes_per_cycle);
    // Off-die hot workers are additionally limited by their link.
    exec = std::max(exec, t.bh_total / ctx.hot_bw_bytes_per_cycle);
    return exec + ctx.t_merge_cycles;
}

double
predictedSerialCycles(const PartitionContext& ctx, const AssignmentTotals& t)
{
    double hot_phase =
        std::max(t.th_total, t.bh_total / ctx.hot_bw_bytes_per_cycle);
    double cold_phase =
        std::max(t.tc_total, t.bc_total / ctx.bw_bytes_per_cycle);
    return hot_phase + cold_phase;
}

double
predictedCycles(const PartitionContext& ctx, const AssignmentTotals& t,
                bool serial)
{
    return serial ? predictedSerialCycles(ctx, t)
                  : predictedParallelCycles(ctx, t);
}

double
predictedRuntimeCycles(const PartitionContext& ctx,
                       const std::vector<uint8_t>& is_hot, bool serial)
{
    return predictedCycles(ctx, assignmentTotals(ctx, is_hot), serial);
}

double
predictedHomogeneousCycles(const PartitionContext& ctx, bool hot)
{
    std::vector<uint8_t> is_hot(ctx.numTiles(), hot ? 1 : 0);
    AssignmentTotals totals = assignmentTotals(ctx, is_hot);
    if (hot)
        return std::max(totals.th_total,
                        totals.bh_total / ctx.hot_bw_bytes_per_cycle);
    return std::max(totals.tc_total,
                    totals.bc_total / ctx.bw_bytes_per_cycle);
}

} // namespace hottiles
