#include "sparse/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ranges>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sparse/delta.hpp"

namespace hottiles {

namespace {

/** Per-panel compact histogram: the occupied tile columns in ascending
 *  order and their nonzero counts. */
struct PanelHist
{
    std::vector<Index> tcols;
    std::vector<size_t> counts;
};

/** Directory entry of tile column @p tc in panel @p p (stats unset). */
Tile
makeTile(const TileShape& s, Index p, Index tc, size_t offset, size_t nnz)
{
    Tile t{};
    t.panel = p;
    t.tcol = tc;
    t.row0 = p * s.tile_h;
    t.col0 = tc * s.tile_w;
    t.height = std::min<Index>(s.tile_h, s.rows - t.row0);
    t.width = std::min<Index>(s.tile_w, s.cols - t.col0);
    t.offset = offset;
    t.nnz = nnz;
    return t;
}

/**
 * Unique row/column counts of tile @p t from its tiled-order ids.  Rows
 * are sorted within a tile, so unique rows are row transitions; columns
 * use a stamped scratch array of tile_width entries.
 */
void
countUniques(Tile& t, const Index* rows, const Index* cols,
             std::vector<uint32_t>& col_stamp, uint32_t& generation)
{
    ++generation;
    Index uniq_r = 0;
    Index uniq_c = 0;
    Index prev_row = ~Index(0);
    for (size_t i = 0; i < t.nnz; ++i) {
        if (rows[i] != prev_row) {
            ++uniq_r;
            prev_row = rows[i];
        }
        Index local_c = cols[i] - t.col0;
        if (col_stamp[local_c] != generation) {
            col_stamp[local_c] = generation;
            ++uniq_c;
        }
    }
    t.uniq_rids = uniq_r;
    t.uniq_cids = uniq_c;
}

/** (row, col) as one key in row-major order. */
uint64_t
coordKey(Index r, Index c)
{
    return uint64_t(r) << 32 | c;
}

} // namespace

void
scanPanelWindow(const TileShape& s, const PanelWindow& w,
                std::vector<Tile>& tiles, std::span<size_t> panel_begin,
                std::vector<Index>& tiled_rows,
                std::vector<Index>& tiled_cols,
                std::vector<Value>* tiled_vals)
{
    const size_t wp = w.start.size() - 1;
    const size_t base = w.start.front();
    const size_t n = w.start.back() - base;
    HT_ASSERT(w.rows.size() == n && w.cols.size() == n,
              "window spans must cover its entries");
    HT_ASSERT(!tiled_vals || w.vals.size() == n, "window values missing");
    HT_ASSERT(panel_begin.size() == wp + 1, "panel index must fit the window");

    // Pass 1: validate and build per-panel compact histograms.  The
    // flat per-chunk scratch counter is reset by visiting only the
    // occupied entries.
    std::vector<PanelHist> hist(wp);
    parallelFor(0, wp, kGrainPanels, [&](size_t pb, size_t pe) {
        std::vector<size_t> cnt(s.numTileCols(), 0);
        for (size_t j = pb; j < pe; ++j) {
            const Index p = w.p0 + Index(j);
            const Index prow0 = s.panelRow0(p);
            const Index prow1 = s.panelRow0(p + 1);
            PanelHist& h = hist[j];
            const size_t first = w.start[j] - base;
            for (size_t i = first; i < w.start[j + 1] - base; ++i) {
                const Index r = w.rows[i];
                const Index c = w.cols[i];
                HT_FATAL_IF(r < prow0 || r >= prow1 || c >= s.cols, "entry ",
                            base + i, " (", r, ",", c, ") outside panel ", p,
                            " of the ", s.rows, "x", s.cols, " matrix");
                HT_FATAL_IF(i > first && (r < w.rows[i - 1] ||
                                          (r == w.rows[i - 1] &&
                                           c < w.cols[i - 1])),
                            "entries not row-major sorted at ", base + i);
                Index tc = c / s.tile_w;
                if (cnt[tc]++ == 0)
                    h.tcols.push_back(tc);
            }
            std::sort(h.tcols.begin(), h.tcols.end());
            h.counts.resize(h.tcols.size());
            for (size_t k = 0; k < h.tcols.size(); ++k) {
                h.counts[k] = cnt[h.tcols[k]];
                cnt[h.tcols[k]] = 0;
            }
        }
    });

    // Directory append in (panel, tcol) order.  The window's first
    // tile starts at offset `base`: offsets accumulate every earlier
    // panel's entries.
    // A window of every panel (TileGrid) sizes the directory exactly;
    // streamed windows let it grow geometrically.
    const size_t tiles_before = tiles.size();
    if (w.p0 == 0 && wp == s.numPanels()) {
        size_t ntiles = tiles_before;
        for (const PanelHist& h : hist)
            ntiles += h.tcols.size();
        tiles.reserve(ntiles);
    }
    size_t offset = base;
    for (size_t j = 0; j < wp; ++j) {
        const Index p = w.p0 + Index(j);
        panel_begin[j] = tiles.size();
        const PanelHist& h = hist[j];
        for (size_t k = 0; k < h.tcols.size(); ++k) {
            tiles.push_back(makeTile(s, p, h.tcols[k], offset, h.counts[k]));
            offset += h.counts[k];
        }
    }
    panel_begin[wp] = tiles.size();

    // Pass 2: stable counting-sort scatter into tiled order.
    tiled_rows.resize(n);
    tiled_cols.resize(n);
    if (tiled_vals)
        tiled_vals->resize(n);
    scatterPanelWindow(s, w, tiles, panel_begin, tiled_rows.data(),
                       tiled_cols.data(),
                       tiled_vals ? tiled_vals->data() : nullptr);

    // Pass 3: per-tile unique row/column counts (one stamp array per
    // chunk — tiles are disjoint, so the pass parallelizes over tiles).
    parallelFor(tiles_before, tiles.size(), kGrainTiles,
                [&](size_t tb, size_t te) {
                    std::vector<uint32_t> col_stamp(s.tile_w, 0);
                    uint32_t generation = 0;
                    for (size_t ti = tb; ti < te; ++ti) {
                        Tile& t = tiles[ti];
                        const size_t at = t.offset - base;
                        countUniques(t, tiled_rows.data() + at,
                                     tiled_cols.data() + at, col_stamp,
                                     generation);
                    }
                });
}

void
scatterPanelWindow(const TileShape& s, const PanelWindow& w,
                   const std::vector<Tile>& tiles,
                   std::span<const size_t> panel_begin, Index* out_rows,
                   Index* out_cols, Value* out_vals)
{
    const size_t base = w.start.front();
    parallelFor(0, w.start.size() - 1, kGrainPanels, [&](size_t pb, size_t pe) {
        std::vector<size_t> cursor(s.numTileCols());
        for (size_t j = pb; j < pe; ++j) {
            for (size_t t = panel_begin[j]; t < panel_begin[j + 1]; ++t)
                cursor[tiles[t].tcol] = tiles[t].offset - base;
            for (size_t i = w.start[j] - base; i < w.start[j + 1] - base;
                 ++i) {
                const size_t pos = cursor[w.cols[i] / s.tile_w]++;
                out_rows[pos] = w.rows[i];
                if (out_cols)
                    out_cols[pos] = w.cols[i];
                if (out_vals)
                    out_vals[pos] = w.vals[i];
            }
        }
    });
}

TileGrid::TileGrid(const CooMatrix& a, Index tile_height, Index tile_width)
    : rows_(a.rows()), cols_(a.cols()), tile_h_(tile_height),
      tile_w_(tile_width)
{
    // Row-major-sorted input keeps (row, col) order inside each tile after
    // a stable counting sort by tile key.
    const CooMatrix* src = &a;
    CooMatrix sorted;
    if (!a.isRowMajorSorted()) {
        sorted = a;
        sorted.sortRowMajor();
        src = &sorted;
    }
    build(src->rowIds(), src->colIds(), src->values());
}

TileGrid::TileGrid(Index rows, Index cols, std::span<const Index> row_ids,
                   std::span<const Index> col_ids,
                   std::span<const Value> vals, Index tile_height,
                   Index tile_width)
    : rows_(rows), cols_(cols), tile_h_(tile_height), tile_w_(tile_width)
{
    HT_ASSERT(row_ids.size() == col_ids.size() &&
                  row_ids.size() == vals.size(),
              "parallel arrays must have equal length");
    build(row_ids, col_ids, vals);
}

void
TileGrid::build(std::span<const Index> row_ids,
                std::span<const Index> col_ids, std::span<const Value> vals)
{
    HT_ASSERT(tile_h_ > 0 && tile_w_ > 0, "tile dims must be > 0");
    const size_t n = row_ids.size();
    const TileShape shape{rows_, cols_, tile_h_, tile_w_};
    num_panels_ = shape.numPanels();
    num_tcols_ = shape.numTileCols();

    // Row-major-sorted input makes each row panel a contiguous nonzero
    // range; panel boundaries come from one binary search per panel.
    // lower_bound is monotone in its key even over unsorted ids, so on
    // malformed input the ranges still partition the entries and the
    // scan's validation rejects them.
    std::vector<size_t> panel_start(size_t(num_panels_) + 1, n);
    for (Index p = 0; p < num_panels_; ++p)
        panel_start[p] = std::lower_bound(row_ids.begin(), row_ids.end(),
                                          shape.panelRow0(p)) -
                         row_ids.begin();

    // Panel index: first tile of each panel (empty panels collapse to
    // the next panel's start, keeping ranges well formed).
    panel_begin_.assign(size_t(num_panels_) + 1, 0);
    scanPanelWindow(shape, {0, panel_start, row_ids, col_ids, vals}, tiles_,
                    panel_begin_, tiled_rows_, tiled_cols_, &tiled_vals_);
}

size_t
TileGrid::emptyTiles() const
{
    return size_t(num_panels_) * num_tcols_ - tiles_.size();
}

std::span<const Index>
TileGrid::tileRows(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_rows_.data() + t.offset, t.nnz};
}

std::span<const Index>
TileGrid::tileCols(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_cols_.data() + t.offset, t.nnz};
}

std::span<const Value>
TileGrid::tileVals(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_vals_.data() + t.offset, t.nnz};
}

std::pair<size_t, size_t>
TileGrid::panelTiles(Index p) const
{
    HT_ASSERT(p < num_panels_, "panel out of range");
    return {panel_begin_[p], panel_begin_[p + 1]};
}

size_t
TileGrid::findNonzero(Index r, Index c, size_t* tile_out) const
{
    if (r >= rows_ || c >= cols_)
        return SIZE_MAX;
    const Index tc = c / tile_w_;
    auto [first, last] = panelTiles(r / tile_h_);
    // Tiles of a panel are sorted by tile column.
    size_t lo = first, hi = last;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (tiles_[mid].tcol < tc)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == last || tiles_[lo].tcol != tc)
        return SIZE_MAX;
    // Within a tile, nonzeros are sorted by (row, col).
    const Tile& t = tiles_[lo];
    size_t a = t.offset, b = t.offset + t.nnz;
    while (a < b) {
        size_t mid = a + (b - a) / 2;
        if (tiled_rows_[mid] < r ||
            (tiled_rows_[mid] == r && tiled_cols_[mid] < c))
            a = mid + 1;
        else
            b = mid;
    }
    if (a == t.offset + t.nnz || tiled_rows_[a] != r || tiled_cols_[a] != c)
        return SIZE_MAX;
    if (tile_out)
        *tile_out = lo;
    return a;
}

void
TileGrid::setTiledValue(size_t pos, Value v)
{
    HT_ASSERT(pos < tiled_vals_.size(), "tiled position out of range");
    tiled_vals_[pos] = v;
}

double
TileGrid::tileNnzCv() const
{
    const double positions =
        static_cast<double>(num_panels_) * num_tcols_;
    if (positions == 0.0)
        return 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& t : tiles_) {
        sum += static_cast<double>(t.nnz);
        sum_sq += static_cast<double>(t.nnz) * t.nnz;
    }
    double mean = sum / positions;
    if (mean == 0.0)
        return 0.0;
    double var = sum_sq / positions - mean * mean;
    return std::sqrt(std::max(var, 0.0)) / mean;
}

CooMatrix
TileGrid::tileCoo(size_t i) const
{
    const Tile& t = tiles_.at(i);
    CooMatrix m(rows_, cols_);
    m.reserve(t.nnz);
    for (size_t j = t.offset; j < t.offset + t.nnz; ++j)
        m.push(tiled_rows_[j], tiled_cols_[j], tiled_vals_[j]);
    return m;
}

void
TileGrid::gatherPanel(std::span<const size_t> tile_ids,
                      std::vector<Index>& rows, std::vector<Index>& cols,
                      std::vector<Value>& vals,
                      std::vector<size_t>& cursor) const
{
    const Index row0 = tile_ids.empty() ? 0 : tiles_[tile_ids[0]].row0;
    cursor.assign(size_t(tile_h_) + 1, 0);
    for (size_t id : tile_ids)
        for (Index r : tileRows(id))
            ++cursor[r - row0 + 1];
    for (size_t r = 1; r <= tile_h_; ++r)
        cursor[r] += cursor[r - 1];
    const size_t nnz = cursor[tile_h_];
    rows.resize(nnz);
    cols.resize(nnz);
    vals.resize(nnz);
    for (size_t id : tile_ids) {
        auto rs = tileRows(id);
        auto cs = tileCols(id);
        auto vs = tileVals(id);
        for (size_t i = 0; i < rs.size(); ++i) {
            const size_t pos = cursor[rs[i] - row0]++;
            rows[pos] = rs[i];
            cols[pos] = cs[i];
            vals[pos] = vs[i];
        }
    }
}

TileGridDelta
TileGrid::applyDelta(const DeltaBatch& d)
{
    TileGridDelta out;
    out.old_panel_begin = panel_begin_;
    out.old_num_tiles = tiles_.size();
    out.panel_dirty.assign(num_panels_, 0);
    out.inserted = d.inserts();
    out.deleted = d.deletes();
    if (d.empty())
        return out;

    // Bucket the batch by row panel; everything before the splice is
    // validation or scratch work, so a FatalError leaves the grid
    // unmodified.
    struct Op
    {
        Index row, col;
        Value val;
        bool is_insert;
        uint64_t key() const { return coordKey(row, col); }
    };
    std::vector<std::vector<Op>> panel_ops(num_panels_);
    for (size_t i = 0; i < d.inserts(); ++i) {
        HT_FATAL_IF(d.ins_rows[i] >= rows_ || d.ins_cols[i] >= cols_,
                    "delta insert (", d.ins_rows[i], ",", d.ins_cols[i],
                    ") outside the ", rows_, "x", cols_, " matrix");
        panel_ops[d.ins_rows[i] / tile_h_].push_back(
            {d.ins_rows[i], d.ins_cols[i], d.ins_vals[i], true});
    }
    for (size_t i = 0; i < d.deletes(); ++i) {
        HT_FATAL_IF(d.del_rows[i] >= rows_ || d.del_cols[i] >= cols_,
                    "delta delete (", d.del_rows[i], ",", d.del_cols[i],
                    ") outside the ", rows_, "x", cols_, " matrix");
        panel_ops[d.del_rows[i] / tile_h_].push_back(
            {d.del_rows[i], d.del_cols[i], Value(0), false});
    }
    for (Index p = 0; p < num_panels_; ++p) {
        if (!panel_ops[p].empty()) {
            out.panel_dirty[p] = 1;
            out.dirty_panels.push_back(p);
        }
    }

    // Re-tile each dirty panel through the fresh build's scan: gather
    // its old nonzeros row-major, merge them with the panel's ops, and
    // scan the result as a one-panel window (tile offsets come out
    // panel-local).  Panels are independent, so the rebuild
    // parallelizes race-free.
    struct PanelRebuild
    {
        std::vector<Tile> tiles;
        std::vector<Index> rows, cols;
        std::vector<Value> vals;
    };
    std::vector<PanelRebuild> rebuilt(out.dirty_panels.size());
    const TileShape shape{rows_, cols_, tile_h_, tile_w_};
    parallelFor(0, out.dirty_panels.size(), 1, [&](size_t rb0, size_t rb1) {
        std::vector<size_t> ids, cursor;
        std::vector<Index> rows, cols;
        std::vector<Value> vals;
        for (size_t ri = rb0; ri < rb1; ++ri) {
            const Index p = out.dirty_panels[ri];
            std::vector<Op>& ops = panel_ops[p];
            std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
                return a.key() < b.key();
            });
            for (size_t i = 1; i < ops.size(); ++i)
                HT_FATAL_IF(ops[i - 1].key() == ops[i].key(),
                            "delta touches (", ops[i].row, ",", ops[i].col,
                            ") more than once");

            // The old nonzeros go row-major into the rebuild buffers;
            // the scan below overwrites them with the panel's new tiles.
            PanelRebuild& rb = rebuilt[ri];
            ids.resize(panel_begin_[size_t(p) + 1] - panel_begin_[p]);
            std::iota(ids.begin(), ids.end(), panel_begin_[p]);
            gatherPanel(ids, rb.rows, rb.cols, rb.vals, cursor);

            // Merge two (row, col)-sorted runs: old entries between ops
            // are copied in bulk.  An insert must land on an empty
            // coordinate and a delete on an occupied one.
            rows.clear();
            cols.clear();
            vals.clear();
            rows.reserve(rb.rows.size() + ops.size());
            cols.reserve(rb.rows.size() + ops.size());
            vals.reserve(rb.rows.size() + ops.size());
            size_t e = 0;
            auto keepOld = [&](size_t end) {
                rows.insert(rows.end(), rb.rows.begin() + e,
                            rb.rows.begin() + end);
                cols.insert(cols.end(), rb.cols.begin() + e,
                            rb.cols.begin() + end);
                vals.insert(vals.end(), rb.vals.begin() + e,
                            rb.vals.begin() + end);
                e = end;
            };
            auto oldKey = [&](size_t i) {
                return coordKey(rb.rows[i], rb.cols[i]);
            };
            for (const Op& op : ops) {
                const auto rest = std::views::iota(e, rb.rows.size());
                const auto next = std::ranges::partition_point(
                    rest, [&](size_t i) { return oldKey(i) < op.key(); });
                keepOld(e + size_t(next - rest.begin()));
                const bool exists = e < rb.rows.size() && oldKey(e) == op.key();
                HT_FATAL_IF(exists && op.is_insert,
                            "delta inserts existing nonzero (", op.row, ",",
                            op.col, ")");
                HT_FATAL_IF(!exists && !op.is_insert,
                            "delta deletes missing nonzero (", op.row, ",",
                            op.col, ")");
                if (op.is_insert) {
                    rows.push_back(op.row);
                    cols.push_back(op.col);
                    vals.push_back(op.val);
                } else {
                    ++e;  // delete: drop the old entry
                }
            }
            keepOld(rb.rows.size());

            const size_t start[2] = {0, rows.size()};
            size_t panel_begin[2];
            scanPanelWindow(shape, {p, start, rows, cols, vals}, rb.tiles,
                            panel_begin, rb.rows, rb.cols, &rb.vals);
        }
    });

    // Splice: rebuild the tile directory with fresh running offsets
    // (identical to the constructor's walk), then move each panel's
    // contiguous nonzero range — old arrays for clean panels, rebuild
    // buffers for dirty ones — to its new position.
    std::vector<Tile> new_tiles = std::move(tiles_scratch_);
    new_tiles.clear();
    new_tiles.reserve(tiles_.size() + out.inserted);
    std::vector<size_t> new_panel_begin = std::move(panel_begin_scratch_);
    new_panel_begin.assign(size_t(num_panels_) + 1, 0);
    std::vector<size_t> panel_data_off(num_panels_, 0);
    size_t offset = 0;
    size_t ri = 0;
    for (Index p = 0; p < num_panels_; ++p) {
        new_panel_begin[p] = new_tiles.size();
        panel_data_off[p] = offset;
        auto append = [&](Tile t) {
            t.offset = offset;
            offset += t.nnz;
            new_tiles.push_back(t);
        };
        if (out.panelDirty(p)) {
            for (const Tile& t : rebuilt[ri++].tiles)
                append(t);
        } else {
            for (size_t ti = panel_begin_[p]; ti < panel_begin_[size_t(p) + 1];
                 ++ti)
                append(tiles_[ti]);
        }
    }
    new_panel_begin[num_panels_] = new_tiles.size();

    // In-place splice.  A batch that outgrows the arrays first reserves
    // 1/8 headroom, so a growing update stream reallocates rarely.
    // Maximal runs of consecutive clean panels keep their internal
    // layout and shift by one per-run constant, so each run is a single
    // overlapping memmove.  Left-shifting runs move in ascending order,
    // right-shifting ones in descending order — either way a run's
    // destination never covers a not-yet-moved run's source (sources
    // and destinations are both monotone in panel order) — and dirty
    // panels, whose data lives in the rebuild buffers, are written
    // last.  Runs with zero shift (everything before the first dirty
    // panel and, for nnz-neutral batches, everything after the last)
    // cost nothing.
    const size_t old_total = tiled_rows_.size();
    const size_t new_total = offset;
    // Tile offsets run contiguously and an empty panel's index points at
    // the next panel's first tile, so that tile's offset is the panel's
    // old data offset.
    auto oldDataOff = [&](Index p) {
        const size_t t = panel_begin_[p];
        return t < tiles_.size() ? tiles_[t].offset : old_total;
    };
    if (new_total > tiled_rows_.capacity() ||
        new_total > tiled_cols_.capacity() ||
        new_total > tiled_vals_.capacity()) {
        const size_t capacity = new_total + new_total / 8;
        tiled_rows_.reserve(capacity);
        tiled_cols_.reserve(capacity);
        tiled_vals_.reserve(capacity);
    }
    if (new_total > old_total) {
        tiled_rows_.resize(new_total);
        tiled_cols_.resize(new_total);
        tiled_vals_.resize(new_total);
    }
    struct Run
    {
        size_t src, dst, len;
    };
    std::vector<Run> runs;
    for (Index p = 0; p < num_panels_;) {
        if (out.panelDirty(p)) {
            ++p;
            continue;
        }
        Index q = p;
        while (q < num_panels_ && !out.panelDirty(q))
            ++q;
        const size_t src = oldDataOff(p);
        const size_t dst = panel_data_off[p];
        const size_t len = oldDataOff(q) - src;
        if (len != 0 && src != dst)
            runs.push_back({src, dst, len});
        p = q;
    }
    auto moveRun = [&](const Run& r) {
        std::memmove(tiled_rows_.data() + r.dst, tiled_rows_.data() + r.src,
                     r.len * sizeof(Index));
        std::memmove(tiled_cols_.data() + r.dst, tiled_cols_.data() + r.src,
                     r.len * sizeof(Index));
        std::memmove(tiled_vals_.data() + r.dst, tiled_vals_.data() + r.src,
                     r.len * sizeof(Value));
    };
    for (const Run& r : runs)
        if (r.dst < r.src)
            moveRun(r);
    for (auto it = runs.rbegin(); it != runs.rend(); ++it)
        if (it->dst > it->src)
            moveRun(*it);
    parallelFor(0, out.dirty_panels.size(), 1, [&](size_t rb0, size_t rb1) {
        for (size_t ri = rb0; ri < rb1; ++ri) {
            const PanelRebuild& rb = rebuilt[ri];
            const size_t dst = panel_data_off[out.dirty_panels[ri]];
            std::copy_n(rb.rows.data(), rb.rows.size(),
                        tiled_rows_.data() + dst);
            std::copy_n(rb.cols.data(), rb.cols.size(),
                        tiled_cols_.data() + dst);
            std::copy_n(rb.vals.data(), rb.vals.size(),
                        tiled_vals_.data() + dst);
        }
    });
    if (new_total < old_total) {
        tiled_rows_.resize(new_total);
        tiled_cols_.resize(new_total);
        tiled_vals_.resize(new_total);
    }

    std::swap(tiles_, new_tiles);
    std::swap(panel_begin_, new_panel_begin);
    tiles_scratch_ = std::move(new_tiles);
    panel_begin_scratch_ = std::move(new_panel_begin);
    return out;
}

CooMatrix
TileGrid::gatherTiles(const std::vector<size_t>& tile_ids) const
{
    size_t total = 0;
    for (size_t id : tile_ids)
        total += tiles_.at(id).nnz;
    CooMatrix m(rows_, cols_);
    m.reserve(total);
    for (size_t id : tile_ids) {
        const Tile& t = tiles_[id];
        for (size_t j = t.offset; j < t.offset + t.nnz; ++j)
            m.push(tiled_rows_[j], tiled_cols_[j], tiled_vals_[j]);
    }
    m.sortRowMajor();
    return m;
}

} // namespace hottiles
