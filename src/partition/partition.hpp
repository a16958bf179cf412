#pragma once

/**
 * @file
 * Core partitioning types: the per-tile model estimates fed to the
 * heuristics (th_i, tc_i, bh_i, bc_i in §V-A) and the resulting
 * hot/cold assignment.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/roofline.hpp"  // TileEstimate + the estimateTiles sweep
#include "model/worker_traits.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

/**
 * Everything the partitioner needs about the platform and the matrix:
 * the tile grid, the two worker-type descriptions, the kernel, shared
 * memory bandwidth, the merge cost, and the per-tile estimates
 * (maximum-reuse assumption, §IV-C).
 */
struct PartitionContext
{
    const TileGrid* grid = nullptr;
    const WorkerTraits* hot = nullptr;
    const WorkerTraits* cold = nullptr;
    KernelConfig kernel;
    double bw_bytes_per_cycle = 1;
    /**
     * Effective bandwidth available to the hot workers alone; equals
     * bw_bytes_per_cycle on-die, but the off-die Sextans of Fig 9(b) is
     * additionally capped by its PCIe link.  Used by the predicted
     * runtime formulas' hot-phase bandwidth terms.
     */
    double hot_bw_bytes_per_cycle = 1;
    /** Cost of merging the private output buffers after parallel runs. */
    double t_merge_cycles = 0;
    /**
     * True when the architecture offers race-free read-modify-write
     * (PIUMA's atomic engine): no private buffers, t_merge = 0, and only
     * the Parallel heuristics apply (§V-B).
     */
    bool atomic_rmw = false;
    std::vector<TileEstimate> estimates;  //!< one per grid tile

    /**
     * Grid-free tile-directory view for the out-of-core planner
     * (docs/OUTOFCORE.md): the streamed pipeline retains only the O(tiles)
     * directory and its panel index, not the O(nnz) grid.  The accessors
     * below prefer the grid whenever it is set, so contexts whose grid
     * is later patched in place (applyDelta) never read a stale view.
     */
    std::span<const Tile> tiles_view;
    std::span<const size_t> panel_begin_view;

    size_t numTiles() const
    {
        return grid ? grid->numTiles() : tiles_view.size();
    }
    const Tile& tileAt(size_t i) const
    {
        return grid ? grid->tile(i) : tiles_view[i];
    }
    Index numPanels() const
    {
        return grid ? grid->numPanels()
                    : Index(panel_begin_view.size() - 1);
    }
    /** [first, last) tile range of panel @p p. */
    std::pair<size_t, size_t> panelTiles(Index p) const
    {
        return grid ? grid->panelTiles(p)
                    : std::pair{panel_begin_view[p], panel_begin_view[p + 1]};
    }
};

/**
 * Run the model over every tile of @p grid ("matrix scan" of Fig 7) and
 * assemble a PartitionContext.  @p t_merge_cycles is ignored (forced 0)
 * when @p atomic_rmw is set.
 */
PartitionContext makePartitionContext(
    const TileGrid& grid, const WorkerTraits& hot, const WorkerTraits& cold,
    const KernelConfig& kernel, double bw_bytes_per_cycle,
    double t_merge_cycles, bool atomic_rmw,
    double hot_bw_bytes_per_cycle = 0 /* 0 = same as shared bandwidth */);

/**
 * Assemble a PartitionContext from a bare tile directory, its panel
 * index (first tile of each panel, plus the end) and already-computed
 * estimates — the out-of-core planner's entry point, where the O(nnz)
 * grid was streamed away and only the directory remains.  @p tiles and
 * @p panel_begin must stay alive as long as the context is used.
 */
PartitionContext makePartitionContextFromDirectory(
    std::span<const Tile> tiles, std::span<const size_t> panel_begin,
    std::vector<TileEstimate> estimates, const WorkerTraits& hot,
    const WorkerTraits& cold,
    const KernelConfig& kernel, double bw_bytes_per_cycle,
    double t_merge_cycles, bool atomic_rmw,
    double hot_bw_bytes_per_cycle = 0);

/** A hot/cold assignment of tiles plus its predicted cost. */
struct Partition
{
    std::vector<uint8_t> is_hot;   //!< per grid-tile flag
    bool serial = false;           //!< worker types run serially
    double predicted_cycles = 0;   //!< final predicted runtime (§V-B)
    std::string heuristic;         //!< which strategy produced this

    /** Tile ids assigned hot, in grid (tiled row-major) order. */
    std::vector<size_t> hotTiles() const;
    /** Tile ids assigned cold. */
    std::vector<size_t> coldTiles() const;
    /** Fraction of tiles assigned hot. */
    double hotTileFraction() const;
    /** Fraction of nonzeros assigned hot (needs the grid for weights). */
    double hotNnzFraction(const TileGrid& grid) const;
};

} // namespace hottiles
