#include "partition/partition.hpp"

#include "common/error.hpp"

namespace hottiles {

namespace {

/** Every field both context constructors set the same way. */
PartitionContext
contextBase(const WorkerTraits& hot, const WorkerTraits& cold,
            const KernelConfig& kernel, double bw_bytes_per_cycle,
            double t_merge_cycles, bool atomic_rmw,
            double hot_bw_bytes_per_cycle)
{
    HT_ASSERT(hot.role == WorkerRole::Hot, "hot traits not marked hot");
    HT_ASSERT(cold.role == WorkerRole::Cold, "cold traits not marked cold");
    HT_ASSERT(bw_bytes_per_cycle > 0, "bandwidth must be positive");

    PartitionContext ctx;
    ctx.hot = &hot;
    ctx.cold = &cold;
    ctx.kernel = kernel;
    ctx.bw_bytes_per_cycle = bw_bytes_per_cycle;
    ctx.hot_bw_bytes_per_cycle =
        hot_bw_bytes_per_cycle > 0
            ? std::min(hot_bw_bytes_per_cycle, bw_bytes_per_cycle)
            : bw_bytes_per_cycle;
    ctx.atomic_rmw = atomic_rmw;
    ctx.t_merge_cycles = atomic_rmw ? 0.0 : t_merge_cycles;
    return ctx;
}

} // namespace

PartitionContext
makePartitionContext(const TileGrid& grid, const WorkerTraits& hot,
                     const WorkerTraits& cold, const KernelConfig& kernel,
                     double bw_bytes_per_cycle, double t_merge_cycles,
                     bool atomic_rmw, double hot_bw_bytes_per_cycle)
{
    PartitionContext ctx =
        contextBase(hot, cold, kernel, bw_bytes_per_cycle, t_merge_cycles,
                    atomic_rmw, hot_bw_bytes_per_cycle);
    ctx.grid = &grid;
    ctx.estimates = estimateTiles(grid, hot, cold, kernel);
    return ctx;
}

PartitionContext
makePartitionContextFromDirectory(std::span<const Tile> tiles,
                                  std::span<const size_t> panel_begin,
                                  std::vector<TileEstimate> estimates,
                                  const WorkerTraits& hot,
                                  const WorkerTraits& cold,
                                  const KernelConfig& kernel,
                                  double bw_bytes_per_cycle,
                                  double t_merge_cycles, bool atomic_rmw,
                                  double hot_bw_bytes_per_cycle)
{
    HT_ASSERT(estimates.size() == tiles.size(), "one estimate per tile");
    HT_ASSERT(!panel_begin.empty() && panel_begin.back() == tiles.size(),
              "panel index must end at the tile count");
    PartitionContext ctx =
        contextBase(hot, cold, kernel, bw_bytes_per_cycle, t_merge_cycles,
                    atomic_rmw, hot_bw_bytes_per_cycle);
    ctx.tiles_view = tiles;
    ctx.panel_begin_view = panel_begin;
    ctx.estimates = std::move(estimates);
    return ctx;
}

std::vector<size_t>
Partition::hotTiles() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < is_hot.size(); ++i)
        if (is_hot[i])
            out.push_back(i);
    return out;
}

std::vector<size_t>
Partition::coldTiles() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < is_hot.size(); ++i)
        if (!is_hot[i])
            out.push_back(i);
    return out;
}

double
Partition::hotTileFraction() const
{
    if (is_hot.empty())
        return 0.0;
    size_t hot = 0;
    for (uint8_t h : is_hot)
        hot += h ? 1 : 0;
    return static_cast<double>(hot) / is_hot.size();
}

double
Partition::hotNnzFraction(const TileGrid& grid) const
{
    HT_ASSERT(is_hot.size() == grid.numTiles(), "assignment size mismatch");
    size_t hot = 0;
    size_t total = 0;
    for (size_t i = 0; i < is_hot.size(); ++i) {
        total += grid.tile(i).nnz;
        if (is_hot[i])
            hot += grid.tile(i).nnz;
    }
    return total ? static_cast<double>(hot) / total : 0.0;
}

} // namespace hottiles
