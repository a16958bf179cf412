#pragma once

/**
 * @file
 * Final predicted-runtime evaluation (last column of Fig 8) including
 * the §IV-C reuse readjustment: once the assignment of tiles to worker
 * types is known, inter-tile Dout reuse is re-charged to the first tile
 * of each worker type in every row panel (tiled traversal) or to the
 * first tile containing each r_id (untiled traversal).
 */

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "partition/partition.hpp"

namespace hottiles {

/** Totals over an assignment after readjustment (Eq 2-3). */
struct AssignmentTotals
{
    double th_total = 0;  //!< sum over hot tiles of th_i / N_hw
    double tc_total = 0;  //!< sum over cold tiles of tc_i / N_cw
    double bh_total = 0;  //!< bytes moved by hot workers
    double bc_total = 0;  //!< bytes moved by cold workers

    double bTotal() const { return bh_total + bc_total; }
};

/**
 * Compute readjusted totals for @p is_hot.  Set @p readjust to false to
 * get the raw maximum-reuse totals (what the cutoff search uses).  A
 * grid-free context (makePartitionContextFromDirectory) works unless a
 * worker type needs the untiled readjustment's per-tile row ids.
 */
AssignmentTotals assignmentTotals(const PartitionContext& ctx,
                                  const std::vector<uint8_t>& is_hot,
                                  bool readjust = true);

/**
 * Per-tile score of an assignment: each tile's final (§IV-C
 * readjusted) byte and unscaled time contribution under its assigned
 * type.  The readjusted totals are a pure chunk-ordered reduction over
 * these arrays, and every entry depends only on its own row panel's
 * tile data and membership pattern — which is what lets the
 * delta-update path (docs/INCREMENTAL.md) recompute only dirty panels
 * and splice the rest bit-identically.
 */
struct AssignmentScore
{
    std::vector<double> bytes;  //!< bytes moved (assigned type)
    std::vector<double> time;   //!< execution time, unscaled by count
};

/** Fill @p out with the full score of @p is_hot (every panel). */
void assignmentScore(const PartitionContext& ctx,
                     const std::vector<uint8_t>& is_hot,
                     AssignmentScore& out);

/**
 * Recompute only the listed panels of @p io in place; entries of every
 * other panel are left untouched.  @p io must already be sized to the
 * grid.  The listed panels' entries come out identical to a full
 * assignmentScore() pass (panels are independent).
 */
void assignmentScorePanels(const PartitionContext& ctx,
                           const std::vector<uint8_t>& is_hot,
                           const std::vector<Index>& panels,
                           AssignmentScore& io);

/** Row ids of global tile t in tiled order. */
using TileRowsFn = std::function<std::span<const Index>(size_t t)>;

/**
 * Recompute panels [p0, p1) of @p io in place, taking the row ids the
 * untiled readjustment walks from @p rows_of instead of the grid: the
 * out-of-core planner streams them back in window by window
 * (docs/OUTOFCORE.md).  An empty @p rows_of scores without the
 * readjustment.  @p io must already be sized to the tiles.
 */
void assignmentScoreWindow(const PartitionContext& ctx,
                           const std::vector<uint8_t>& is_hot, Index p0,
                           Index p1, const TileRowsFn& rows_of,
                           AssignmentScore& io);

/**
 * Reduce a score to readjusted totals.  Deterministic: per-chunk
 * partials combine in chunk order, independent of the thread count, and
 * the result is bit-identical to assignmentTotals() on the same
 * assignment.
 */
AssignmentTotals reduceAssignmentScore(const PartitionContext& ctx,
                                       const std::vector<uint8_t>& is_hot,
                                       const AssignmentScore& s);

/** Parallel-operation predicted runtime: Eq 5 / Fig 8 rows 1 and 3. */
double predictedParallelCycles(const PartitionContext& ctx,
                               const AssignmentTotals& t);

/** Serial-operation predicted runtime: Eq 7 / Fig 8 rows 2 and 4. */
double predictedSerialCycles(const PartitionContext& ctx,
                             const AssignmentTotals& t);

/** predictedSerialCycles or predictedParallelCycles by @p serial. */
double predictedCycles(const PartitionContext& ctx, const AssignmentTotals& t,
                       bool serial);

/** Final predicted runtime for an assignment and operation mode. */
double predictedRuntimeCycles(const PartitionContext& ctx,
                              const std::vector<uint8_t>& is_hot,
                              bool serial);

/**
 * Predicted runtime of a homogeneous execution (every tile on one
 * type): max(time_total, bytes/BW), with readjustment; no merge cost.
 */
double predictedHomogeneousCycles(const PartitionContext& ctx, bool hot);

} // namespace hottiles
