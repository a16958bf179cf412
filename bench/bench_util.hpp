#pragma once

/**
 * @file
 * Shared harness for the figure/table reproduction benches: suite matrix
 * caching, strategy sweeps over the Table V / Table VIII sets, speedup
 * arithmetic, and the uniform headings each binary prints.
 */

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/calibrate.hpp"
#include "core/execution.hpp"
#include "sparse/suite.hpp"
#include "sparse/tiling.hpp"

namespace hottiles::bench {

/**
 * Parse the shared bench flags and strip them from argv (so wrapped
 * argument parsers like google-benchmark never see them):
 *   --smoke       tiny-synthetic-matrix mode for CI: every suite name
 *                 resolves to one small deterministic matrix so each
 *                 binary exercises its full code path in seconds.
 *   --threads N   thread-pool size (same as the CLI flag).
 * @p options is the synopsis of the bench's own flags for the usage
 * line.  When it is empty the bench takes none, so any argument left
 * over is a usage error.  Call first thing in main().  Also installs
 * the bench-wide handler for runtime errors: an exception that leaves
 * main (an unwritable --out path, bad input) prints "error: ..." on
 * stderr and exits 1 instead of aborting.
 */
void init(int* argc, char** argv, const char* options = "");

/**
 * A bad command line: print @p what and the usage line to stderr and
 * exit 2, the CLI's usage code (docs/SERVING.md).
 */
[[noreturn]] void usageError(const std::string& what);

/** The value after the flag at argv[*i], advancing *i; a missing value
 *  is a usage error. */
std::string flagValue(int argc, char** argv, int* i);

/** flagValue as a whole non-negative number; anything else is a usage
 *  error. */
uint64_t flagCount(int argc, char** argv, int* i);

/** flagValue as a finite number; anything else is a usage error. */
double flagNumber(int argc, char** argv, int* i);

/** True when --smoke was passed (benches may trim their sweeps). */
bool smokeMode();

/** Print the standard experiment banner. */
void banner(const std::string& experiment, const std::string& paper_ref,
            const std::string& description);

/** Matrix names of Table V (or a subset from HT_BENCH_MATRICES). */
std::vector<std::string> tableVNames();

/** Matrix names of Table VIII. */
std::vector<std::string> tableVIIINames();

/** Process-cached suite matrix (generated once per binary). */
const CooMatrix& suiteMatrix(const std::string& name);

/** Process-cached tile grid for a suite matrix at the given tile size. */
const TileGrid& suiteGrid(const std::string& name, Index tile_h,
                          Index tile_w);

/** Evaluate every strategy for each named matrix under @p arch. */
std::vector<MatrixEvaluation> evaluateSuite(
    const Architecture& arch, const std::vector<std::string>& names,
    const HotTilesOptions& opts = {});

/** Geometric mean of f(ev) over evaluations. */
double geomeanOver(const std::vector<MatrixEvaluation>& evs,
                   const std::function<double(const MatrixEvaluation&)>& f);

/** Speedup of a/b guarded against zero. */
double speedup(double baseline_cycles, double cycles);

} // namespace hottiles::bench
