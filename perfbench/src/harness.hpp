#pragma once

/**
 * @file
 * Shared pieces of the end-to-end benchmark harness: what a workload
 * records, the exact-count signature, input fixtures and the helpers
 * every workload uses to call into the library.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/arch_config.hpp"
#include "core/hottiles.hpp"
#include "exec/backend.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"

namespace perfbench {

using hottiles::Architecture;
using hottiles::CooMatrix;
using hottiles::DenseMatrix;

/** Threads of the library's global pool in every workload. */
inline constexpr unsigned kPoolThreads = 2;
/** Row-panel height of the `.htb` fixtures (the CLI's default). */
inline constexpr hottiles::Index kPanelRows = 256;

/** One benchmark input, as recorded next to the host's LLC size. */
struct InputInfo
{
    std::string name;
    uint64_t rows = 0, cols = 0, nnz = 0;
    unsigned k = 0;
    /** Matrix (12 B/nnz) + Din + Dout + the two class accumulators. */
    uint64_t working_set_bytes = 0;
};

/** Everything one workload process measured. */
struct Results
{
    std::vector<double> setup_s;         //!< one entry per set-up repeat
    std::vector<double> op_ms;           //!< latency of each timed op
    std::vector<std::string> op_kind;    //!< kind of each timed op
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double timed_wall_s = 0;             //!< wall time the ops ran in
    /** Raw per-layer samples read from library reports (not spans). */
    std::map<std::string, std::vector<double>> samples;
    /** Exact counts: a key always maps to the same value in one run. */
    std::map<std::string, std::string> counts;
    std::vector<std::string> failures;
    std::vector<InputInfo> inputs;

    void addOp(const std::string& kind, double ms, bool ok);
    void sample(const std::string& key, double v) { samples[key].push_back(v); }
    /** Record an exact count; a different value for a key already seen
     *  is a behaviour change inside one run and fails the run. */
    bool expectCount(const std::string& key, const std::string& value);
    bool expectCount(const std::string& key, double value);
    void fail(const std::string& why);
    /** Fold another thread's results into this one. */
    void merge(const Results& o);
};

/** Command-line options of the `run` mode. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    std::string fixtures;  //!< directory written by the `fixtures` mode
    bool trace = false;
};

// --- Input fixtures (fixtures.cpp) ------------------------------------

/** The matrices a workload reads, in rotation order. */
std::vector<std::string> fixtureMatrices(const std::string& workload);

/** Write every input file of @p workload for @p seed into @p dir. */
void writeFixtures(const std::string& workload, uint64_t seed,
                   const std::string& dir);

/** A suite proxy with every value redrawn from @p seed (structure is
 *  the proxy's, so plans do not depend on the seed). */
CooMatrix seededSuiteMatrix(const std::string& name, uint64_t seed);

/** Dense operand for @p name, drawn from @p seed. */
DenseMatrix seededDin(hottiles::Index rows, unsigned k, uint64_t seed,
                      const std::string& name);

InputInfo describeInput(const std::string& name, uint64_t rows,
                        uint64_t cols, uint64_t nnz, unsigned k);

uint64_t mixSeed(uint64_t seed, const std::string& salt);

// --- Library helpers shared by the workloads (main.cpp) -----------------

/** Force a fresh calibration of the benchmark's architecture (the
 *  library memoizes it per process) inside a core.calibrate span. */
Architecture calibrateArch();

/** Build a plan inside a core.plan span and record its stage times. */
std::unique_ptr<hottiles::HotTiles> buildPlan(
    const Architecture& arch, const CooMatrix& m, unsigned k, Results* r);
std::unique_ptr<hottiles::HotTiles> buildPlan(
    const Architecture& arch, const hottiles::MappedMatrix& m, unsigned k,
    Results* r);

/** Native options the CLI uses: policy plus the model's hot share. */
hottiles::exec::NativeExecOptions execOptions(const hottiles::HotTiles& ht,
                                              hottiles::kernels::Policy p);

/** "<matrix>.k<K>.<policy>" — the key of per-plan metrics. */
std::string planKey(const std::string& matrix, unsigned k,
                    hottiles::kernels::Policy p);

/** Record an exec report's per-plan samples and exact counts; false
 *  when a count differs from an earlier op of the same plan. */
bool recordExec(Results* r, const std::string& key,
                const hottiles::exec::ExecReport& rep, uint64_t nnz,
                uint64_t rows, uint64_t cols, unsigned k);

/** Record the plan's exact signature (heuristic, cycles, hot tiles);
 *  false when it differs from an earlier build of the same plan. */
bool recordPlan(Results* r, const std::string& key,
                const hottiles::HotTiles& ht);

/** Compare @p out with @p ref under @p policy's contract. */
bool outputMatches(const DenseMatrix& out, const DenseMatrix& ref,
                   hottiles::kernels::Policy policy);

/** Kernel-dispatch counters (`kernel.dispatch.<op>.<tier>`) now. */
std::map<std::string, uint64_t> dispatchCounters();

// --- Workloads ---------------------------------------------------------

Results runOneshot(const RunOptions& o);
Results runSpmmSteady(const RunOptions& o);
Results runServeMix(const RunOptions& o);

} // namespace perfbench
