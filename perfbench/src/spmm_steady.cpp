// spmm-steady: the iterative (GNN layer / solver) loop.  Set-up parses
// the .mtx files and builds four plans once; each op is one round of
// NativeCpuBackend::run over all four.  Exec and the kernels do all of
// an op's work and the plan layers none.  Two K values and hot shares
// from 0 to ~50% let both K-dependent kernel choices and hot/cold queue
// changes show.

#include <fstream>
#include <tuple>

#include "common/error.hpp"
#include "exec/backend.hpp"
#include "harness.hpp"
#include "sparse/matrix_market.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace hottiles;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kWarmupRounds = 2;

struct Plan
{
    std::string matrix;
    unsigned k;
    kernels::Policy policy;
    std::string key;
    uint64_t rows = 0, cols = 0, nnz = 0;
    DenseMatrix din;
    DenseMatrix ref;  //!< Golden reference (Fast runs compare approx.)
    std::unique_ptr<HotTiles> ht;
    std::unique_ptr<exec::ExecutionBackend> backend;
    DenseMatrix out;
    exec::ExecReport rep;
};

KernelConfig
spmm(unsigned k)
{
    KernelConfig kc;
    kc.k = Index(k);
    return kc;
}

/** One round: every plan once.  The caller's op span encloses it. */
void
runRound(std::vector<Plan>& plans)
{
    for (Plan& p : plans) {
        Span s("exec.run");
        p.out = p.backend->run(p.ht->grid(), p.ht->partition(), spmm(p.k),
                               p.din, &p.rep);
    }
}

} // namespace

Results
runSpmmSteady(const RunOptions& opt)
{
    using kernels::Policy;
    Results r;
    std::vector<Plan> plans;
    for (auto [m, k, pol] : {std::tuple{"dgr", 32u, Policy::Golden},
                             std::tuple{"ser", 32u, Policy::Fast},
                             std::tuple{"pac", 8u, Policy::Golden},
                             std::tuple{"pok", 8u, Policy::Fast}}) {
        Plan p;
        p.matrix = m;
        p.k = k;
        p.policy = pol;
        p.key = planKey(m, k, pol);
        plans.push_back(std::move(p));
    }

    // Input shapes from the fixture manifest; Din per plan from the seed.
    {
        std::ifstream f(opt.fixtures + "/manifest.txt");
        std::string name;
        uint64_t rows, cols, nnz;
        while (f >> name >> rows >> cols >> nnz)
            for (Plan& p : plans)
                if (p.matrix == name) {
                    p.rows = rows;
                    p.cols = cols;
                    p.nnz = nnz;
                }
    }
    for (Plan& p : plans) {
        HT_FATAL_IF(p.nnz == 0, "fixture manifest lacks ", p.matrix);
        p.din = seededDin(Index(p.cols), p.k, opt.seed, p.matrix);
        r.inputs.push_back(describeInput(p.key, p.rows, p.cols, p.nnz, p.k));
    }

    // Set-up: calibration, then parse and plan every matrix.  Repeated so
    // setup_s is a median; the last repeat's plans are the ones timed.
    for (int i = 0; i < kSetupRepeats; ++i) {
        for (Plan& p : plans) {
            p.backend.reset();
            p.ht.reset();
        }
        const double t0 = nowSeconds();
        Architecture arch = calibrateArch();
        for (Plan& p : plans) {
            CooMatrix m;
            {
                Span s("sparse.mtx_read");
                m = readMatrixMarketFile(opt.fixtures + "/" + p.matrix +
                                         ".mtx");
            }
            HT_FATAL_IF(m.nnz() != p.nnz, "parsed ", p.matrix, " has ",
                        m.nnz(), " nonzeros, manifest says ", p.nnz);
            const bool last = i + 1 == kSetupRepeats;
            p.ht = buildPlan(arch, m, p.k, last ? &r : nullptr);
            p.backend =
                exec::makeNativeCpuBackend(execOptions(*p.ht, p.policy));
        }
        r.setup_s.push_back(nowSeconds() - t0);
    }

    for (Plan& p : plans) {
        recordPlan(&r, p.key, *p.ht);
        Span s("verify.reference");
        p.ref = exec::referenceExecute(p.ht->grid(), p.ht->partition(),
                                       spmm(p.k), p.din);
    }
    for (int i = 0; i < kWarmupRounds; ++i)
        runRound(plans);

    const auto d0 = dispatchCounters();
    const double t_begin = nowSeconds();
    uint64_t op_id = 0;
    while (nowSeconds() - t_begin < opt.seconds) {
        Span op("op", ++op_id);
        runRound(plans);
        const double sec = op.stop();
        r.timed_wall_s += sec;
        bool ok = true;
        for (Plan& p : plans) {
            ok &= recordExec(&r, p.key, p.rep, p.nnz, p.rows, p.cols, p.k);
            if (!outputMatches(p.out, p.ref, p.policy)) {
                r.fail("spmm-steady " + p.key +
                       ": output does not match referenceExecute");
                ok = false;
            }
        }
        r.addOp("round", sec * 1e3, ok);
    }
    const auto d1 = dispatchCounters();
    for (const auto& [name, v] : d1) {
        const double per_op = double(v - d0.at(name)) / double(r.attempted);
        r.sample(name, per_op);
        r.expectCount(name + ".per_op", per_op);
    }
    return r;
}

} // namespace perfbench
