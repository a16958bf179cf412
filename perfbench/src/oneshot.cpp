// oneshot: the `hottiles run --mmap --native` user path, one op per
// matrix of a fixed rotation: map the .htb, build the plan (K = 32,
// no eager formats), run it natively under the Golden policy.  The plan
// layers and exec.prepare do most of an op's work; .mtx parsing is kept
// out because it would cost 5-10x the plan build and hide it.

#include <optional>

#include "exec/backend.hpp"
#include "harness.hpp"
#include "sparse/htb.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace hottiles;

namespace {

constexpr unsigned kK = 32;
constexpr kernels::Policy kPolicy = kernels::Policy::Golden;
constexpr int kSetupRepeats = 5;

struct Input
{
    std::string name, path, key;
    uint64_t rows = 0, cols = 0, nnz = 0;
    DenseMatrix din;
    DenseMatrix ref;
};

struct OpOutput
{
    std::unique_ptr<HotTiles> ht;
    DenseMatrix out;
    exec::ExecReport rep;
};

/** One user-path op; the caller's op span encloses it. */
OpOutput
runOp(const Architecture& arch, const Input& in, Results* r)
{
    OpOutput o;
    std::optional<MappedMatrix> mapped;
    {
        Span s("sparse.htb_map");
        mapped.emplace(in.path);
    }
    o.ht = buildPlan(arch, *mapped, kK, r);
    {
        Span s("sparse.htb_unmap");
        mapped.reset();
    }
    Span s("exec.run");
    auto backend = exec::makeNativeCpuBackend(execOptions(*o.ht, kPolicy));
    KernelConfig kc;
    kc.k = Index(kK);
    o.out = backend->run(o.ht->grid(), o.ht->partition(), kc, in.din, &o.rep);
    return o;
}

} // namespace

Results
runOneshot(const RunOptions& opt)
{
    Results r;
    std::vector<Input> inputs;
    for (const std::string& name : fixtureMatrices("oneshot")) {
        Input in;
        in.name = name;
        in.path = opt.fixtures + "/" + name + ".htb";
        in.key = planKey(name, kK, kPolicy);
        {
            MappedMatrix m(in.path);
            in.rows = m.rows();
            in.cols = m.cols();
            in.nnz = m.nnz();
        }
        in.din = seededDin(Index(in.cols), kK, opt.seed, name);
        r.inputs.push_back(describeInput(name, in.rows, in.cols, in.nnz, kK));
        inputs.push_back(std::move(in));
    }

    // Set-up a user pays before the first op: calibration.
    Architecture arch;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double t0 = nowSeconds();
        arch = calibrateArch();
        r.setup_s.push_back(nowSeconds() - t0);
    }

    // References before timing; this also warms each input once.
    for (Input& in : inputs) {
        OpOutput o = runOp(arch, in, nullptr);
        recordPlan(&r, in.key, *o.ht);
        KernelConfig kc;
        kc.k = Index(kK);
        Span s("verify.reference");
        in.ref = exec::referenceExecute(o.ht->grid(), o.ht->partition(), kc,
                                        in.din);
    }

    // Closed loop over whole rotations, so each matrix gets the same
    // share of the ops.
    const auto d0 = dispatchCounters();
    const double t_begin = nowSeconds();
    uint64_t op_id = 0;
    while (nowSeconds() - t_begin < opt.seconds) {
        for (const Input& in : inputs) {
            Span op("op", ++op_id);
            OpOutput o = runOp(arch, in, &r);
            const double sec = op.stop();
            r.timed_wall_s += sec;
            bool ok = recordPlan(&r, in.key, *o.ht);
            ok &= recordExec(&r, in.key, o.rep, in.nnz, in.rows, in.cols, kK);
            if (!outputMatches(o.out, in.ref, kPolicy)) {
                r.fail("oneshot " + in.name +
                       ": output not bit-identical to referenceExecute");
                ok = false;
            }
            r.addOp(in.name, sec * 1e3, ok);
        }
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
