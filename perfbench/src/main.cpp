// End-to-end benchmark harness.  Two modes:
//
//   perfbench fixtures --workload W --seed N --dir D
//       write the workload's input files (one process, before timing);
//   perfbench run --workload W --seed N --seconds S --fixtures D
//                 --out result.json [--spans spans.json]
//       set up, time closed-loop ops for S seconds, verify every output
//       and write the raw measurements; --spans turns tracing on.
//
// perfbench/run.py drives both modes and turns the raw measurements into
// the benchmark's metrics.

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rss.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "harness.hpp"
#include "kernels/dispatch.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/htb.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace hottiles;

// --- Results -------------------------------------------------------------

void
Results::addOp(const std::string& kind, double ms, bool ok)
{
    op_ms.push_back(ms);
    op_kind.push_back(kind);
    ++attempted;
    if (!ok)
        ++failed;
}

bool
Results::expectCount(const std::string& key, const std::string& value)
{
    auto [it, fresh] = counts.emplace(key, value);
    if (fresh || it->second == value)
        return true;
    fail("exact count " + key + " changed within the run: " + it->second +
         " -> " + value);
    return false;
}

bool
Results::expectCount(const std::string& key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return expectCount(key, std::string(buf));
}

void
Results::fail(const std::string& why)
{
    if (failures.size() < 20)
        failures.push_back(why);
    else if (failures.size() == 20)
        failures.push_back("(further failures not listed)");
}

void
Results::merge(const Results& o)
{
    op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
    op_kind.insert(op_kind.end(), o.op_kind.begin(), o.op_kind.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& [k, v] : o.samples)
        samples[k].insert(samples[k].end(), v.begin(), v.end());
    for (const auto& [k, v] : o.counts)
        expectCount(k, v);
    for (const std::string& f : o.failures)
        fail(f);
}

// --- Library helpers -------------------------------------------------------

Architecture
calibrateArch()
{
    Span s("core.calibrate");
    Architecture arch = makeSpadeSextans(4);
    calibrateArchitecture(arch, /*force=*/true);
    return arch;
}

namespace {

template <typename Input>
std::unique_ptr<HotTiles>
buildPlanImpl(const Architecture& arch, const Input& m, unsigned k,
              Results* r)
{
    HotTilesOptions opts;
    opts.kernel.k = Index(k);
    opts.build_formats = false;  // as `hottiles run` does
    Span s("core.plan");
    auto ht = std::make_unique<HotTiles>(arch, m, opts);
    const double wall = s.stop();
    if (r) {
        const PreprocessTiming& t = ht->timing();
        const double fmt = t.format_base_s + t.format_extra_s;
        r->sample("core.plan_ms", wall * 1e3);
        r->sample("core.scan_ms", t.scan_s * 1e3);
        r->sample("core.model_ms", t.model_s * 1e3);
        r->sample("core.partition_ms", t.partition_s * 1e3);
        r->sample("core.format_ms", fmt * 1e3);
        r->sample("core.plan_other_ms", (wall - t.total()) * 1e3);
    }
    return ht;
}

} // namespace

std::unique_ptr<HotTiles>
buildPlan(const Architecture& arch, const CooMatrix& m, unsigned k,
          Results* r)
{
    return buildPlanImpl(arch, m, k, r);
}

std::unique_ptr<HotTiles>
buildPlan(const Architecture& arch, const MappedMatrix& m, unsigned k,
          Results* r)
{
    return buildPlanImpl(arch, m, k, r);
}

exec::NativeExecOptions
execOptions(const HotTiles& ht, kernels::Policy p)
{
    exec::NativeExecOptions eo;
    eo.policy = p;
    const AssignmentTotals totals =
        assignmentTotals(ht.context(), ht.partition().is_hot);
    if (totals.th_total + totals.tc_total > 0)
        eo.hot_share_hint =
            totals.th_total / (totals.th_total + totals.tc_total);
    return eo;
}

std::string
planKey(const std::string& matrix, unsigned k, kernels::Policy p)
{
    return matrix + ".k" + std::to_string(k) +
           (p == kernels::Policy::Golden ? ".golden" : ".fast");
}

bool
recordExec(Results* r, const std::string& key, const exec::ExecReport& rep,
           uint64_t nnz, uint64_t rows, uint64_t cols, unsigned k)
{
    const double busy = rep.hot.busy_s + rep.cold.busy_s;
    r->sample("exec.prepare_ms." + key, rep.prepare_s * 1e3);
    r->sample("exec.wall_ms." + key, rep.wall_s * 1e3);
    r->sample("exec.hot_busy_ms." + key, rep.hot.busy_s * 1e3);
    r->sample("exec.cold_busy_ms." + key, rep.cold.busy_s * 1e3);
    r->sample("exec.idle_ms." + key, (rep.threads * rep.wall_s - busy) * 1e3);
    r->sample("exec.stolen_tasks." + key,
              double(rep.hot.stolen_tasks + rep.cold.stolen_tasks));
    r->sample("exec.gflops." + key, rep.gflops);
    // Computed, not measured: 2 flops per nonzero and column of Din;
    // bytes = the COO triplets once plus Din and Dout once each.
    r->expectCount("exec.flops." + key, 2.0 * double(nnz) * k);
    r->expectCount("exec.bytes_computed." + key,
                   12.0 * double(nnz) + 4.0 * k * double(rows + cols));
    // Stolen tasks depend on timing; everything below must repeat.
    bool same = r->expectCount("exec.threads." + key, rep.threads);
    same &= r->expectCount("exec.hot_tasks." + key, double(rep.hot.tasks));
    same &= r->expectCount("exec.cold_tasks." + key, double(rep.cold.tasks));
    same &= r->expectCount("exec.hot_tiles." + key, double(rep.hot.tiles));
    same &= r->expectCount("exec.cold_tiles." + key, double(rep.cold.tiles));
    same &= r->expectCount("exec.hot_nnz." + key, double(rep.hot.nnz));
    same &= r->expectCount("exec.cold_nnz." + key, double(rep.cold.nnz));
    if (rep.class_failed) {
        r->fail("exec " + key + ": a worker class fail-stopped");
        return false;
    }
    return same;
}

bool
recordPlan(Results* r, const std::string& key, const HotTiles& ht)
{
    const Partition& p = ht.partition();
    size_t hot = 0;
    for (uint8_t h : p.is_hot)
        hot += h;
    bool same = r->expectCount("plan.heuristic." + key, p.heuristic);
    same &= r->expectCount("plan.predicted_cycles." + key,
                           p.predicted_cycles);
    same &= r->expectCount("plan.tiles." + key, double(p.is_hot.size()));
    same &= r->expectCount("plan.hot_tiles." + key, double(hot));
    return same;
}

bool
outputMatches(const DenseMatrix& out, const DenseMatrix& ref,
              kernels::Policy policy)
{
    if (out.rows() != ref.rows() || out.cols() != ref.cols())
        return false;
    if (policy == kernels::Policy::Golden)
        return std::memcmp(out.data().data(), ref.data().data(),
                           out.data().size() * sizeof(Value)) == 0;
    return out.approxEqual(ref);
}

std::map<std::string, uint64_t>
dispatchCounters()
{
    std::map<std::string, uint64_t> c;
    for (const char* op : {"spmm_csr", "spmm_coo"})
        for (kernels::Tier t : {kernels::Tier::Scalar, kernels::Tier::Avx2,
                                kernels::Tier::Avx512}) {
            const std::string name = std::string("kernel.dispatch.") + op +
                                     "." + kernels::tierName(t);
            c[name] = MetricsRegistry::global().counter(name).value();
        }
    return c;
}

namespace {

// --- Host description ----------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
        s = s.c_str();
        const size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
jsonString(const std::string& s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double>& v)
{
    std::string o = "[";
    for (size_t i = 0; i < v.size(); ++i)
        o += (i ? "," : "") + jsonNumber(v[i]);
    return o + "]";
}

void
writeResults(const RunOptions& o, const Results& r, const std::string& path)
{
    std::ofstream f(path);
    HT_FATAL_IF(!f, "cannot write ", path);
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    f << "{\n\"workload\": " << jsonString(o.workload)
      << ",\n\"seed\": " << o.seed << ",\n\"traced\": "
      << (o.trace ? "true" : "false") << ",\n\"host\": {\"cpu\": "
      << jsonString(cpuModel()) << ", \"nproc\": "
      << sysconf(_SC_NPROCESSORS_ONLN) << ", \"llc_bytes\": "
      << (llc > 0 ? llc : 0) << ", \"simd_tier\": "
      << jsonString(kernels::tierName(kernels::activeTier()))
      << ", \"pool_threads\": " << ThreadPool::globalThreads()
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << "},\n\"setup_s\": " << jsonArray(r.setup_s)
      << ",\n\"timed_wall_s\": " << jsonNumber(r.timed_wall_s)
      << ",\n\"attempted\": " << r.attempted << ",\n\"failed\": "
      << r.failed << ",\n\"peak_rss_mb\": "
      << jsonNumber(double(peakRssBytes()) / (1024.0 * 1024.0))
      << ",\n\"op_ms\": " << jsonArray(r.op_ms) << ",\n\"op_kind\": [";
    for (size_t i = 0; i < r.op_kind.size(); ++i)
        f << (i ? "," : "") << jsonString(r.op_kind[i]);
    f << "],\n\"samples\": {";
    bool first = true;
    for (const auto& [k, v] : r.samples) {
        f << (first ? "\n" : ",\n") << jsonString(k) << ": " << jsonArray(v);
        first = false;
    }
    f << "},\n\"counts\": {";
    first = true;
    for (const auto& [k, v] : r.counts) {
        f << (first ? "\n" : ",\n") << jsonString(k) << ": "
          << jsonString(v);
        first = false;
    }
    f << "},\n\"inputs\": [";
    for (size_t i = 0; i < r.inputs.size(); ++i) {
        const InputInfo& in = r.inputs[i];
        f << (i ? ",\n" : "\n") << "{\"name\": " << jsonString(in.name)
          << ", \"rows\": " << in.rows << ", \"cols\": " << in.cols
          << ", \"nnz\": " << in.nnz << ", \"k\": " << in.k
          << ", \"working_set_bytes\": " << in.working_set_bytes << "}";
    }
    f << "],\n\"failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i)
        f << (i ? ",\n" : "\n") << jsonString(r.failures[i]);
    f << "]\n}\n";
    HT_FATAL_IF(!f, "short write to ", path);
}

int
usage()
{
    std::cerr << "usage: perfbench fixtures --workload W --seed N --dir D\n"
                 "       perfbench run --workload W --seed N --seconds S "
                 "--fixtures D --out FILE [--spans FILE]\n";
    return 2;
}

int
mainImpl(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    RunOptions o;
    std::string dir, out, spans;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        HT_FATAL_IF(i + 1 >= argc, "flag ", a, " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--dir" || a == "--fixtures")
            dir = v;
        else if (a == "--out")
            out = v;
        else if (a == "--spans")
            spans = v;
        else
            HT_FATAL("unknown flag ", a);
    }
    HT_FATAL_IF(o.workload.empty() || dir.empty(),
                "--workload and --dir/--fixtures are required");
    if (mode == "fixtures") {
        writeFixtures(o.workload, o.seed, dir);
        return 0;
    }
    if (mode != "run" || out.empty())
        return usage();
    HT_FATAL_IF(!(o.seconds > 0), "--seconds must be positive");

    // glibc's defaults made two things depend on the allocation history
    // and on which thread allocated: whether a large transient buffer is
    // recycled heap or fresh pages (the adaptive mmap threshold; pac's
    // exec.prepare flipped between ~11 and ~30 ms within and across
    // runs), and how much memory the per-thread arenas hold (peak RSS
    // moved by ~10% between runs).  One arena, buffers below 32 MiB from
    // the heap, and no trimming put every run in the same state.
    HT_FATAL_IF(mallopt(M_ARENA_MAX, 1) != 1 ||
                    mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 ||
                    mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1,
                "mallopt rejected the allocator settings");

    o.fixtures = dir;
    o.trace = !spans.empty();
    ThreadPool::setGlobalThreads(kPoolThreads);
    if (o.trace)
        Tracer::global().enable();

    Results r;
    if (o.workload == "oneshot")
        r = runOneshot(o);
    else if (o.workload == "spmm-steady")
        r = runSpmmSteady(o);
    else if (o.workload == "serve-mix")
        r = runServeMix(o);
    else
        HT_FATAL("unknown workload '", o.workload, "'");

    writeResults(o, r, out);
    if (o.trace) {
        std::ofstream f(spans);
        HT_FATAL_IF(!f, "cannot write ", spans);
        Tracer::global().writeJson(f);
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::mainImpl(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
