#include "bench_util.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "sparse/generators.hpp"

namespace hottiles::bench {

namespace {

bool g_smoke = false;
std::string g_usage;

/** A runtime error no bench catches: print it and exit 1, the CLI's
 *  error code, instead of aborting.  Anything else still aborts. */
[[noreturn]] void
onTerminate()
{
    if (std::exception_ptr e = std::current_exception()) {
        try {
            std::rethrow_exception(e);
        } catch (const std::exception& ex) {
            std::cout.flush();
            std::cerr << "error: " << ex.what() << "\n";
            std::_Exit(1);
        } catch (...) {
        }
    }
    std::abort();
}

} // namespace

void
usageError(const std::string& what)
{
    std::cerr << "error: " << what << "\n" << g_usage << "\n";
    std::exit(2);
}

std::string
flagValue(int argc, char** argv, int* i)
{
    if (*i + 1 >= argc)
        usageError(std::string("missing value for ") + argv[*i]);
    ++*i;
    return argv[*i];
}

uint64_t
flagCount(int argc, char** argv, int* i)
{
    const std::string v = flagValue(argc, argv, i);
    uint64_t out = 0;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (v.empty() || ec != std::errc() || p != v.data() + v.size())
        usageError(std::string("bad value for ") + argv[*i - 1] + ": '" + v +
                   "'");
    return out;
}

double
flagNumber(int argc, char** argv, int* i)
{
    const std::string v = flagValue(argc, argv, i);
    char* end = nullptr;
    const double out = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(out))
        usageError(std::string("bad value for ") + argv[*i - 1] + ": '" + v +
                   "'");
    return out;
}

void
init(int* argc, char** argv, const char* options)
{
    std::set_terminate(onTerminate);
    g_usage = std::string("usage: ") + argv[0] + " [--smoke] [--threads N]" +
              (*options ? " " : "") + options;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        std::string_view a = argv[i];
        if (a == "--smoke") {
            g_smoke = true;
        } else if (a == "--threads") {
            ThreadPool::setGlobalThreads(
                static_cast<unsigned>(flagCount(*argc, argv, &i)));
        } else if (!*options) {
            usageError("unknown option '" + std::string(a) + "'");
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

bool
smokeMode()
{
    return g_smoke;
}

void
banner(const std::string& experiment, const std::string& paper_ref,
       const std::string& description)
{
    std::cout << "\n==============================================================\n"
              << experiment << "  (" << paper_ref << ")\n"
              << description << "\n"
              << "==============================================================\n";
}

namespace {

std::vector<std::string>
filterFromEnv(std::vector<std::string> names)
{
    if (g_smoke)
        return {"smoke"};
    const char* env = std::getenv("HT_BENCH_MATRICES");
    if (!env || !*env)
        return names;
    std::vector<std::string> out;
    for (std::string_view tok : splitChar(env, ',')) {
        std::string name(trim(tok));
        for (const auto& n : names)
            if (n == name)
                out.push_back(name);
    }
    return out.empty() ? names : out;
}

} // namespace

std::vector<std::string>
tableVNames()
{
    std::vector<std::string> names;
    for (const auto& e : tableV())
        names.push_back(e.name);
    return filterFromEnv(std::move(names));
}

std::vector<std::string>
tableVIIINames()
{
    std::vector<std::string> names;
    for (const auto& e : tableVIII())
        names.push_back(e.name);
    return filterFromEnv(std::move(names));
}

const CooMatrix&
suiteMatrix(const std::string& name)
{
    if (g_smoke) {
        // One tiny deterministic matrix stands in for every suite name
        // so smoke runs exercise the full pipeline in seconds.
        static CooMatrix tiny = genCommunity(1024, 12.0, 32, 128, 0.8, 7);
        return tiny;
    }
    static std::map<std::string, CooMatrix> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, makeSuiteMatrix(name)).first;
    return it->second;
}

const TileGrid&
suiteGrid(const std::string& name, Index tile_h, Index tile_w)
{
    static std::map<std::string, TileGrid> cache;
    std::string key =
        name + "/" + std::to_string(tile_h) + "x" + std::to_string(tile_w);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, TileGrid(suiteMatrix(name), tile_h, tile_w))
                 .first;
    return it->second;
}

std::vector<MatrixEvaluation>
evaluateSuite(const Architecture& arch, const std::vector<std::string>& names,
              const HotTilesOptions& opts)
{
    std::vector<MatrixEvaluation> out;
    out.reserve(names.size());
    for (const auto& name : names)
        out.push_back(evaluateMatrix(arch, suiteMatrix(name), name, opts));
    return out;
}

double
geomeanOver(const std::vector<MatrixEvaluation>& evs,
            const std::function<double(const MatrixEvaluation&)>& f)
{
    GeoMean g;
    for (const auto& ev : evs)
        g.add(f(ev));
    return g.value();
}

double
speedup(double baseline_cycles, double cycles)
{
    HT_ASSERT(cycles > 0, "zero runtime");
    return baseline_cycles / cycles;
}

} // namespace hottiles::bench
