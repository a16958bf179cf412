// Input fixtures: every file a workload reads is written here, by a
// separate process, before the workload process starts, so generation
// never lands in setup_s or peak_rss_mb.

#include <cstring>
#include <fstream>

#include "common/error.hpp"
#include "common/random.hpp"
#include "harness.hpp"
#include "sparse/htb.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suite.hpp"

namespace perfbench {

using namespace hottiles;

uint64_t
mixSeed(uint64_t seed, const std::string& salt)
{
    uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the salt
    for (unsigned char c : salt)
        h = (h ^ c) * 0x100000001b3ULL;
    uint64_t s = seed ^ h;
    return splitmix64(s);
}

std::vector<std::string>
fixtureMatrices(const std::string& workload)
{
    // oneshot: Table V proxies spanning power-law (kro, pok), mesh
    // (pac), FEM (ser) and community (dgr) structure, 0.64-1.5 M nnz.
    if (workload == "oneshot")
        return {"kro", "pac", "ser", "dgr", "pok"};
    // spmm-steady: the four plans of the iterative loop.
    if (workload == "spmm-steady")
        return {"dgr", "ser", "pac", "pok"};
    // serve-mix: the Table VIII proxies, 0.23-0.45 M nnz.
    if (workload == "serve-mix")
        return {"gea", "nd2", "si4", "rm0"};
    HT_FATAL("unknown workload '", workload,
             "' (oneshot | spmm-steady | serve-mix)");
}

CooMatrix
seededSuiteMatrix(const std::string& name, uint64_t seed)
{
    CooMatrix m = makeSuiteMatrix(name);
    m.sortRowMajor();
    m.dedupSum();
    Rng rng(mixSeed(seed, "values:" + name));
    for (size_t i = 0; i < m.nnz(); ++i)
        m.setValue(i, Value(rng.nextDouble(-1.0, 1.0)));
    return m;
}

DenseMatrix
seededDin(Index rows, unsigned k, uint64_t seed, const std::string& name)
{
    DenseMatrix d(rows, Index(k));
    Rng rng(mixSeed(seed, "din:" + name + ":" + std::to_string(k)));
    d.fillRandom(rng);
    return d;
}

InputInfo
describeInput(const std::string& name, uint64_t rows, uint64_t cols,
              uint64_t nnz, unsigned k)
{
    InputInfo in;
    in.name = name;
    in.rows = rows;
    in.cols = cols;
    in.nnz = nnz;
    in.k = k;
    in.working_set_bytes = 12 * nnz + 4 * uint64_t(k) * (cols + rows) +
                           2 * 8 * uint64_t(k) * rows;
    return in;
}

void
writeFixtures(const std::string& workload, uint64_t seed,
              const std::string& dir)
{
    std::ofstream manifest(dir + "/manifest.txt");
    HT_FATAL_IF(!manifest, "cannot write into fixture directory ", dir);
    for (const std::string& name : fixtureMatrices(workload)) {
        CooMatrix m = seededSuiteMatrix(name, seed);
        // spmm-steady is the path that parses MatrixMarket text; the
        // other two read the binary format.
        if (workload == "spmm-steady")
            writeMatrixMarketFile(m, dir + "/" + name + ".mtx");
        else
            writeHtbFromCoo(dir + "/" + name + ".htb", m, kPanelRows);
        manifest << name << " " << m.rows() << " " << m.cols() << " "
                 << m.nnz() << "\n";
    }
}

} // namespace perfbench
