/**
 * @file
 * Cache design-space explorer: run any workload on any CMP scale against
 * a custom set of LRU LLC configurations, all emulated simultaneously
 * from one execution.
 *
 * Usage:
 *   cache_explorer [--workload=FIMI] [--cores=8] [--scale=0.2]
 *                  [--line=64] [--assoc=16] [--sizes=4MB,16MB,64MB]
 */

#include <cstdio>
#include <cstdlib>

#include "base/str.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

int
main(int argc, char** argv)
{
    std::string workload_name = "FIMI";
    unsigned cores = 8;
    double scale = 0.2;
    std::uint32_t line = 64;
    std::uint32_t assoc = 16;
    std::vector<std::uint64_t> sizes = {4 * MiB, 16 * MiB, 64 * MiB};

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--workload="))
            workload_name = arg.substr(11);
        else if (startsWith(arg, "--cores="))
            cores = static_cast<unsigned>(std::atoi(arg.c_str() + 8));
        else if (startsWith(arg, "--scale="))
            scale = std::strtod(arg.c_str() + 8, nullptr);
        else if (startsWith(arg, "--line="))
            line = static_cast<std::uint32_t>(std::atoi(arg.c_str() + 7));
        else if (startsWith(arg, "--assoc="))
            assoc = static_cast<std::uint32_t>(std::atoi(arg.c_str() + 8));
        else if (startsWith(arg, "--sizes=")) {
            sizes.clear();
            for (const std::string& s : split(arg.substr(8), ','))
                sizes.push_back(parseSize(trim(s)));
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 1;
        }
    }

    CoSimParams params;
    params.platform = presets::cmpPlatform("explorer", cores);
    for (std::uint64_t size : sizes) {
        DragonheadParams dh = presets::llcConfig(size, line);
        dh.llc.assoc = assoc;
        params.emulators.push_back(dh);
    }
    CoSimulation cosim(params);

    auto workload = createWorkload(workload_name, scale);
    WorkloadConfig cfg;
    cfg.nThreads = cores;
    cfg.scale = scale;

    std::printf("running %s on %u cores (scale %.3g), %zu LLC configs, "
                "%u-way lru, %uB lines...\n",
                workload->name().c_str(), cores, scale, sizes.size(),
                assoc, line);
    RunResult r = cosim.run(*workload, cfg);

    TableWriter table("LLC design points -- one execution, emulated "
                      "simultaneously");
    table.setHeader({"LLC size", "accesses", "misses", "miss rate",
                     "MPKI"});
    for (unsigned e = 0; e < cosim.nEmulators(); ++e) {
        LlcResults llc = cosim.emulator(e).results();
        table.addRow({formatSize(sizes[e]),
                      std::to_string(llc.accesses),
                      std::to_string(llc.misses),
                      formatFixed(100.0 * llc.missRate(), 2) + "%",
                      formatFixed(llc.mpki(), 3)});
    }
    std::printf("\n%s\n", table.renderAscii().c_str());
    std::printf("%.1f M instructions, %.1f MIPS, verified=%s\n",
                static_cast<double>(r.totalInsts) / 1e6, r.simMips(),
                r.verified ? "yes" : "NO");
    return 0;
}
