#include "harness/report.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <set>
#include <utility>
#include <sys/stat.h>
#include <sys/types.h>

#include "base/fault.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "workloads/workload_factory.hh"

namespace cosim {

const char*
toString(CellMode mode)
{
    switch (mode) {
      case CellMode::Combined:
        return "combined";
      case CellMode::Exec:
        return "exec";
      case CellMode::Replay:
        return "replay";
      case CellMode::Sampled:
        return "sampled";
    }
    return "?";
}

std::string
fsbStreamPath(const std::string& base, const std::string& workload)
{
    const std::string ext = ".fsb";
    std::string stem = base;
    if (stem.size() >= ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
        stem.resize(stem.size() - ext.size());
    }
    return stem + "." + workload + ext;
}

namespace {

/**
 * The value of "--flag=<n>" as an integer in [lo, hi]. The value must
 * be plain decimal digits, consumed whole: no sign, no blanks, no
 * suffix. Anything else is fatal, naming the flag.
 */
std::uint64_t
integerFlag(const std::string& arg, std::uint64_t lo, std::uint64_t hi)
{
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const char* value = arg.c_str() + eq + 1;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    fatal_if(!std::isdigit(static_cast<unsigned char>(*value)) ||
                 *end != '\0' || errno == ERANGE || v < lo || v > hi,
             "bad %s value '%s' (expected an integer from %llu to %llu)",
             flag.c_str(), value, static_cast<unsigned long long>(lo),
             static_cast<unsigned long long>(hi));
    return v;
}

/** integerFlag() for flags stored as unsigned. */
unsigned
unsignedFlag(const std::string& arg, unsigned lo = 0)
{
    return static_cast<unsigned>(integerFlag(arg, lo, UINT_MAX));
}

/**
 * The value of "--flag=<x>" as a number in (0, 1], consumed whole.
 * Anything else is fatal, naming the flag.
 */
double
fractionFlag(const std::string& arg)
{
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const char* value = arg.c_str() + eq + 1;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(value, &end);
    fatal_if(*value == '\0' ||
                 std::isspace(static_cast<unsigned char>(*value)) ||
                 *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
                 v <= 0.0 || v > 1.0,
             "bad %s value '%s' (expected a number in (0, 1])",
             flag.c_str(), value);
    return v;
}

/** @p path without trailing slashes ("/" stays "/"). */
std::string
stripTrailingSlashes(std::string path)
{
    while (path.size() > 1 && path.back() == '/')
        path.pop_back();
    return path;
}

/**
 * fatal(), naming @p flag, unless the directory @p path writes into
 * exists or is @p out_dir, which the bench creates before its first
 * write. A missing directory would otherwise fail the write only after
 * the whole sweep.
 */
void
requireOutputDir(const char* flag, const std::string& path,
                 const std::string& out_dir)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return; // the working directory
    const std::string dir = stripTrailingSlashes(path.substr(0, slash + 1));
    if (dir == stripTrailingSlashes(out_dir))
        return;
    struct stat st{};
    fatal_if(stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode),
             "%s=%s: '%s' is not an existing directory", flag,
             path.c_str(), dir.c_str());
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char** argv, const std::string& bench_description)
{
    BenchOptions opts;
    // Every flag given, by name ("--journal" and "--journal=<f>" are
    // one flag): a repeat is refused rather than resolved by order.
    std::set<std::string> given;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const std::string flag = arg.substr(0, arg.find('='));
        fatal_if(!given.insert(flag).second,
                 "option %s given more than once", flag.c_str());
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "%s\n\n"
                "options:\n"
                "  --scale=<f>      input scale factor in (0, 1] "
                "(default 1.0)\n"
                "  --quick          --scale=0.05 with 50 us CB sample "
                "windows, the only way to get them\n"
                "                   (same CSV as --scale=0.05, finer "
                "run.json series)\n"
                "  --seed=<n>       data generation seed (default 42)\n"
                "  --workloads=a,b  run a subset of the workloads\n"
                "  --out=<dir>      CSV output directory (default "
                "results)\n"
                "  --trace=<file>   record a Chrome trace-event JSON "
                "(chrome://tracing / Perfetto)\n"
                "  --stats=<file>   dump every cell's component stats "
                "as JSON (a .json path)\n"
                "  --manifest=<f>   run manifest path (default "
                "<out>/run.json)\n"
                "  --jobs=<n>       run up to n sweep cells on parallel "
                "host threads (default 1)\n"
                "  --emu-threads=<n> emulate Dragonheads on n worker "
                "threads per rig (default 0 = inline)\n"
                "  --cells=<mode>   sweep cell decomposition: combined "
                "(default), exec (guest per config cell),\n"
                "                   replay (capture the guest once per "
                "workload, replay it into every config), sampled\n"
                "                   (replay only a plan's representative "
                "intervals in detail)\n"
                "  --plan=<base>    load sampling plans from "
                "<base>.<workload>.plan.json (with --cells=sampled)\n"
                "  --plan-out=<base> write generated sampling plans to "
                "<base>.<workload>.plan.json\n"
                "  --capture=<base> record each workload's FSB stream "
                "to <base>.<workload>.fsb\n"
                "  --replay=<base>  replay recorded streams instead of "
                "executing the guest\n"
                "  --digest=<file>  write per-workload FSB stream "
                "digests (golden-baseline format)\n"
                "  --faults=<spec>  fail a fault site on its K-th hit "
                "(site:nth=K, comma-separated)\n"
                "  --keep-going     publish the healthy cells despite "
                "failed ones (recorded with status \"failed\")\n"
                "  --journal[=<f>]  write-ahead journal of cell state "
                "transitions (default <out>/sweep.journal.jsonl)\n"
                "  --resume=<f>     resume an interrupted sweep from "
                "its journal, skipping verified cells\n"
                "                   (appends to that journal; not "
                "with --journal)\n",
                bench_description.c_str());
            std::exit(0);
        } else if (startsWith(arg, "--scale=")) {
            opts.scale = fractionFlag(arg);
        } else if (arg == "--quick") {
            opts.scale = 0.05;
        } else if (startsWith(arg, "--seed=")) {
            opts.seed = integerFlag(arg, 0, UINT64_MAX);
            opts.seedSource = "cli";
        } else if (startsWith(arg, "--workloads=")) {
            const std::string list = arg.substr(12);
            fatal_if(trim(list).empty(),
                     "--workloads needs at least one workload name");
            const std::vector<std::string> catalog = workloadNames();
            for (const std::string& w : split(list, ',')) {
                // Catalog spelling, so every row, label, digest and
                // stream path names the workload the same way.
                const std::string name = canonicalWorkloadName(trim(w));
                fatal_if(name.empty(), "--workloads has an empty entry "
                         "in '%s'", list.c_str());
                if (std::find(catalog.begin(), catalog.end(), name) ==
                    catalog.end()) {
                    std::string known;
                    for (const std::string& c : catalog)
                        known += (known.empty() ? "" : ", ") + c;
                    fatal("unknown workload '%s' in --workloads (known: "
                          "%s)", name.c_str(), known.c_str());
                }
                fatal_if(std::find(opts.workloads.begin(),
                                   opts.workloads.end(),
                                   name) != opts.workloads.end(),
                         "--workloads names '%s' more than once",
                         name.c_str());
                opts.workloads.push_back(name);
            }
        } else if (startsWith(arg, "--out=")) {
            opts.outDir = arg.substr(6);
            fatal_if(opts.outDir.empty(), "--out needs a directory path");
        } else if (startsWith(arg, "--trace=")) {
            opts.traceFile = arg.substr(8);
            fatal_if(opts.traceFile.empty(), "--trace needs a file path");
        } else if (startsWith(arg, "--stats=")) {
            opts.statsFile = arg.substr(8);
            fatal_if(opts.statsFile.empty(), "--stats needs a file path");
        } else if (startsWith(arg, "--manifest=")) {
            opts.manifestFile = arg.substr(11);
            fatal_if(opts.manifestFile.empty(),
                     "--manifest needs a file path");
        } else if (startsWith(arg, "--jobs=")) {
            opts.jobs = unsignedFlag(arg, 1);
        } else if (startsWith(arg, "--emu-threads=")) {
            opts.emuThreads = unsignedFlag(arg);
        } else if (startsWith(arg, "--cells=")) {
            std::string mode = arg.substr(8);
            if (mode == "combined") {
                opts.cells = CellMode::Combined;
            } else if (mode == "exec") {
                opts.cells = CellMode::Exec;
            } else if (mode == "replay") {
                opts.cells = CellMode::Replay;
            } else if (mode == "sampled") {
                opts.cells = CellMode::Sampled;
            } else {
                fatal("bad --cells mode '%s' (combined, exec, replay "
                      "or sampled)", mode.c_str());
            }
        } else if (startsWith(arg, "--capture=")) {
            opts.captureBase = arg.substr(10);
            fatal_if(opts.captureBase.empty(),
                     "--capture needs a file path");
        } else if (startsWith(arg, "--replay=")) {
            opts.replayBase = arg.substr(9);
            fatal_if(opts.replayBase.empty(), "--replay needs a file path");
        } else if (startsWith(arg, "--plan=")) {
            opts.planBase = arg.substr(7);
            fatal_if(opts.planBase.empty(), "--plan needs a file path");
        } else if (startsWith(arg, "--plan-out=")) {
            opts.planOutBase = arg.substr(11);
            fatal_if(opts.planOutBase.empty(),
                     "--plan-out needs a file path");
        } else if (startsWith(arg, "--digest=")) {
            opts.digestFile = arg.substr(9);
            fatal_if(opts.digestFile.empty(), "--digest needs a file path");
        } else if (startsWith(arg, "--faults=")) {
            opts.faults = arg.substr(9);
            fatal_if(opts.faults.empty(), "--faults needs a fault spec");
        } else if (arg == "--keep-going") {
            opts.keepGoing = true;
        } else if (arg == "--journal") {
            opts.journalFile = "-"; // placeholder: default after --out
        } else if (startsWith(arg, "--journal=")) {
            opts.journalFile = arg.substr(10);
            fatal_if(opts.journalFile.empty(),
                     "--journal needs a file path");
        } else if (startsWith(arg, "--resume=")) {
            opts.resumeFrom = arg.substr(9);
            fatal_if(opts.resumeFrom.empty(),
                     "--resume needs a journal path");
        } else {
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    const bool quick = given.count("--quick") != 0;
    fatal_if(quick && given.count("--scale") != 0,
             "--quick and --scale are mutually exclusive (--quick means "
             "--scale=0.05 with 50 us CB sample windows, which no other "
             "flag sets)");
    if (opts.workloads.empty())
        opts.workloads = workloadNames();
    if (opts.manifestFile.empty())
        opts.manifestFile = opts.outDir + "/run.json";
    // Quick runs are ~20x shorter; at the preset's 500 us window a run
    // collapses into a handful of CB windows and a sampling plan ends
    // up covering nearly all of them. A finer window restores enough
    // geometry for phase clustering to find fast-forwardable spans.
    if (quick)
        opts.samplePeriodUs = 50;
    fatal_if(!opts.captureBase.empty() && !opts.replayBase.empty(),
             "--capture and --replay are mutually exclusive (a replay "
             "re-broadcasts the stream it reads)");
    fatal_if(opts.cells == CellMode::Exec && !opts.replayBase.empty(),
             "--cells=exec executes the guest per cell; it cannot "
             "consume --replay streams");
    fatal_if(!opts.planBase.empty() && opts.cells != CellMode::Sampled,
             "--plan only applies to --cells=sampled");
    fatal_if(!opts.planBase.empty() && !opts.planOutBase.empty(),
             "--plan and --plan-out are mutually exclusive (a loaded "
             "plan is not regenerated)");
    // Crash-safe sweep plumbing. A resume appends to the journal it
    // resumes: writing another one would start mid-sequence, without
    // the sweep_plan record a later resume needs.
    fatal_if(!opts.resumeFrom.empty() && given.count("--journal") != 0,
             "--resume and --journal are mutually exclusive (--resume "
             "appends to the journal it resumes)");
    if (opts.journalFile == "-")
        opts.journalFile = opts.outDir + "/sweep.journal.jsonl";
    if (!opts.resumeFrom.empty())
        opts.journalFile = opts.resumeFrom;
    if (!opts.journalFile.empty()) {
        // Resume needs every journaled cell to be reconstructable from
        // disk. Replay and sampled cells qualify only when their
        // streams and plans come from files; an in-memory capture
        // phase is gone once the process is.
        fatal_if(opts.cells == CellMode::Replay &&
                     opts.replayBase.empty(),
                 "--journal with --cells=replay requires "
                 "--replay=<base> (file-backed streams)");
        fatal_if(opts.cells == CellMode::Sampled &&
                     (opts.replayBase.empty() || opts.planBase.empty()),
                 "--journal with --cells=sampled requires "
                 "--replay=<base> and --plan=<base> (file-backed "
                 "streams and plans)");
    }
    const std::pair<const char*, const std::string*> outputs[] = {
        {"--stats", &opts.statsFile},
        {"--trace", &opts.traceFile},
        {"--digest", &opts.digestFile},
        {"--manifest", &opts.manifestFile},
        {"--plan-out", &opts.planOutBase},
        {"--capture", &opts.captureBase},
    };
    for (const auto& [flag, path] : outputs) {
        if (!path->empty())
            requireOutputDir(flag, *path, opts.outDir);
    }
    fatal_if(!opts.statsFile.empty() && !opts.statsFile.ends_with(".json"),
             "--stats=%s: the stats dump is JSON; give a path ending in "
             ".json", opts.statsFile.c_str());
    if (!opts.faults.empty()) {
        // Arm here so every bench binary gets fault injection without
        // per-main plumbing.
        FaultPlan plan;
        std::string error;
        fatal_if(!FaultPlan::parse(opts.faults, &plan, &error),
                 "bad --faults spec: %s", error.c_str());
        for (const FaultPlan::Site& s : plan.sites) {
            if (std::find(std::begin(kFaultSites), std::end(kFaultSites),
                          s.site) == std::end(kFaultSites)) {
                std::string known;
                for (const char* k : kFaultSites)
                    known += (known.empty() ? "" : ", ") + std::string(k);
                fatal("unknown fault site '%s' in --faults (known: %s)",
                      s.site.c_str(), known.c_str());
            }
        }
        FaultInjector::global().arm(plan);
    }
    return opts;
}

const std::vector<std::string> kSingleRunFlags = {
    "--scale", "--quick", "--seed", "--workloads", "--out", "--faults"};

void
requireOnlyFlags(int argc, char** argv,
                 const std::vector<std::string>& reads)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string flag = arg.substr(0, arg.find('='));
        if (std::find(reads.begin(), reads.end(), flag) != reads.end())
            continue;
        std::string known;
        for (const std::string& r : reads)
            known += (known.empty() ? "" : " ") + r;
        fatal("option %s does not apply to this bench (it reads only "
              "%s)", flag.c_str(), known.c_str());
    }
}

void
ensureOutputDir(const std::string& dir)
{
    if (dir.empty())
        return;
    struct stat st{};
    if (stat(dir.c_str(), &st) == 0) {
        fatal_if(!S_ISDIR(st.st_mode), "'%s' exists and is not a "
                 "directory", dir.c_str());
        return;
    }
    fatal_if(mkdir(dir.c_str(), 0755) != 0,
             "cannot create output directory '%s'", dir.c_str());
}

void
printBanner(const std::string& title, const BenchOptions& opts)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("scale=%.3g seed=%llu workloads=", opts.scale,
                static_cast<unsigned long long>(opts.seed));
    for (std::size_t i = 0; i < opts.workloads.size(); ++i)
        std::printf("%s%s", i ? "," : "", opts.workloads[i].c_str());
    std::printf("\n");
    if (opts.cells != CellMode::Combined)
        std::printf("cells=%s\n", toString(opts.cells));
    if (!opts.captureBase.empty())
        std::printf("capture=%s.<workload>.fsb\n", opts.captureBase.c_str());
    if (!opts.replayBase.empty())
        std::printf("replay=%s.<workload>.fsb\n", opts.replayBase.c_str());
    if (!opts.planBase.empty())
        std::printf("plan=%s.<workload>.plan.json\n",
                    opts.planBase.c_str());
    if (!opts.planOutBase.empty())
        std::printf("plan-out=%s.<workload>.plan.json\n",
                    opts.planOutBase.c_str());
    if (!opts.faults.empty())
        std::printf("faults=%s\n", opts.faults.c_str());
    if (!opts.journalFile.empty())
        std::printf("journal=%s%s\n", opts.journalFile.c_str(),
                    opts.resumeFrom.empty() ? "" : " (resuming)");
    std::printf("\n");
}

} // namespace cosim
