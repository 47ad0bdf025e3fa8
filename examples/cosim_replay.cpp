/**
 * @file
 * cosim-replay: work with recorded FSB streams and their golden digests.
 *
 * The sweep benches record front-side-bus streams (--capture) and
 * per-workload stream digests (--digest); this tool is everything CI and
 * humans need around those artifacts:
 *
 *   info <stream.fsb>...           validate streams, print their headers
 *   digest <stream.fsb>...         print a digest manifest for streams
 *   diff <a.fsb> <b.fsb>           first-divergence comparison
 *   replay <stream.fsb>            feed a stream through one emulated
 *                                  LLC (--llc-mb=N, --line=N) and print
 *                                  its results
 *   check-golden <golden> <fresh>  compare digest manifests; explains
 *                                  how to regenerate on mismatch
 *   update-golden <golden> <fresh> install a fresh manifest as golden
 *
 * Exit codes: 0 success, 1 mismatch/corruption, 2 usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/str.hh"
#include "base/units.hh"
#include "core/experiment.hh"
#include "trace/fsb_capture.hh"
#include "trace/fsb_replay.hh"

using namespace cosim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cosim_replay <command> [args]\n"
        "  info <stream.fsb>...            validate + print stream headers\n"
        "  digest <stream.fsb>...          print a digest manifest\n"
        "  diff <a.fsb> <b.fsb>            compare two streams\n"
        "  replay <stream.fsb> [--llc-mb=<n>] [--line=<bytes>]\n"
        "                                  replay through one emulated LLC\n"
        "  check-golden <golden.digest> <fresh.digest>\n"
        "                                  gate fresh digests against golden\n"
        "  update-golden <golden.digest> <fresh.digest>\n"
        "                                  install fresh digests as golden\n");
    return 2;
}

int
cmdInfo(const std::vector<std::string>& files)
{
    int rc = 0;
    for (const std::string& path : files) {
        FsbStreamInfo info;
        std::string error;
        if (!probeFsbStream(path, info, &error)) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
            rc = 1;
            continue;
        }
        std::printf("%s\n", path.c_str());
        std::printf("  workload %s on %s (%u cores), scale %g, seed %llu\n",
                    info.meta.workload.c_str(), info.meta.platform.c_str(),
                    info.meta.nCores, info.meta.scale,
                    static_cast<unsigned long long>(info.meta.seed));
        std::printf("  captured run: %llu insts, verified=%s\n",
                    static_cast<unsigned long long>(info.meta.totalInsts),
                    info.meta.verified ? "yes" : "NO");
        std::printf("  %llu txns in %llu bytes (%.2f bytes/txn), digest "
                    "%s\n",
                    static_cast<unsigned long long>(info.txns),
                    static_cast<unsigned long long>(info.fileBytes),
                    info.txns > 0 ? static_cast<double>(info.fileBytes) /
                                        static_cast<double>(info.txns)
                                  : 0.0,
                    formatFsbDigest(info.digest).c_str());
    }
    return rc;
}

int
cmdDigest(const std::vector<std::string>& files)
{
    DigestManifest manifest;
    for (const std::string& path : files) {
        FsbStreamInfo info;
        std::string error;
        if (!probeFsbStream(path, info, &error)) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
            return 1;
        }
        manifest.add(info.meta.workload, info.txns, info.digest);
    }
    std::fputs(manifest.toText().c_str(), stdout);
    return 0;
}

int
cmdDiff(const std::string& a_path, const std::string& b_path)
{
    std::vector<BusTransaction> a, b;
    FsbStreamMeta a_meta, b_meta;
    std::string error;
    if (!loadFsbStream(a_path, a, a_meta, &error)) {
        std::fprintf(stderr, "%s: %s\n", a_path.c_str(), error.c_str());
        return 1;
    }
    if (!loadFsbStream(b_path, b, b_meta, &error)) {
        std::fprintf(stderr, "%s: %s\n", b_path.c_str(), error.c_str());
        return 1;
    }

    if (a_meta.workload != b_meta.workload) {
        std::printf("headers differ: workload '%s' vs '%s'\n",
                    a_meta.workload.c_str(), b_meta.workload.c_str());
    }
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        const BusTransaction& ta = a[i];
        const BusTransaction& tb = b[i];
        if (ta.addr == tb.addr && ta.size == tb.size &&
            ta.kind == tb.kind && ta.core == tb.core) {
            continue;
        }
        std::printf("streams diverge at txn %zu:\n"
                    "  %s: addr=0x%llx size=%u kind=%u core=%u\n"
                    "  %s: addr=0x%llx size=%u kind=%u core=%u\n",
                    i, a_path.c_str(),
                    static_cast<unsigned long long>(ta.addr), ta.size,
                    static_cast<unsigned>(ta.kind), ta.core,
                    b_path.c_str(),
                    static_cast<unsigned long long>(tb.addr), tb.size,
                    static_cast<unsigned>(tb.kind), tb.core);
        return 1;
    }
    if (a.size() != b.size()) {
        std::printf("streams diverge: %zu vs %zu txns (identical common "
                    "prefix)\n", a.size(), b.size());
        return 1;
    }
    std::printf("streams identical: %zu txns\n", a.size());
    return 0;
}

int
cmdReplay(const std::vector<std::string>& args)
{
    std::string path;
    std::uint64_t llc_mb = 32;
    std::uint32_t line = 64;
    for (const std::string& arg : args) {
        if (startsWith(arg, "--llc-mb=")) {
            llc_mb = std::strtoull(arg.c_str() + 9, nullptr, 10);
        } else if (startsWith(arg, "--line=")) {
            line = static_cast<std::uint32_t>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        } else if (!startsWith(arg, "--") && path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty() || llc_mb == 0 || line == 0)
        return usage();

    Dragonhead emulator(presets::llcConfig(llc_mb << 20, line));
    FrontSideBus bus;
    bus.attach(&emulator);

    FsbStreamReader reader;
    reader.openFile(path);
    ReplayDriver driver;
    ReplayResult rr = driver.replay(reader, bus);
    if (!rr.ok) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), rr.error.c_str());
        return 1;
    }

    LlcResults llc = emulator.results();
    std::printf("%s: workload %s, %llu txns in %llu chunks, digest %s\n",
                path.c_str(), rr.meta.workload.c_str(),
                static_cast<unsigned long long>(rr.txns),
                static_cast<unsigned long long>(rr.chunks),
                formatFsbDigest(rr.digest).c_str());
    std::printf("  replayed in %.3fs (%.1f Mtxn/s)\n", rr.seconds,
                rr.seconds > 0.0
                    ? static_cast<double>(rr.txns) / 1e6 / rr.seconds
                    : 0.0);
    std::printf("  %s LLC, %s lines: %llu accesses, %llu misses, "
                "MPKI %.3f\n",
                formatSize(llc_mb << 20).c_str(),
                formatSize(line).c_str(),
                static_cast<unsigned long long>(llc.accesses),
                static_cast<unsigned long long>(llc.misses), llc.mpki());
    return 0;
}

int
cmdCheckGolden(const std::string& golden_path, const std::string& fresh_path)
{
    DigestManifest golden, fresh;
    std::string error;
    if (!DigestManifest::load(golden_path, golden, &error)) {
        std::fprintf(stderr, "%s: %s\n", golden_path.c_str(),
                     error.c_str());
        return 1;
    }
    if (!DigestManifest::load(fresh_path, fresh, &error)) {
        std::fprintf(stderr, "%s: %s\n", fresh_path.c_str(),
                     error.c_str());
        return 1;
    }

    std::string report;
    if (DigestManifest::compare(golden, fresh, report)) {
        std::printf("golden digests match (%zu workloads): %s\n",
                    golden.entries.size(), golden_path.c_str());
        return 0;
    }
    std::fprintf(
        stderr,
        "golden FSB stream digests changed (%s):\n%s\n"
        "The bus transaction stream is not what the committed baseline "
        "recorded.\nIf this is an unintended behaviour change, fix it. "
        "If the change is\nintentional (workload, cache or bus behaviour "
        "updated on purpose),\nregenerate the baseline and commit it:\n"
        "    <bench> --quick --digest=fresh.digest\n"
        "    cosim_replay update-golden %s fresh.digest\n",
        golden_path.c_str(), report.c_str(), golden_path.c_str());
    return 1;
}

int
cmdUpdateGolden(const std::string& golden_path,
                const std::string& fresh_path)
{
    DigestManifest fresh;
    std::string error;
    if (!DigestManifest::load(fresh_path, fresh, &error)) {
        std::fprintf(stderr, "%s: %s\n", fresh_path.c_str(),
                     error.c_str());
        return 1;
    }
    try {
        fresh.writeFile(golden_path);
    } catch (const IoError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("updated %s (%zu workloads)\n", golden_path.c_str(),
                fresh.entries.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (cmd == "info" && !args.empty())
        return cmdInfo(args);
    if (cmd == "digest" && !args.empty())
        return cmdDigest(args);
    if (cmd == "diff" && args.size() == 2)
        return cmdDiff(args[0], args[1]);
    if (cmd == "replay" && !args.empty())
        return cmdReplay(args);
    if (cmd == "check-golden" && args.size() == 2)
        return cmdCheckGolden(args[0], args[1]);
    if (cmd == "update-golden" && args.size() == 2)
        return cmdUpdateGolden(args[0], args[1]);
    return usage();
}
