/**
 * @file
 * cosim_analyze -- cross-TU static analysis for the cosim tree.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "tools/cosim_analyze/analyzer.hh"
#include "tools/cosim_analyze/rules.hh"

namespace {

void
usage()
{
    std::printf(
        "usage: cosim_analyze [options]\n"
        "\n"
        "  --check-all          analyze src/ tools/ tests/ bench/ "
        "examples/\n"
        "  --root=DIR           tree root (default: .)\n"
        "  --fix                apply mechanical fixes "
        "(header-guard,\n"
        "                       include-hygiene, "
        "trailing-whitespace)\n"
        "  --list-rules         print every rule with its "
        "description\n");
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cosim_analyze;

    AnalyzeOptions opts;
    bool check_all = false;
    bool list_rules = false;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--check-all") == 0)
            check_all = true;
        else if (std::strcmp(a, "--fix") == 0)
            opts.fix = true;
        else if (std::strcmp(a, "--list-rules") == 0)
            list_rules = true;
        else if (std::strncmp(a, "--root=", 7) == 0)
            opts.root = a + 7;
        else {
            std::fprintf(stderr, "cosim_analyze: unknown argument "
                                 "'%s'\n", a);
            usage();
            return 2;
        }
    }

    if (list_rules) {
        for (const std::string& r : allRules())
            std::printf("%-24s %s\n", r.c_str(),
                        ruleDescription(r).c_str());
        return 0;
    }
    if (!check_all && !opts.fix) {
        usage();
        return 2;
    }

    const AnalyzeResult res = analyzeTree(opts);
    for (const std::string& e : res.errors)
        std::fprintf(stderr, "cosim_analyze: %s\n", e.c_str());
    for (const Finding& f : res.findings)
        std::printf("%s\n", f.format().c_str());
    std::fprintf(stderr, "cosim_analyze: %d files, %zu findings\n",
                 res.filesScanned, res.findings.size());
    if (res.ioError)
        return 2;
    return res.findings.empty() ? 0 : 1;
}
