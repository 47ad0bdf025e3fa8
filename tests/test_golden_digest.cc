/**
 * @file
 * The committed stream digests, checked in tier 1: each fig4-7 bench
 * binary (paths injected as COSIM_FIG<N>_BIN) runs at --quick with
 * --digest, and its manifest must equal tests/golden/<fig>.quick.digest
 * (COSIM_GOLDEN_DIR) workload for workload. CI's golden-replay job runs
 * the same check through `cosim_replay check-golden`.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>

#include "trace/fsb_capture.hh"

namespace cosim {
namespace {

struct Bench
{
    const char* figure;
    const char* binary;
};

/** Names the parameter in test listings. */
void
PrintTo(const Bench& b, std::ostream* os)
{
    *os << b.figure;
}

const Bench kBenches[] = {
    {"fig4_scmp", COSIM_FIG4_BIN},
    {"fig5_mcmp", COSIM_FIG5_BIN},
    {"fig6_lcmp", COSIM_FIG6_BIN},
    {"fig7_linesize", COSIM_FIG7_BIN},
};

class GoldenDigest : public testing::TestWithParam<Bench>
{
};

TEST_P(GoldenDigest, QuickRunMatchesCommittedDigest)
{
    const Bench& b = GetParam();
    const std::string dir =
        testing::TempDir() + "golden_digest_" + b.figure;
    ::mkdir(dir.c_str(), 0755);
    const std::string fresh_path = dir + "/" + b.figure + ".digest";
    const std::string cmd = "'" + std::string(b.binary) +
                            "' --quick '--out=" + dir + "' '--digest=" +
                            fresh_path + "' > '" + dir + "/bench.log' 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << b.figure << " failed; see " << dir << "/bench.log";

    DigestManifest golden, fresh;
    std::string error;
    ASSERT_TRUE(DigestManifest::load(std::string(COSIM_GOLDEN_DIR) + "/" +
                                         b.figure + ".quick.digest",
                                     golden, &error))
        << error;
    ASSERT_TRUE(DigestManifest::load(fresh_path, fresh, &error)) << error;
    std::string report;
    EXPECT_TRUE(DigestManifest::compare(golden, fresh, report))
        << b.figure << " streams differ from tests/golden/:\n"
        << report;
}

INSTANTIATE_TEST_SUITE_P(
    Figures, GoldenDigest, testing::ValuesIn(kBenches),
    [](const testing::TestParamInfo<Bench>& info) {
        return std::string(info.param.figure);
    });

} // namespace
} // namespace cosim
