/**
 * @file
 * End-to-end crash-safety tests against the real fig4 binary (path
 * injected as COSIM_FIG4_BIN): process isolation must not change a
 * byte of the figure CSV, a crashing cell must not damage its
 * siblings, and a SIGKILLed sweep must resume to byte-identical
 * results re-running only its unfinished cells. These are the same
 * properties the CI chaos job gates; here they run at tiny scale.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "base/subprocess.hh"
#include "harness/sweep_journal.hh"
#include "obs/json.hh"

namespace cosim {
namespace {

const char* kWorkloads = "--workloads=PLSA,SNP";
const char* kScale = "--scale=0.02";

std::string
scratchDir(const std::string& name)
{
    std::string dir = testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return body;
}

/** Run the fig4 bench to completion with the given extra flags. */
SubprocessResult
runFig4(const std::string& out_dir, std::vector<std::string> extra)
{
    SubprocessOptions opts;
    opts.argv = {COSIM_FIG4_BIN, kScale, kWorkloads,
                 "--out=" + out_dir};
    for (std::string& arg : extra)
        opts.argv.push_back(std::move(arg));
    return runSubprocess(opts);
}

/** The baseline CSV (no isolation, no faults), computed per out dir. */
std::string
baselineCsv(const std::string& name)
{
    const std::string dir = scratchDir(name);
    SubprocessResult r = runFig4(dir, {});
    EXPECT_TRUE(r.ok()) << r.describe() << "\n" << r.stderrTail;
    return readFile(dir + "/fig4_scmp.csv");
}

TEST(CrashSafe, IsolatedSweepMatchesInProcessByteForByte)
{
    const std::string base = baselineCsv("crash_safe_base_a");
    ASSERT_FALSE(base.empty());

    const std::string dir = scratchDir("crash_safe_iso");
    SubprocessResult r = runFig4(dir, {"--isolate-cells"});
    ASSERT_TRUE(r.ok()) << r.describe() << "\n" << r.stderrTail;
    EXPECT_EQ(readFile(dir + "/fig4_scmp.csv"), base);

    // The journal records a clean sweep: every cell done, none stale.
    JournalState state;
    std::string error;
    ASSERT_TRUE(JournalState::load(dir + "/sweep.journal.jsonl",
                                   &state, &error))
        << error;
    ASSERT_EQ(state.cells.size(), 2u);
    for (const auto& cell : state.cells)
        EXPECT_EQ(cell.second.state, "done") << cell.first;
}

/**
 * Run one --cells mode in process and under --isolate-cells: the child
 * runs the same planned cell on the same body, so the CSVs must match
 * byte for byte.
 */
void
expectIsolatedMatchesInProcess(const std::string& name,
                               const std::vector<std::string>& mode)
{
    const std::string in_dir = scratchDir(name + "_inproc");
    SubprocessResult in = runFig4(in_dir, mode);
    ASSERT_TRUE(in.ok()) << in.describe() << "\n" << in.stderrTail;
    std::vector<std::string> isolated = mode;
    isolated.push_back("--isolate-cells");
    const std::string iso_dir = scratchDir(name + "_iso");
    SubprocessResult iso = runFig4(iso_dir, isolated);
    ASSERT_TRUE(iso.ok()) << iso.describe() << "\n" << iso.stderrTail;
    const std::string csv = readFile(in_dir + "/fig4_scmp.csv");
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(readFile(iso_dir + "/fig4_scmp.csv"), csv);
}

/** Record the streams and sampling plans file-backed modes replay;
 * @return the base path both live under. */
std::string
recordInputs(const std::string& name)
{
    const std::string dir = scratchDir(name);
    SubprocessResult r = runFig4(dir, {"--capture=" + dir + "/s",
                                       "--plan-out=" + dir + "/s"});
    EXPECT_TRUE(r.ok()) << r.describe() << "\n" << r.stderrTail;
    return dir + "/s";
}

TEST(CrashSafe, IsolatedExecMatchesInProcess)
{
    expectIsolatedMatchesInProcess("crash_safe_exec", {"--cells=exec"});
}

TEST(CrashSafe, IsolatedFileReplayMatchesInProcess)
{
    const std::string base = recordInputs("crash_safe_replay_inputs");
    expectIsolatedMatchesInProcess(
        "crash_safe_replay", {"--cells=replay", "--replay=" + base});
}

TEST(CrashSafe, IsolatedSampledMatchesInProcess)
{
    const std::string base = recordInputs("crash_safe_sampled_inputs");
    expectIsolatedMatchesInProcess(
        "crash_safe_sampled",
        {"--cells=sampled", "--replay=" + base, "--plan=" + base});
}

TEST(CrashSafe, KeepGoingHoldsOneRigAtATime)
{
    // Containing a failing cell must not cost memory: a serial sweep
    // keeps at most one rig alive whatever its failure policy, so
    // --keep-going peaks where the plain run does.
    SubprocessResult plain = runFig4(scratchDir("crash_safe_rss_plain"), {});
    ASSERT_TRUE(plain.ok()) << plain.describe() << "\n" << plain.stderrTail;
    SubprocessResult keep =
        runFig4(scratchDir("crash_safe_rss_keep"), {"--keep-going"});
    ASSERT_TRUE(keep.ok()) << keep.describe() << "\n" << keep.stderrTail;
    EXPECT_LE(keep.maxRssKb, plain.maxRssKb * 5 / 4)
        << "plain " << plain.maxRssKb << " KB";
}

TEST(CrashSafe, CrashedCellLeavesSiblingRowsByteIdentical)
{
    const std::string base = baselineCsv("crash_safe_base_b");
    const std::string dir = scratchDir("crash_safe_crash");
    SubprocessResult r =
        runFig4(dir, {"--isolate-cells", "--keep-going",
                      "--faults=cell.proc.crash:nth=1"});
    // --keep-going finishes the sweep despite the crashed cell.
    ASSERT_TRUE(r.ok()) << r.describe() << "\n" << r.stderrTail;

    // Row-by-row: the crashed cell (PLSA, the first spawn) reports
    // failed; every other row is byte-identical to the fault-free run.
    std::istringstream got(readFile(dir + "/fig4_scmp.csv"));
    std::istringstream want(base);
    std::string got_line;
    std::string want_line;
    std::size_t rows = 0;
    while (std::getline(want, want_line)) {
        ASSERT_TRUE(std::getline(got, got_line));
        if (want_line.compare(0, 5, "PLSA,") == 0) {
            EXPECT_NE(got_line.find("failed"), std::string::npos)
                << got_line;
        } else {
            EXPECT_EQ(got_line, want_line);
        }
        ++rows;
    }
    EXPECT_FALSE(std::getline(got, got_line)); // no extra rows
    EXPECT_GE(rows, 3u);                       // header + 2 workloads

    JournalState state;
    std::string error;
    ASSERT_TRUE(JournalState::load(dir + "/sweep.journal.jsonl",
                                   &state, &error))
        << error;
    const JournalCell* plsa = state.find("PLSA");
    ASSERT_NE(plsa, nullptr);
    EXPECT_EQ(plsa->state, "failed");
    EXPECT_NE(plsa->error.find("SIGSEGV"), std::string::npos)
        << plsa->error;
    const JournalCell* snp = state.find("SNP");
    ASSERT_NE(snp, nullptr);
    EXPECT_EQ(snp->state, "done");
}

TEST(CrashSafe, SigkilledSweepResumesByteIdentical)
{
    const std::string base = baselineCsv("crash_safe_base_c");
    const std::string dir = scratchDir("crash_safe_resume");
    const std::string journal = dir + "/sweep.journal.jsonl";
    std::remove(journal.c_str());

    // Start the sweep, wait for the first cell's durable "done"
    // record, then SIGKILL the whole sweep parent -- the worst
    // interruption point short of a power cut.
    std::vector<std::string> argv = {COSIM_FIG4_BIN, kScale, kWorkloads,
                                     "--out=" + dir, "--isolate-cells"};
    std::vector<char*> cargv;
    for (std::string& arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    bool saw_done = false;
    for (int i = 0; i < 3000 && !saw_done; ++i) {
        saw_done = readFile(journal).find("\"event\":\"done\"") !=
                   std::string::npos;
        if (!saw_done)
            ::usleep(10 * 1000);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(saw_done) << "sweep never journaled a done cell";

    // The interrupted journal must already load cleanly, with the
    // in-flight cell left "running" (that is the resume work list).
    JournalState before;
    std::string error;
    ASSERT_TRUE(JournalState::load(journal, &before, &error)) << error;

    SubprocessResult r =
        runFig4(dir, {"--isolate-cells", "--resume=" + journal});
    ASSERT_TRUE(r.ok()) << r.describe() << "\n" << r.stderrTail;

    // Byte-identical figure, and the manifest records the resume.
    EXPECT_EQ(readFile(dir + "/fig4_scmp.csv"), base);
    obs::json::Value doc;
    ASSERT_TRUE(obs::json::parse(readFile(dir + "/run.json"), doc,
                                 &error))
        << error;
    const obs::json::Value* resume = doc.find("resume");
    ASSERT_NE(resume, nullptr);
    EXPECT_TRUE(resume->find("resumed")->boolean);
    EXPECT_GE(resume->find("skipped")->num, 1.0);

    // The healed journal: dense numbering across the gap, every cell
    // finished (done or verified-skipped), nothing left running, and
    // no stray atomic-write temporaries anywhere in the out dir.
    JournalState after;
    ASSERT_TRUE(JournalState::load(journal, &after, &error)) << error;
    EXPECT_GT(after.nextSeq, before.nextSeq);
    ASSERT_EQ(after.cells.size(), 2u);
    for (const auto& cell : after.cells) {
        EXPECT_TRUE(cell.second.state == "done" ||
                    cell.second.state == "skipped")
            << cell.first << " left " << cell.second.state;
    }
}

} // namespace
} // namespace cosim
