/**
 * @file
 * End-to-end crash-safety tests against the real fig4 binary (path
 * injected as COSIM_FIG4_BIN): a cell result isolated from the process
 * that computed it -- written to its artifact by a journaled sweep and
 * loaded by a resume -- reproduces the in-process figure CSV byte for
 * byte, in every cell mode; and a SIGKILLed sweep resumes to
 * byte-identical results re-running only its unfinished cells. These
 * are the same properties the CI crash-safety job gates; here they run
 * at tiny scale.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

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

/** How one bench process ended. */
struct BenchRun
{
    int status = -1;   ///< wait status
    long maxRssKb = 0; ///< peak RSS
    std::string log;   ///< its stdout and stderr

    bool ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
};

/** Start the fig4 bench on @p out_dir with @p extra flags, its output
 * going to "<out_dir>/bench.log". @return the child's pid. */
pid_t
spawnFig4(const std::string& out_dir, std::vector<std::string> extra)
{
    std::vector<std::string> argv = {COSIM_FIG4_BIN, kScale, kWorkloads,
                                     "--out=" + out_dir};
    for (std::string& arg : extra)
        argv.push_back(std::move(arg));
    std::vector<char*> cargv;
    for (std::string& arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    const std::string log = out_dir + "/bench.log";
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int fd =
            ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
        }
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    return pid;
}

/** Reap @p pid, started by spawnFig4() on @p out_dir. */
BenchRun
waitFig4(pid_t pid, const std::string& out_dir)
{
    BenchRun run;
    struct rusage usage{};
    if (pid > 0 && ::wait4(pid, &run.status, 0, &usage) == pid)
        run.maxRssKb = usage.ru_maxrss;
    run.log = readFile(out_dir + "/bench.log");
    return run;
}

/** Run the fig4 bench to completion with the given extra flags. */
BenchRun
runFig4(const std::string& out_dir, std::vector<std::string> extra)
{
    return waitFig4(spawnFig4(out_dir, std::move(extra)), out_dir);
}

/** The CSV of a plain run (no journal, no faults) of @p mode. */
std::string
plainCsv(const std::string& name, const std::vector<std::string>& mode)
{
    const std::string dir = scratchDir(name);
    BenchRun r = runFig4(dir, mode);
    EXPECT_TRUE(r.ok()) << r.log;
    return readFile(dir + "/fig4_scmp.csv");
}

/** run.json's resume block of the run that wrote @p dir. */
obs::json::Value
resumeBlock(const std::string& dir)
{
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(readFile(dir + "/run.json"), doc, &error))
        << error;
    const obs::json::Value* resume = doc.find("resume");
    return resume != nullptr ? *resume : obs::json::Value{};
}

/** Record the streams and sampling plans file-backed modes replay;
 * @return the base path both live under. */
std::string
recordInputs(const std::string& name)
{
    const std::string dir = scratchDir(name);
    BenchRun r = runFig4(dir, {"--capture=" + dir + "/s",
                               "--plan-out=" + dir + "/s"});
    EXPECT_TRUE(r.ok()) << r.log;
    return dir + "/s";
}

/**
 * Run one --cells mode in process, then journal it and resume the
 * journal in a second process into the same output directory. The
 * resume re-runs nothing: every planned cell's result crosses the
 * process boundary through its artifact, and the figure assembled
 * from those artifacts must equal the in-process run's byte for byte.
 * That carries each mode's CellOutput -- combined's, exec's per-config
 * cells, file-backed replay, sampled's estimates -- through the
 * artifact round trip.
 */
void
expectIsolatedMatchesInProcess(const std::string& name,
                               const std::vector<std::string>& mode)
{
    const std::string plain = plainCsv(name + "_inproc", mode);
    ASSERT_FALSE(plain.empty());

    const std::string dir = scratchDir(name + "_iso");
    const std::string journal = dir + "/sweep.journal.jsonl";
    std::vector<std::string> flags = mode;
    flags.push_back("--journal");
    BenchRun first = runFig4(dir, flags);
    ASSERT_TRUE(first.ok()) << first.log;
    EXPECT_EQ(readFile(dir + "/fig4_scmp.csv"), plain);
    JournalState done;
    std::string error;
    ASSERT_TRUE(JournalState::load(journal, &done, &error)) << error;
    ASSERT_GE(done.cells.size(), 2u);
    for (const auto& cell : done.cells)
        EXPECT_EQ(cell.second.state, "done") << cell.first;

    flags = mode;
    flags.push_back("--resume=" + journal);
    BenchRun resumed = runFig4(dir, flags);
    ASSERT_TRUE(resumed.ok()) << resumed.log;
    EXPECT_EQ(readFile(dir + "/fig4_scmp.csv"), plain);
    const obs::json::Value resume = resumeBlock(dir);
    ASSERT_NE(resume.find("skipped"), nullptr);
    EXPECT_EQ(resume.find("skipped")->num,
              static_cast<double>(done.cells.size()));

    JournalState after;
    ASSERT_TRUE(JournalState::load(journal, &after, &error)) << error;
    for (const auto& cell : after.cells)
        EXPECT_EQ(cell.second.state, "skipped") << cell.first;
}

TEST(CrashSafe, IsolatedSweepMatchesInProcessByteForByte)
{
    expectIsolatedMatchesInProcess("crash_safe_combined", {});
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
    BenchRun plain = runFig4(scratchDir("crash_safe_rss_plain"), {});
    ASSERT_TRUE(plain.ok()) << plain.log;
    BenchRun keep =
        runFig4(scratchDir("crash_safe_rss_keep"), {"--keep-going"});
    ASSERT_TRUE(keep.ok()) << keep.log;
    EXPECT_LE(keep.maxRssKb, plain.maxRssKb * 5 / 4)
        << "plain " << plain.maxRssKb << " KB";
}

TEST(CrashSafe, SigkilledSweepResumesByteIdentical)
{
    const std::string base = plainCsv("crash_safe_base_c", {});
    const std::string dir = scratchDir("crash_safe_resume");
    const std::string journal = dir + "/sweep.journal.jsonl";
    std::remove(journal.c_str());

    // Start the sweep, wait for the first cell's durable "done"
    // record, then SIGKILL it -- the worst interruption point short
    // of a power cut.
    const pid_t pid = spawnFig4(dir, {"--journal"});
    ASSERT_GT(pid, 0);
    bool saw_done = false;
    for (int i = 0; i < 3000 && !saw_done; ++i) {
        saw_done = readFile(journal).find("\"event\":\"done\"") !=
                   std::string::npos;
        if (!saw_done)
            ::usleep(10 * 1000);
    }
    ::kill(pid, SIGKILL);
    waitFig4(pid, dir);
    ASSERT_TRUE(saw_done) << "sweep never journaled a done cell";

    // The interrupted journal must already load cleanly, with the
    // in-flight cell left "running" (that is the resume work list).
    JournalState before;
    std::string error;
    ASSERT_TRUE(JournalState::load(journal, &before, &error)) << error;

    BenchRun r = runFig4(dir, {"--resume=" + journal});
    ASSERT_TRUE(r.ok()) << r.log;

    // Byte-identical figure, and the manifest records the resume.
    EXPECT_EQ(readFile(dir + "/fig4_scmp.csv"), base);
    const obs::json::Value resume = resumeBlock(dir);
    ASSERT_NE(resume.find("resumed"), nullptr);
    EXPECT_TRUE(resume.find("resumed")->boolean);
    EXPECT_GE(resume.find("skipped")->num, 1.0);

    // The healed journal: dense numbering across the gap, every cell
    // finished (done or verified-skipped), nothing left running.
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
