/**
 * @file
 * Tests for the sweep write-ahead journal (harness/sweep_journal.hh):
 * append/load round-trip, WAL torn-tail semantics (ignored on load,
 * validBytes marks the repair point), dense-seq enforcement, resume
 * numbering across the gap, the journal.write.fail degradation, FNV
 * fingerprinting, and the DurableAppendFile helper itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "harness/sweep_journal.hh"

namespace cosim {
namespace {

std::string
scratch(const std::string& name)
{
    std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return body;
}

// ------------------------------------------------------------- FNV-1a64

TEST(Fnv1a64, MatchesTheReferenceVectors)
{
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(DigestFileFnv, HashesFileBytesAndReportsSize)
{
    const std::string path = scratch("journal_digest.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "foobar";
    }
    std::uint64_t digest = 0;
    std::uint64_t bytes = 0;
    ASSERT_TRUE(digestFileFnv(path, &digest, &bytes));
    EXPECT_EQ(digest, 0x85944171f73967e8ull);
    EXPECT_EQ(bytes, 6u);
    EXPECT_FALSE(digestFileFnv(path + ".absent", &digest, &bytes));
    std::remove(path.c_str());
}

// ----------------------------------------------------- DurableAppendFile

TEST(DurableAppendFile, AppendsLinesAndResumesWithoutTruncating)
{
    const std::string path = scratch("durable_append.jsonl");
    {
        DurableAppendFile f(path, /*truncate=*/true);
        EXPECT_TRUE(f.appendLine("one"));
        EXPECT_TRUE(f.appendLine("two"));
    }
    {
        DurableAppendFile f(path, /*truncate=*/false);
        EXPECT_TRUE(f.appendLine("three"));
    }
    EXPECT_EQ(readFile(path), "one\ntwo\nthree\n");
    {
        DurableAppendFile f(path, /*truncate=*/true);
        EXPECT_TRUE(f.appendLine("fresh"));
    }
    EXPECT_EQ(readFile(path), "fresh\n");
    std::remove(path.c_str());
}

// ------------------------------------------------- journal round-trip

TEST(SweepJournal, RoundTripsEveryRecordKind)
{
    const std::string path = scratch("journal_roundtrip.jsonl");
    const std::uint64_t digest = 0xdeadbeefcafef00dull;
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 0xfeedfacefeedfaceull, 2);
        j.cellPlanned("PLSA");
        j.cellRunning("PLSA", 1);
        j.cellDone("PLSA", 1, "/tmp/PLSA.cell.json", 123, digest);
        j.cellPlanned("SNP");
        j.cellRunning("SNP", 1);
        j.cellFailed("SNP", 2, "injected fault at cell.throw");
        j.sweepDone(1, 1);
        EXPECT_TRUE(j.healthy());
    }

    JournalState state;
    std::string error;
    ASSERT_TRUE(JournalState::load(path, &state, &error)) << error;
    EXPECT_EQ(state.figure, "fig4");
    // 64-bit digests survive exactly (decimal strings, not doubles).
    EXPECT_EQ(state.configDigest, 0xfeedfacefeedfaceull);
    EXPECT_EQ(state.nextSeq, 8u);
    EXPECT_EQ(state.validBytes, readFile(path).size());
    ASSERT_EQ(state.cells.size(), 2u);

    const JournalCell* plsa = state.find("PLSA");
    ASSERT_NE(plsa, nullptr);
    EXPECT_EQ(plsa->state, "done");
    EXPECT_EQ(plsa->attempts, 1u);
    EXPECT_EQ(plsa->artifact, "/tmp/PLSA.cell.json");
    EXPECT_EQ(plsa->artifactBytes, 123u);
    EXPECT_EQ(plsa->artifactDigest, digest);

    const JournalCell* snp = state.find("SNP");
    ASSERT_NE(snp, nullptr);
    EXPECT_EQ(snp->state, "failed");
    EXPECT_EQ(snp->attempts, 2u);
    EXPECT_EQ(snp->error, "injected fault at cell.throw");
    EXPECT_EQ(state.find("absent"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepJournal, ResumeContinuesDenseNumberingAcrossTheGap)
{
    const std::string path = scratch("journal_resume.jsonl");
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 7, 2);
        j.cellPlanned("PLSA");
        j.cellRunning("PLSA", 1);
    }
    JournalState before;
    ASSERT_TRUE(JournalState::load(path, &before, nullptr));
    EXPECT_EQ(before.nextSeq, 3u);
    // An interrupted cell is left "running": exactly what a resume
    // must re-run.
    EXPECT_EQ(before.find("PLSA")->state, "running");

    {
        SweepJournal j(path, before.nextSeq);
        j.resumed(0, 2);
        j.resumeSkip("PLSA");
    }
    JournalState after;
    std::string error;
    ASSERT_TRUE(JournalState::load(path, &after, &error)) << error;
    EXPECT_EQ(after.nextSeq, 5u);
    EXPECT_EQ(after.find("PLSA")->state, "skipped");
    std::remove(path.c_str());
}

TEST(SweepJournal, ResumeSkipPreservesTheDoneArtifactFields)
{
    const std::string path = scratch("journal_skip_fields.jsonl");
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 7, 1);
        j.cellPlanned("PLSA");
        j.cellRunning("PLSA", 1);
        j.cellDone("PLSA", 1, "/tmp/a.json", 9, 0xffffffffffffffffull);
        j.resumeSkip("PLSA");
    }
    JournalState state;
    ASSERT_TRUE(JournalState::load(path, &state, nullptr));
    const JournalCell* cell = state.find("PLSA");
    ASSERT_NE(cell, nullptr);
    // A twice-resumed sweep still verifies the artifact from the skip
    // record's cell entry, so done's fields must survive the skip.
    EXPECT_EQ(cell->state, "skipped");
    EXPECT_EQ(cell->artifact, "/tmp/a.json");
    EXPECT_EQ(cell->artifactBytes, 9u);
    EXPECT_EQ(cell->artifactDigest, 0xffffffffffffffffull);
    std::remove(path.c_str());
}

// ------------------------------------------------- WAL load semantics

TEST(SweepJournal, TornFinalLineIsIgnoredAndValidBytesMarksTheRepair)
{
    const std::string path = scratch("journal_torn.jsonl");
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 7, 1);
        j.cellPlanned("PLSA");
    }
    const std::string intact = readFile(path);
    {
        // Simulate the append a crash interrupted: half a record, no
        // trailing newline.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "{\"seq\":2,\"t_us\":123,\"ev";
    }
    JournalState state;
    std::string error;
    ASSERT_TRUE(JournalState::load(path, &state, &error)) << error;
    EXPECT_EQ(state.nextSeq, 2u);
    EXPECT_EQ(state.find("PLSA")->state, "planned");
    // validBytes points at the end of the last complete line: exactly
    // where a resume truncates before appending.
    EXPECT_EQ(state.validBytes, intact.size());
    std::remove(path.c_str());
}

TEST(SweepJournal, MalformedInteriorRecordsAreHardErrors)
{
    const std::string path = scratch("journal_corrupt.jsonl");
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 7, 1);
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "not json at all\n";
        out << "{\"seq\":2,\"t_us\":1,\"event\":\"planned\","
               "\"cell\":\"PLSA\"}\n";
    }
    JournalState state;
    std::string error;
    EXPECT_FALSE(JournalState::load(path, &state, &error));
    EXPECT_NE(error.find(":2:"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, NonDenseSeqIsRejected)
{
    const std::string path = scratch("journal_sparse.jsonl");
    {
        SweepJournal j(path);
        j.sweepPlan("fig4", 7, 1);
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "{\"seq\":5,\"t_us\":1,\"event\":\"planned\","
               "\"cell\":\"PLSA\"}\n";
    }
    JournalState state;
    std::string error;
    EXPECT_FALSE(JournalState::load(path, &state, &error));
    EXPECT_NE(error.find("seq not dense"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, MissingPlanRecordIsRejected)
{
    const std::string path = scratch("journal_noplan.jsonl");
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"seq\":0,\"t_us\":1,\"event\":\"planned\","
               "\"cell\":\"PLSA\"}\n";
    }
    JournalState state;
    std::string error;
    EXPECT_FALSE(JournalState::load(path, &state, &error));
    EXPECT_NE(error.find("sweep_plan"), std::string::npos) << error;
    std::remove(path.c_str());
}

// ------------------------------------------------- failure discipline

TEST(SweepJournal, InjectedWriteFailureDegradesWithoutThrowing)
{
    const std::string path = scratch("journal_fault.jsonl");
    SweepJournal j(path);
    {
        ScopedFaultPlan plan("journal.write.fail:nth=2");
        j.sweepPlan("fig4", 7, 1); // hit 1: survives
        EXPECT_TRUE(j.healthy());
        j.cellPlanned("PLSA");     // hit 2: fires, journal shuts off
        EXPECT_FALSE(j.healthy());
        j.cellRunning("PLSA", 1);  // silently dropped, no throw
        EXPECT_FALSE(j.healthy());
    }

    // The record that failed (and everything after) never reached the
    // file; what did reach it is still a valid journal prefix.
    JournalState state;
    std::string error;
    ASSERT_TRUE(JournalState::load(path, &state, &error)) << error;
    EXPECT_EQ(state.nextSeq, 1u);
    EXPECT_TRUE(state.cells.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace cosim
