/**
 * @file
 * Tests for base/flight_recorder.hh and the postmortem.json renderer
 * built on top of it (obs/postmortem.hh): per-thread rings, wrap at
 * capacity, thread labels, and the rendered JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"

namespace cosim {
namespace {

using obs::json::Value;

/**
 * The dump whose label is @p label; nullptr when absent. reset()
 * clears rings but keeps them registered, so tests match by label
 * instead of asserting dump counts.
 */
const FlightRecorder::ThreadDump*
dumpLabeled(const std::vector<FlightRecorder::ThreadDump>& dumps,
            const std::string& label)
{
    for (const FlightRecorder::ThreadDump& d : dumps) {
        if (d.label == label)
            return &d;
    }
    return nullptr;
}

/** Reset before and after: the recorder is process-wide state. */
class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override { FlightRecorder::reset(); }
    void TearDown() override { FlightRecorder::reset(); }
};

TEST_F(FlightRecorderTest, NotesAppearInOrderWithPayloads)
{
    FlightRecorder::setThreadLabel("test/main");
    FlightRecorder::note(FrKind::Mark, "unit.start");
    FlightRecorder::note(FrKind::ChunkPublished, "fsb", 64, 1);
    FlightRecorder::note(FrKind::ChunkEmulated, "fsb", 64, 1);

    std::vector<FlightRecorder::ThreadDump> dumps =
        FlightRecorder::dumpAll();
    const FlightRecorder::ThreadDump* d =
        dumpLabeled(dumps, "test/main");
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->events.size(), 3u);
    EXPECT_EQ(d->events[0].kind, FrKind::Mark);
    EXPECT_STREQ(d->events[0].site, "unit.start");
    EXPECT_EQ(d->events[1].kind, FrKind::ChunkPublished);
    EXPECT_EQ(d->events[1].a, 64u);
    EXPECT_EQ(d->events[1].b, 1u);
    // Sequence numbers are global and increase in record order.
    EXPECT_LT(d->events[0].seq, d->events[1].seq);
    EXPECT_LT(d->events[1].seq, d->events[2].seq);
    // Timestamps come from the shared host clock, oldest first.
    EXPECT_LE(d->events[0].tUs, d->events[2].tUs);
}

TEST_F(FlightRecorderTest, RingKeepsOnlyTheNewestEvents)
{
    FlightRecorder::setThreadLabel("test/wrap");
    const std::size_t n = FlightRecorder::kEventsPerThread + 40;
    for (std::size_t i = 0; i < n; ++i)
        FlightRecorder::note(FrKind::Mark, "wrap.test", i);

    std::vector<FlightRecorder::ThreadDump> dumps =
        FlightRecorder::dumpAll();
    const FlightRecorder::ThreadDump* d =
        dumpLabeled(dumps, "test/wrap");
    ASSERT_NE(d, nullptr);
    const std::vector<FrEvent>& ev = d->events;
    ASSERT_EQ(ev.size(), FlightRecorder::kEventsPerThread);
    // The oldest retained event is the 41st recorded; the newest is
    // the last.
    EXPECT_EQ(ev.front().a, 40u);
    EXPECT_EQ(ev.back().a, n - 1);
    for (std::size_t i = 1; i < ev.size(); ++i)
        EXPECT_EQ(ev[i].seq, ev[i - 1].seq + 1);
}

TEST_F(FlightRecorderTest, EachThreadGetsItsOwnRing)
{
    FlightRecorder::setThreadLabel("test/main");
    FlightRecorder::note(FrKind::Mark, "main.event");
    std::thread worker([] {
        FlightRecorder::setThreadLabel("test/worker");
        FlightRecorder::note(FrKind::WorkerDied, "emu", 3);
    });
    worker.join();

    // Exited threads' rings survive in the dump.
    std::vector<FlightRecorder::ThreadDump> dumps =
        FlightRecorder::dumpAll();
    const FlightRecorder::ThreadDump* main_dump =
        dumpLabeled(dumps, "test/main");
    const FlightRecorder::ThreadDump* worker_dump =
        dumpLabeled(dumps, "test/worker");
    ASSERT_NE(main_dump, nullptr);
    ASSERT_EQ(main_dump->events.size(), 1u);
    EXPECT_EQ(main_dump->events[0].kind, FrKind::Mark);
    ASSERT_NE(worker_dump, nullptr);
    ASSERT_EQ(worker_dump->events.size(), 1u);
    EXPECT_EQ(worker_dump->events[0].kind, FrKind::WorkerDied);
    EXPECT_EQ(worker_dump->events[0].a, 3u);
}

TEST_F(FlightRecorderTest, KindNamesAreStableLowerCase)
{
    EXPECT_STREQ(frKindName(FrKind::Mark), "mark");
    EXPECT_STREQ(frKindName(FrKind::ChunkPublished), "chunk_published");
    EXPECT_STREQ(frKindName(FrKind::ChunkEmulated), "chunk_emulated");
    EXPECT_STREQ(frKindName(FrKind::WorkerDied), "worker_died");
    EXPECT_STREQ(frKindName(FrKind::FaultFired), "fault_fired");
    EXPECT_STREQ(frKindName(FrKind::CellAttempt), "cell_attempt");
    EXPECT_STREQ(frKindName(FrKind::CellDone), "cell_done");
}

// ------------------------------------------------- postmortem rendering

TEST_F(FlightRecorderTest, RenderPostmortemEmbedsTheThreadHistory)
{
    FlightRecorder::setThreadLabel("cell/PLSA");
    FlightRecorder::note(FrKind::CellAttempt, "sweep.cell", 1, 0);
    FlightRecorder::note(FrKind::ChunkPublished, "fsb", 64, 0);

    obs::PostmortemInfo info;
    info.reason = "cell_failed";
    info.cell = "PLSA";
    info.attempt = 2;
    info.error = "injected fault at 'cell.throw' (hit 1)";
    std::string body = obs::renderPostmortem(info);

    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(body, doc, &error)) << error << body;
    const Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "cosim-postmortem/1");
    EXPECT_EQ(doc.find("reason")->str, "cell_failed");
    EXPECT_EQ(doc.find("cell")->str, "PLSA");
    EXPECT_DOUBLE_EQ(doc.find("attempt")->num, 2.0);
    EXPECT_NE(doc.find("error")->str.find("cell.throw"),
              std::string::npos);

    const Value* threads = doc.find("threads");
    ASSERT_NE(threads, nullptr);
    ASSERT_TRUE(threads->isArray());
    bool saw_cell_thread = false;
    for (const Value& t : threads->arr) {
        const Value* label = t.find("label");
        if (label != nullptr && label->str == "cell/PLSA") {
            saw_cell_thread = true;
            const Value* events = t.find("events");
            ASSERT_NE(events, nullptr);
            ASSERT_GE(events->size(), 2u);
            EXPECT_EQ(events->arr[0].find("kind")->str, "cell_attempt");
            EXPECT_EQ(events->arr[1].find("kind")->str,
                      "chunk_published");
        }
    }
    EXPECT_TRUE(saw_cell_thread);
}

} // namespace
} // namespace cosim
