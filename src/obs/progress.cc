#include "obs/progress.hh"

#include <chrono>
#include <iostream>

#include "base/host_clock.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "obs/json.hh"

namespace cosim {
namespace obs {

ProgressStream::ProgressStream(const std::string& path) : file_(path) {}

void
ProgressStream::emit(const std::string& event,
                     const std::string& json_fields)
{
    LockGuard lock(mutex_);
    if (failed_)
        return;
    std::string line = "{\"seq\":" + std::to_string(seq_) +
                       ",\"t_us\":" + std::to_string(hostClockNowUs()) +
                       ",\"event\":" + json::quote(event);
    if (!json_fields.empty())
        line += "," + json_fields;
    line += "}";
    if (!file_.appendLine(line)) {
        failed_ = true;
        warn("progress: write to '%s' failed; stream disabled",
             file_.path().c_str());
        return;
    }
    ++seq_;
}

SweepProgress::SweepProgress(const Options& opts) : opts_(opts)
{
    if (!opts_.file.empty())
        stream_ = std::make_unique<ProgressStream>(opts_.file);
}

SweepProgress::~SweepProgress()
{
    stop();
}

std::size_t
SweepProgress::addCell(const std::string& label)
{
    LockGuard lock(mutex_);
    cells_.emplace_back();
    cells_.back().label = label;
    return cells_.size() - 1;
}

HeartbeatSlot*
SweepProgress::slot(std::size_t idx)
{
    LockGuard lock(mutex_);
    return &cells_[idx].slot;
}

void
SweepProgress::enqueue(const std::string& event,
                       const std::string& fields)
{
    if (stream_ == nullptr)
        return;
    LockGuard lock(mutex_);
    pending_.push_back(PendingEvent{event, fields});
}

void
SweepProgress::cellStarted(std::size_t idx, unsigned attempt)
{
    LockGuard lock(mutex_);
    CellEntry& cell = cells_[idx];
    cell.state.store(CellState::Running, std::memory_order_relaxed);
    enqueueLocked("cell_start",
                  "\"cell\":" + json::quote(cell.label) +
                      ",\"attempt\":" + std::to_string(attempt));
}

void
SweepProgress::cellResumeSkipped(std::size_t idx)
{
    LockGuard lock(mutex_);
    CellEntry& cell = cells_[idx];
    cell.state.store(CellState::Ok, std::memory_order_relaxed);
    enqueueLocked("resume_skip", "\"cell\":" + json::quote(cell.label));
}

void
SweepProgress::cellRetried(std::size_t idx, unsigned attempt,
                           const std::string& error)
{
    LockGuard lock(mutex_);
    CellEntry& cell = cells_[idx];
    enqueueLocked("cell_retry",
                  "\"cell\":" + json::quote(cell.label) +
                      ",\"attempt\":" + std::to_string(attempt) +
                      ",\"error\":" + json::quote(error));
}

void
SweepProgress::cellFault(std::size_t idx, const std::string& site,
                         std::uint64_t hit)
{
    LockGuard lock(mutex_);
    CellEntry& cell = cells_[idx];
    enqueueLocked("fault", "\"cell\":" + json::quote(cell.label) +
                               ",\"site\":" + json::quote(site) +
                               ",\"hit\":" + std::to_string(hit));
}

void
SweepProgress::cellFinished(std::size_t idx, bool ok,
                            double wall_seconds,
                            const std::string& error)
{
    LockGuard lock(mutex_);
    CellEntry& cell = cells_[idx];
    cell.state.store(ok ? CellState::Ok : CellState::Failed,
                     std::memory_order_relaxed);
    std::string fields = "\"cell\":" + json::quote(cell.label) +
                         ",\"status\":" + json::quote(ok ? "ok" : "failed") +
                         ",\"wall_s\":" + json::number(wall_seconds);
    if (!error.empty())
        fields += ",\"error\":" + json::quote(error);
    enqueueLocked("cell_finish", fields);
}

void
SweepProgress::event(const std::string& event, const std::string& fields)
{
    enqueue(event, fields);
}

void
SweepProgress::start()
{
    if (!active() || started_)
        return;
    started_ = true;
    stop_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this] { samplerLoop(); });
}

void
SweepProgress::stop()
{
    if (started_) {
        stop_.store(true, std::memory_order_relaxed);
        sampler_.join();
        started_ = false;
    }
    // Final drain + view so cell_finish events written after the last
    // sampler tick still reach the stream.
    drainEvents();
    if (opts_.tty)
        tick(/*emit_heartbeats=*/false);
}

std::size_t
SweepProgress::cellCount() const
{
    LockGuard lock(mutex_);
    return cells_.size();
}

void
SweepProgress::samplerLoop()
{
    using namespace std::chrono;
    const auto period = duration_cast<steady_clock::duration>(
        duration<double>(opts_.periodSeconds));
    while (!stop_.load(std::memory_order_relaxed)) {
        // CondVar has no timed wait, so nap in small slices and check
        // the stop flag between them to keep shutdown prompt.
        const auto deadline = steady_clock::now() + period;
        while (!stop_.load(std::memory_order_relaxed) &&
               steady_clock::now() < deadline) {
            std::this_thread::sleep_for(milliseconds(10));
        }
        if (stop_.load(std::memory_order_relaxed))
            break;
        drainEvents();
        tick(/*emit_heartbeats=*/true);
    }
}

void
SweepProgress::drainEvents()
{
    if (stream_ == nullptr)
        return;
    std::vector<PendingEvent> batch;
    {
        LockGuard lock(mutex_);
        batch.swap(pending_);
    }
    for (const PendingEvent& ev : batch)
        stream_->emit(ev.event, ev.fields);
}

void
SweepProgress::tick(bool emit_heartbeats)
{
    struct Row
    {
        std::string label;
        CellState state = CellState::Pending;
        std::uint64_t quanta = 0;
        std::uint64_t insts = 0;
        std::uint64_t simNs = 0;
        std::uint64_t queuePeak = 0;
        double mips = 0.0;
    };

    const std::uint64_t now_us = hostClockNowUs();
    std::vector<Row> rows;
    {
        LockGuard lock(mutex_);
        rows.reserve(cells_.size());
        for (CellEntry& cell : cells_) {
            Row row;
            row.label = cell.label;
            row.state = cell.state.load(std::memory_order_relaxed);
            row.quanta = cell.slot.quanta();
            row.insts = cell.slot.insts();
            row.simNs = cell.slot.simNs();
            row.queuePeak = cell.slot.queuePeak();
            if (row.state == CellState::Running) {
                std::uint64_t d_insts = row.insts - cell.lastInsts;
                std::uint64_t d_us = now_us - cell.lastTickUs;
                if (cell.lastTickUs != 0 && d_us > 0) {
                    // insts per microsecond == millions per second.
                    cell.lastMips = static_cast<double>(d_insts) /
                                    static_cast<double>(d_us);
                }
                cell.lastInsts = row.insts;
                cell.lastTickUs = now_us;
            }
            row.mips = cell.lastMips;
            rows.push_back(std::move(row));
        }
    }

    if (emit_heartbeats && stream_ != nullptr) {
        for (const Row& row : rows) {
            if (row.state != CellState::Running)
                continue;
            stream_->emit(
                "heartbeat",
                "\"cell\":" + json::quote(row.label) +
                    ",\"quanta\":" + std::to_string(row.quanta) +
                    ",\"insts\":" + std::to_string(row.insts) +
                    ",\"sim_ms\":" +
                    json::number(static_cast<double>(row.simNs) / 1e6) +
                    ",\"mips\":" + json::number(row.mips) +
                    ",\"queue_peak\":" + std::to_string(row.queuePeak));
        }
    }

    if (!opts_.tty)
        return;
    std::string view;
    if (renderedLines_ > 0 && isatty(STDERR_FILENO))
        view += "\x1b[" + std::to_string(renderedLines_) + "A";
    for (const Row& row : rows) {
        const char* state = "wait";
        switch (row.state) {
          case CellState::Pending:
            state = "wait";
            break;
          case CellState::Running:
            state = "run ";
            break;
          case CellState::Ok:
            state = "ok  ";
            break;
          case CellState::Failed:
            state = "FAIL";
            break;
        }
        if (isatty(STDERR_FILENO))
            view += "\x1b[2K";
        view += strFormat("%-32s %s  q=%-8llu sim=%9.1f ms  "
                          "%6.1f MIPS  queue<=%llu\n",
                          row.label.c_str(), state,
                          static_cast<unsigned long long>(row.quanta),
                          static_cast<double>(row.simNs) / 1e6, row.mips,
                          static_cast<unsigned long long>(row.queuePeak));
    }
    std::cerr << view << std::flush;
    renderedLines_ = static_cast<unsigned>(rows.size());
}

} // namespace obs
} // namespace cosim
