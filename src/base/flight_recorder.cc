#include "base/flight_recorder.hh"

#include <algorithm>
#include <atomic>
#include <memory>

#include "base/host_clock.hh"
#include "base/mutex.hh"

namespace cosim {

namespace {

/** One pre-allocated event slot. Every field is its own atomic so a
 * concurrent dump never constitutes a data race; seq==0 marks the slot
 * empty (and is cleared first while the owner rewrites it, so a torn
 * read is at worst dropped, never miscounted). */
struct Slot
{
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> tUs{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<const char*> site{nullptr};
    std::atomic<std::uint16_t> kind{0};
};

struct Ring
{
    std::atomic<std::uint64_t> head{0};
    Slot slots[FlightRecorder::kEventsPerThread];
    std::string label; // written/read under Registry::mutex only
};

/** Owns every ring ever created; rings outlive their threads so a
 * post-mortem can still explain what a dead worker was doing. */
struct Registry
{
    Mutex mutex;
    std::vector<std::shared_ptr<Ring>> rings;
    std::atomic<std::uint64_t> nextSeq{1};
};

Registry&
registry()
{
    // Leaked: threads may record during static destruction.
    static Registry* reg = new Registry; // cosim-analyze: allow(no-raw-new)
    return *reg;
}

Ring&
localRing()
{
    thread_local std::shared_ptr<Ring> ring = [] {
        auto r = std::make_shared<Ring>();
        Registry& reg = registry();
        LockGuard lock(reg.mutex);
        reg.rings.push_back(r);
        return r;
    }();
    return *ring;
}

} // namespace

const char*
frKindName(FrKind kind)
{
    switch (kind) {
      case FrKind::None:
        return "none";
      case FrKind::Mark:
        return "mark";
      case FrKind::ChunkPublished:
        return "chunk_published";
      case FrKind::ChunkEmulated:
        return "chunk_emulated";
      case FrKind::WorkerDied:
        return "worker_died";
      case FrKind::FaultArmed:
        return "fault_armed";
      case FrKind::FaultFired:
        return "fault_fired";
      case FrKind::CellAttempt:
        return "cell_attempt";
      case FrKind::CellDone:
        return "cell_done";
    }
    return "unknown";
}

void
FlightRecorder::note(FrKind kind, const char* site, std::uint64_t a,
                     std::uint64_t b)
{
    Ring& ring = localRing();
    std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    Slot& slot = ring.slots[head % kEventsPerThread];
    slot.seq.store(0, std::memory_order_relaxed);
    slot.tUs.store(hostClockNowUs(), std::memory_order_relaxed);
    slot.kind.store(static_cast<std::uint16_t>(kind),
                    std::memory_order_relaxed);
    slot.site.store(site, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.seq.store(
        registry().nextSeq.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
    ring.head.store(head + 1, std::memory_order_release);
}

void
FlightRecorder::setThreadLabel(const std::string& label)
{
    Ring& ring = localRing(); // registers before taking the lock
    Registry& reg = registry();
    LockGuard lock(reg.mutex);
    ring.label = label;
}

std::vector<FlightRecorder::ThreadDump>
FlightRecorder::dumpAll()
{
    Registry& reg = registry();
    std::vector<ThreadDump> out;
    LockGuard lock(reg.mutex);
    out.reserve(reg.rings.size());
    for (const auto& ring : reg.rings) {
        ThreadDump dump;
        dump.label = ring->label;
        std::uint64_t head = ring->head.load(std::memory_order_acquire);
        std::uint64_t n = std::min<std::uint64_t>(head, kEventsPerThread);
        dump.events.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            const Slot& slot =
                ring->slots[(head - n + i) % kEventsPerThread];
            FrEvent ev;
            ev.seq = slot.seq.load(std::memory_order_relaxed);
            if (ev.seq == 0)
                continue; // owner is mid-rewrite; drop this slot
            ev.tUs = slot.tUs.load(std::memory_order_relaxed);
            ev.kind = static_cast<FrKind>(
                slot.kind.load(std::memory_order_relaxed));
            ev.site = slot.site.load(std::memory_order_relaxed);
            ev.a = slot.a.load(std::memory_order_relaxed);
            ev.b = slot.b.load(std::memory_order_relaxed);
            dump.events.push_back(ev);
        }
        out.push_back(std::move(dump));
    }
    return out;
}

void
FlightRecorder::reset()
{
    Registry& reg = registry();
    LockGuard lock(reg.mutex);
    for (const auto& ring : reg.rings) {
        for (auto& slot : ring->slots)
            slot.seq.store(0, std::memory_order_relaxed);
        ring->head.store(0, std::memory_order_relaxed);
        ring->label.clear();
    }
    reg.nextSeq.store(1, std::memory_order_relaxed);
}

} // namespace cosim
