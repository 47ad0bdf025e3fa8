#include "obs/host_profiler.hh"

#include "base/str.hh"

namespace cosim {
namespace obs {

namespace {

double
mipsOf(std::uint64_t insts, double seconds)
{
    return seconds <= 0.0
        ? 0.0
        : static_cast<double>(insts) / 1e6 / seconds;
}

} // namespace

HostProfiler&
HostProfiler::global()
{
    static HostProfiler instance;
    return instance;
}

HostProfiler::PhaseTotal&
HostProfiler::phase(const std::string& name)
{
    // REQUIRES(mutex_) in the declaration: -Wthread-safety rejects any
    // call site that has not already locked.
    for (PhaseTotal& p : phases_) {
        if (p.name == name)
            return p;
    }
    phases_.push_back(PhaseTotal{name, 0.0, 0});
    return phases_.back();
}

void
HostProfiler::accumulate(const std::string& name, double seconds)
{
    LockGuard lock(mutex_);
    PhaseTotal& p = phase(name);
    p.seconds += seconds;
    ++p.calls;
}

void
HostProfiler::addSimulated(std::uint64_t insts, double seconds)
{
    LockGuard lock(mutex_);
    simInsts_ += insts;
    simSeconds_ += seconds;
}

void
HostProfiler::noteEmulationThreads(unsigned n)
{
    LockGuard lock(mutex_);
    if (n > emuThreads_)
        emuThreads_ = n;
}

unsigned
HostProfiler::emulationThreads() const
{
    LockGuard lock(mutex_);
    return emuThreads_;
}

double
HostProfiler::seconds(const std::string& name) const
{
    LockGuard lock(mutex_);
    for (const PhaseTotal& p : phases_) {
        if (p.name == name)
            return p.seconds;
    }
    return 0.0;
}

std::uint64_t
HostProfiler::calls(const std::string& name) const
{
    LockGuard lock(mutex_);
    for (const PhaseTotal& p : phases_) {
        if (p.name == name)
            return p.calls;
    }
    return 0;
}

std::vector<HostProfiler::PhaseTotal>
HostProfiler::phases() const
{
    LockGuard lock(mutex_);
    return phases_;
}

std::uint64_t
HostProfiler::simulatedInsts() const
{
    LockGuard lock(mutex_);
    return simInsts_;
}

double
HostProfiler::simulatedSeconds() const
{
    LockGuard lock(mutex_);
    return simSeconds_;
}

double
HostProfiler::simulatedMips() const
{
    LockGuard lock(mutex_);
    return mipsOf(simInsts_, simSeconds_);
}

std::string
HostProfiler::report() const
{
    LockGuard lock(mutex_);
    std::string out = "host profile:\n";
    for (const PhaseTotal& p : phases_) {
        out += strFormat("  %-24s %9.3fs  %8llu calls\n", p.name.c_str(),
                         p.seconds,
                         static_cast<unsigned long long>(p.calls));
    }
    if (emuThreads_ > 0)
        out += strFormat("  emulation threads        %9u\n", emuThreads_);
    if (simSeconds_ > 0.0) {
        out += strFormat("  simulated %.1fM insts in %.3fs -> %.1f MIPS\n",
                         static_cast<double>(simInsts_) / 1e6, simSeconds_,
                         mipsOf(simInsts_, simSeconds_));
    }
    return out;
}

stats::Group
HostProfiler::statsGroup(const std::string& name) const
{
    LockGuard lock(mutex_);
    stats::Group g(name);
    for (const PhaseTotal& p : phases_) {
        double secs = p.seconds;
        std::uint64_t n = p.calls;
        g.add(p.name + ".seconds", [secs] { return secs; });
        g.add(p.name + ".calls",
              [n] { return static_cast<double>(n); });
    }
    std::uint64_t insts = simInsts_;
    double mips = mipsOf(simInsts_, simSeconds_);
    unsigned emu_threads = emuThreads_;
    g.add("sim_insts", [insts] { return static_cast<double>(insts); });
    g.add("sim_mips", [mips] { return mips; });
    g.add("emulation_threads",
          [emu_threads] { return static_cast<double>(emu_threads); });
    return g;
}

void
HostProfiler::reset()
{
    LockGuard lock(mutex_);
    phases_.clear();
    simInsts_ = 0;
    simSeconds_ = 0.0;
    emuThreads_ = 0;
}

} // namespace obs
} // namespace cosim
