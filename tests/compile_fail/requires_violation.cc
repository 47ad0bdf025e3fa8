/**
 * @file
 * Thread-safety-analysis regression fixture: this file MUST NOT compile
 * under `clang++ -Wthread-safety -Werror=thread-safety-analysis`.
 *
 * It calls a REQUIRES(mutex_)-annotated helper without holding the
 * mutex -- the bug class the annotation on AsyncEmulatorBank::drained()
 * (src/core/emulator_bank.hh) exists to reject. The ctest entry builds
 * this target with WILL_FAIL, so the analysis regressing to silence
 * shows up as a test failure.
 *
 * If this file ever starts compiling cleanly, the annotations have
 * stopped doing their job -- do not "fix" this file by adding a lock.
 */

#include <map>
#include <string>

#include "base/annotations.hh"
#include "base/mutex.hh"

namespace {

// A locked public recording API over a REQUIRES-annotated private
// accessor that callers must not reach without the lock.
class Profiler
{
  public:
    void record(const std::string& name, double ms)
    {
        cosim::LockGuard lock(mutex_);
        total(name) += ms;
    }

    // BUG (deliberate): calls total() -- REQUIRES(mutex_) -- without
    // acquiring mutex_ first.
    double peek(const std::string& name)
    {
        return total(name);
    }

  private:
    double& total(const std::string& name) REQUIRES(mutex_)
    {
        return totals_[name];
    }

    cosim::Mutex mutex_;
    std::map<std::string, double> totals_ GUARDED_BY(mutex_);
};

} // namespace

int
main()
{
    Profiler profiler;
    profiler.record("softsdv.step", 1.5);
    return profiler.peek("softsdv.step") > 0 ? 0 : 1;
}
