/**
 * @file
 * Thread-safety-analysis regression fixture: this file MUST NOT compile
 * under `clang++ -Wthread-safety -Werror=thread-safety-analysis`.
 *
 * It reads a GUARDED_BY field without holding the mutex -- the exact
 * bug class the annotations in src/obs/trace_session.hh exist to
 * reject. The ctest entry (see compile_fail/CMakeLists.txt) builds this
 * target with WILL_FAIL, so the analysis regressing to silence shows up
 * as a test failure, not a quiet loss of coverage.
 *
 * If this file ever starts compiling cleanly, the annotations have
 * stopped doing their job -- do not "fix" this file by adding a lock.
 */

#include <deque>
#include <string>

#include "base/annotations.hh"
#include "base/mutex.hh"

namespace {

// Shaped like TraceSession: a mutex-guarded container behind an
// accessor that is supposed to lock.
class Registry
{
  public:
    void add(const std::string& name)
    {
        cosim::LockGuard lock(mutex_);
        names_.push_back(name);
    }

    // BUG (deliberate): reads names_ without mutex_ held.
    std::size_t count() const { return names_.size(); }

  private:
    mutable cosim::Mutex mutex_;
    std::deque<std::string> names_ GUARDED_BY(mutex_);
};

} // namespace

int
main()
{
    Registry registry;
    registry.add("fsb.transactions");
    return registry.count() == 1 ? 0 : 1;
}
