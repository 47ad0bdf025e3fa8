/**
 * @file
 * One process-wide monotonic host clock origin.
 *
 * Telemetry producers scattered across threads (trace sessions, the
 * sweep journal) all need timestamps that compare
 * against each other. Before this header each subsystem captured its
 * own steady_clock origin, so host spans and control-block tracks
 * could skew after a reset(). hostClockNowUs()
 * fixes the origin once, at first use, and never moves it: every
 * subsystem that stamps host time derives it from here, so timestamps
 * from different threads and different telemetry layers live on one
 * axis.
 *
 * Host-side observability only -- simulated time is unrelated and
 * comes from the DEX scheduler's cycle accounting.
 */

#ifndef COSIM_BASE_HOST_CLOCK_HH
#define COSIM_BASE_HOST_CLOCK_HH

#include <cstdint>

namespace cosim {

/**
 * Microseconds since the process-wide monotonic origin. The origin is
 * captured on the first call (returning 0) and is never reset;
 * subsequent calls are strictly non-decreasing. Thread-safe.
 */
std::uint64_t hostClockNowUs();

} // namespace cosim

#endif // COSIM_BASE_HOST_CLOCK_HH
