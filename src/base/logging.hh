/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform, debug.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits 1.
 * warn()   - something is suspicious but simulation continues.
 * inform() - plain status output.
 * debug()  - developer tracing; compiled out in release (NDEBUG) builds.
 *
 * Runtime verbosity: the COSIM_LOG environment variable ("debug", "info",
 * "warn", or "quiet") sets the minimum severity that reaches the handler;
 * the default is "info" (debug messages suppressed). Fatal and Panic are
 * never filtered. All levels go through the installable LogHandler, so
 * tests and embedding tools can capture everything.
 */

#ifndef COSIM_BASE_LOGGING_HH
#define COSIM_BASE_LOGGING_HH

#include <cstdarg>
#include <string>

namespace cosim {

/** Severity of a log message, least severe first. */
enum class LogLevel { Debug, Info, Warn, Fatal, Panic };

/**
 * Hook invoked for every log message. Tests install their own hook to
 * assert on emitted diagnostics; the default prints to stderr/stdout and,
 * for Fatal/Panic, terminates the process.
 */
using LogHandler = void (*)(LogLevel level, const std::string& msg);

/** Replace the process-wide log handler; returns the previous one. */
LogHandler setLogHandler(LogHandler handler);

/**
 * Minimum severity delivered to the handler. Initialized lazily from
 * COSIM_LOG ("debug" | "info" | "warn" | "quiet"); defaults to Info.
 */
LogLevel logVerbosity();

/** Override the verbosity (wins over COSIM_LOG); returns the previous. */
LogLevel setLogVerbosity(LogLevel level);

/**
 * Emit a formatted message at the given level (printf formatting).
 * Messages below logVerbosity() are dropped; Fatal/Panic never are.
 */
void logMessage(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Report an unrecoverable internal error and abort. */
[[noreturn]] void panicImpl(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatalImpl(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace cosim

#define panic(...) ::cosim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::cosim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::cosim::logMessage(::cosim::LogLevel::Warn, __VA_ARGS__)
#define inform(...) ::cosim::logMessage(::cosim::LogLevel::Info, __VA_ARGS__)

/**
 * Developer tracing. Compiled to nothing in release (NDEBUG) builds so
 * hot paths can debug() freely; in debug builds the message still only
 * reaches the handler when COSIM_LOG=debug (or setLogVerbosity(Debug)).
 */
#ifdef NDEBUG
#define debug(...)                                                           \
    do {                                                                     \
    } while (0)
#else
#define debug(...) ::cosim::logMessage(::cosim::LogLevel::Debug, __VA_ARGS__)
#endif

/** Assert a simulator invariant with a formatted explanation. */
#define panic_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            panic(__VA_ARGS__);                                              \
    } while (0)

/** Reject an invalid user configuration with a formatted explanation. */
#define fatal_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            fatal(__VA_ARGS__);                                              \
    } while (0)

#endif // COSIM_BASE_LOGGING_HH
