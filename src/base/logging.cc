#include "base/logging.hh"

// This file IS the logging backend every other component is pointed
// at, so the stream writes live here by design.
// cosim-analyze: allow-file(no-printf)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace cosim {

namespace {

void
defaultHandler(LogLevel level, const std::string& msg)
{
    switch (level) {
      case LogLevel::Debug:
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
        break;
      case LogLevel::Info:
        std::fprintf(stdout, "info: %s\n", msg.c_str());
        break;
      case LogLevel::Warn:
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
        break;
      case LogLevel::Fatal:
        std::fprintf(stderr, "fatal: %s\n", msg.c_str());
        break;
      case LogLevel::Panic:
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
        break;
    }
}

LogHandler currentHandler = defaultHandler;

LogLevel
verbosityFromEnv()
{
    const char* env = std::getenv("COSIM_LOG");
    if (env == nullptr || *env == '\0')
        return LogLevel::Info;
    if (std::strcmp(env, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(env, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "quiet") == 0)
        return LogLevel::Fatal;
    std::fprintf(stderr,
                 "warn: unknown COSIM_LOG level '%s' "
                 "(want debug|info|warn|quiet); using info\n",
                 env);
    return LogLevel::Info;
}

LogLevel&
verbosity()
{
    static LogLevel level = verbosityFromEnv();
    return level;
}

std::string
vformat(const char* fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n <= 0)
        return std::string();
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

} // namespace

LogHandler
setLogHandler(LogHandler handler)
{
    LogHandler prev = currentHandler;
    currentHandler = handler ? handler : defaultHandler;
    return prev;
}

LogLevel
logVerbosity()
{
    return verbosity();
}

LogLevel
setLogVerbosity(LogLevel level)
{
    LogLevel prev = verbosity();
    verbosity() = level;
    return prev;
}

void
logMessage(LogLevel level, const char* fmt, ...)
{
    // Fatal/Panic always get through; everything else respects the
    // runtime verbosity floor.
    if (level < verbosity() && level < LogLevel::Fatal)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    currentHandler(level, msg);
}

void
panicImpl(const char* file, int line, const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    msg += " (" + std::string(file) + ":" + std::to_string(line) + ")";
    // A test-installed handler may throw to regain control; the default
    // handler returns, in which case we abort as gem5's panic() does.
    currentHandler(LogLevel::Panic, msg);
    std::abort();
}

void
fatalImpl(const char* file, int line, const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    msg += " (" + std::string(file) + ":" + std::to_string(line) + ")";
    currentHandler(LogLevel::Fatal, msg);
    std::exit(1);
}

} // namespace cosim
