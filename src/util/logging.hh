/**
 * @file
 * Minimal gem5-style status/error reporting: panic() for internal
 * invariant violations, fatal() for user configuration errors, warn() and
 * inform() for non-fatal console messages.
 */

#ifndef BVC_UTIL_LOGGING_HH_
#define BVC_UTIL_LOGGING_HH_

#include <string>

namespace bvc
{

/**
 * Report an internal simulator bug and abort. Use for conditions that can
 * never happen regardless of configuration (i.e., our bug, not the user's).
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user/configuration error and exit(1). Use when
 * the simulation cannot continue due to bad parameters.
 */
[[noreturn]] void fatal(const std::string &msg);

/** Print a warning about suspicious-but-survivable conditions. */
void warn(const std::string &msg);

/** Print an informational status message. */
void inform(const std::string &msg);

/**
 * Assert an internal invariant; panics with the given message on failure.
 * Unlike assert() this is active in release builds, because the property
 * tests rely on invariant checking under -O2. A literal message binds
 * here and is only turned into a std::string on failure, so a passing
 * check on a hot path costs no allocation.
 */
inline void
panicIf(bool condition, const char *msg)
{
    if (condition) [[unlikely]]
        panic(msg);
}

/** panicIf for a message built at the call site (concatenations). */
inline void
panicIf(bool condition, const std::string &msg)
{
    if (condition) [[unlikely]]
        panic(msg);
}

} // namespace bvc

#endif // BVC_UTIL_LOGGING_HH_
