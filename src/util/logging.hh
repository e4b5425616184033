/**
 * @file
 * gem5-style error reporting: panic() for internal invariant
 * violations, fatal() for user/configuration errors.
 */

#ifndef PVSIM_UTIL_LOGGING_HH
#define PVSIM_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace pvsim {

/**
 * Report an internal simulator bug and abort. Use for conditions that
 * must never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user-caused error (bad configuration, invalid arguments)
 * and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Implementation detail of pv_assert. */
[[noreturn]] void panicAssert(const char *cond, const char *file,
                              int line, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** panic() if cond is false, with a printf-style explanation. */
#define pv_assert(cond, ...)                                           \
    do {                                                               \
        if (!(cond))                                                   \
            ::pvsim::panicAssert(#cond, __FILE__, __LINE__,            \
                                 __VA_ARGS__);                         \
    } while (0)

} // namespace pvsim

#endif // PVSIM_UTIL_LOGGING_HH
