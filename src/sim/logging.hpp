/**
 * @file
 * Error-reporting helpers in the gem5 idiom: panic() for internal bugs,
 * fatal() for unrecoverable user/configuration errors, warn()/inform() for
 * status messages. None of the message helpers stop the simulation.
 */

#ifndef BPD_SIM_LOGGING_HPP
#define BPD_SIM_LOGGING_HPP

#include <cstdarg>
#include <cstdio>
#include <string>

namespace bpd::sim {

/** printf-style formatting into a std::string. */
std::string strf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Abort with a message; for conditions that indicate a simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Exit(1) with a message; for user/configuration errors. */
[[noreturn]] void fatal(const std::string &msg);

/** Non-fatal warning about questionable behaviour. */
void warn(const std::string &msg);

/** Informational status message. */
void inform(const std::string &msg);

/** Enable or disable inform()/warn() output (tests silence it). */
void setVerbose(bool verbose);

/**
 * panic() when the condition holds. Literal messages bind to this
 * overload, so a passing check never builds a std::string.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

/** Formatted-message form: the caller has already built @p msg. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

} // namespace bpd::sim

#endif // BPD_SIM_LOGGING_HPP
