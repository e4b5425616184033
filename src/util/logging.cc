#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace pvsim {

namespace {

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
panicAssert(const char *cond, const char *file, int line,
            const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d: ",
                 cond, file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

} // namespace pvsim
