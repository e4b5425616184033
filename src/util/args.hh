/**
 * @file
 * Minimal command-line argument parser used by the bench harnesses
 * and examples. Supports --key=value, --key value and boolean flags
 * (--flag / --no-flag), with typed accessors and defaults. Numeric
 * accessors reject a value with trailing characters, and the parser
 * remembers which keys its accessors read, so a tool can fail on a
 * flag it never looks at (rejectUnread()).
 */

#ifndef PVSIM_UTIL_ARGS_HH
#define PVSIM_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pvsim {

/** Parsed view of argv with typed, defaulted accessors. */
class Args
{
  public:
    Args() = default;
    Args(int argc, char **argv);

    /** String value of --name, or def when absent. */
    std::string getString(const std::string &name,
                          const std::string &def = "") const;

    /** Integer value of --name, or def when absent. */
    int64_t getInt(const std::string &name, int64_t def = 0) const;

    /** Unsigned value of --name, or def when absent. */
    uint64_t getUint(const std::string &name, uint64_t def = 0) const;

    /**
     * Boolean flag: --name or --name=true|1|yes sets true,
     * --no-name or --name=false|0|no sets false.
     */
    bool getBool(const std::string &name, bool def = false) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The program name (argv[0]), empty if default-constructed. */
    const std::string &program() const { return program_; }

    /** Options given on the command line that no accessor has read
     *  so far, sorted. */
    std::vector<std::string> unreadKeys() const;

    /**
     * Exit with status 2, naming them on stderr, if any option is
     * still unread (a typo, a retired flag). Call once the tool has
     * read every option it takes.
     * @param who Message prefix; the program name when empty.
     */
    void rejectUnread(const std::string &who = "") const;

  private:
    /** options_ entry for name (end() when absent), marked read. */
    std::map<std::string, std::string>::const_iterator
    find(const std::string &name) const;

    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> read_;
};

} // namespace pvsim

#endif // PVSIM_UTIL_ARGS_HH
