#include "util/args.hh"

#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "util/logging.hh"

namespace pvsim {

Args::Args(int argc, char **argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            options_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (arg.rfind("no-", 0) == 0) {
            options_[arg.substr(3)] = "false";
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            options_[arg] = argv[++i];
        } else {
            options_[arg] = "true";
        }
    }
}

std::map<std::string, std::string>::const_iterator
Args::find(const std::string &name) const
{
    read_.insert(name);
    return options_.find(name);
}

std::vector<std::string>
Args::unreadKeys() const
{
    std::vector<std::string> keys;
    for (const auto &kv : options_) {
        if (!read_.count(kv.first))
            keys.push_back(kv.first);
    }
    return keys;
}

void
Args::rejectUnread(const std::string &who) const
{
    const std::vector<std::string> unread = unreadKeys();
    if (unread.empty())
        return;
    std::cerr << (who.empty() ? program_ : who) << ": unknown option";
    for (const std::string &k : unread)
        std::cerr << " --" << k;
    std::cerr << "\n";
    std::exit(2);
}

std::string
Args::getString(const std::string &name, const std::string &def) const
{
    auto it = find(name);
    return it == options_.end() ? def : it->second;
}

int64_t
Args::getInt(const std::string &name, int64_t def) const
{
    auto it = find(name);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    errno = 0;
    int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
        fatal("option --%s expects an integer, got '%s'", name.c_str(),
              it->second.c_str());
    return v;
}

uint64_t
Args::getUint(const std::string &name, uint64_t def) const
{
    auto it = find(name);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    // strtoull reads "-5" as 2^64 - 5: no digit string with a '-' in
    // it is an unsigned integer.
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE ||
        it->second.find('-') != std::string::npos)
        fatal("option --%s expects an unsigned integer, got '%s'",
              name.c_str(), it->second.c_str());
    return v;
}

bool
Args::getBool(const std::string &name, bool def) const
{
    auto it = find(name);
    if (it == options_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("option --%s expects a boolean, got '%s'", name.c_str(),
          v.c_str());
}

} // namespace pvsim
