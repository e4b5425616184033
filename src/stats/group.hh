/**
 * @file
 * Statistics group: a named container of Stats forming a hierarchy
 * mirroring the SimObject tree. Dumping a group emits
 * "group.subgroup.stat value # desc" lines.
 */

#ifndef PVSIM_STATS_GROUP_HH
#define PVSIM_STATS_GROUP_HH

#include <ostream>
#include <string>
#include <vector>

namespace pvsim {
namespace stats {

class Stat;

/** Node in the stats hierarchy; owns nothing, registers everything. */
class Group
{
  public:
    /**
     * @param parent Enclosing group, or nullptr for a root.
     * @param name   Component of the dotted dump prefix.
     */
    Group(Group *parent, const std::string &name);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Full dotted path from the root. */
    std::string path() const;

    /** Called by Stat's constructor. */
    void addStat(Stat *stat) { stats_.push_back(stat); }

    /** Recursively dump this group's stats, then the children's. */
    void dumpStats(std::ostream &os) const;

    /** Recursively reset. */
    void resetStats();

  private:
    void addChild(Group *child) { children_.push_back(child); }
    void removeChild(Group *child);

    Group *parent_;
    std::string name_;
    std::vector<Stat *> stats_;
    std::vector<Group *> children_;
};

} // namespace stats
} // namespace pvsim

#endif // PVSIM_STATS_GROUP_HH
