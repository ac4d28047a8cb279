// Per-core side logs for contention-free parallel replay.
//
// §3.1.3: "Rocksteady ... uses per-core side logs off of the target's main
// log. Each side log consists of independent segments of records; each core
// can replay records into its side log segments without interference. At the
// end of migration, each side log's segments are lazily replicated, and then
// the side log is committed into the main log by appending a small metadata
// record to the main log." Side logs also accumulate statistics locally and
// only merge them into the main log at commit.
#ifndef ROCKSTEADY_SRC_LOG_SIDE_LOG_H_
#define ROCKSTEADY_SRC_LOG_SIDE_LOG_H_

#include <memory>
#include <vector>

#include "src/log/log.h"

namespace rocksteady {

class SideLog {
 public:
  explicit SideLog(Log* parent) : parent_(parent) {}

  SideLog(const SideLog&) = delete;
  SideLog& operator=(const SideLog&) = delete;

  ~SideLog();

  // Appends a replayed entry byte for byte (Log::AppendSerialized).
  // References are immediately readable through the parent log (migrated
  // records serve reads before commit).
  Result<LogRef> AppendSerialized(const LogEntryView& entry);

  // Commits all segments into the parent log (appends the commit metadata
  // record). After this the side log is empty and reusable.
  void Commit();

  // Drops all uncommitted segments (aborted migration). Hash-table entries
  // pointing into them must have been removed by the caller.
  void Abort();

  // The end of the last segment ({0, 0} while empty), as Log::HeadPosition.
  LogPosition HeadPosition() const {
    if (segments_.empty()) {
      return {0, 0};
    }
    return {segments_.back()->id(), static_cast<uint32_t>(segments_.back()->used())};
  }

  size_t pending_bytes() const { return pending_bytes_; }
  size_t pending_entries() const { return pending_entries_; }
  const std::vector<std::unique_ptr<Segment>>& segments() const { return segments_; }

  // Invariants: pending counters match the segments' contents, every pending
  // segment is open, readable through the parent (migrated records must
  // serve reads before commit), and *absent* from the parent's durable
  // segment list (side-log data is invisible until commit, §3.1.3).
  void AuditInvariants(AuditReport* report) const;

 private:
  Log* parent_;
  std::vector<std::unique_ptr<Segment>> segments_;
  size_t pending_bytes_ = 0;
  size_t pending_entries_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_LOG_SIDE_LOG_H_
