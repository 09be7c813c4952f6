#ifndef SASE_SYSTEM_REPORT_H_
#define SASE_SYSTEM_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/catalog.h"
#include "core/event.h"
#include "engine/match.h"

namespace sase {

/// One window of the demo UI, reduced to a text channel. Figure 3 shows
/// five windows ("Present Queries", "Cleaning and Association Layer
/// Output", "Database Report", "Stream Processor Output", "Message
/// Results"); the system writes the same intermediate results to these
/// channels, which tests assert on and examples print.
///
/// A window is a live view of the stream's tail, not its history: a channel
/// keeps its newest kCapacity entries in one ring and counts the ones it
/// evicts. Entries are kept as appended — plain text, a cleaned event, or a
/// delivered record that several channels share — and rendered to text only
/// when read (lines(), Contains(), ToString()), so the thread feeding the
/// stream never formats a line nobody reads. Echo mode still prints each
/// entry at append.
class ReportChannel {
 public:
  /// Entries a channel keeps; appending past it evicts the oldest.
  static constexpr size_t kCapacity = 4096;

  ReportChannel() = default;
  explicit ReportChannel(std::string name, bool echo = false)
      : name_(std::move(name)), echo_(echo) {}

  void Append(std::string line);
  /// A cleaned event, read as `event->ToString(catalog)`; `catalog` must
  /// outlive the entry.
  void AppendEvent(EventPtr event, const Catalog& catalog);
  /// A delivered record, read as `*prefix + record->ToString()` (no prefix
  /// when null). Channels showing the same record share one copy.
  void AppendRecord(std::shared_ptr<const OutputRecord> record,
                    std::shared_ptr<const std::string> prefix = nullptr);

  const std::string& name() const { return name_; }
  /// The held entries rendered, oldest first.
  std::vector<std::string> lines() const;
  size_t size() const { return entries_.size(); }
  /// Entries dropped so far to keep the newest kCapacity.
  uint64_t evicted() const { return evicted_; }
  /// Drops every held entry (and with it the events and records they
  /// share); the eviction count stays.
  void Clear();

  /// True if any line contains `needle`.
  bool Contains(const std::string& needle) const;

  /// The channel rendered with a header, for example programs.
  std::string ToString() const;

 private:
  struct EventLine {
    EventPtr event;
    const Catalog* catalog;
  };
  struct RecordLine {
    std::shared_ptr<const OutputRecord> record;
    std::shared_ptr<const std::string> prefix;
  };
  using Entry = std::variant<std::string, EventLine, RecordLine>;

  void Push(Entry entry);
  static std::string Render(const Entry& entry);
  /// The entry `i` places after the oldest one.
  const Entry& At(size_t i) const {
    return entries_[(head_ + i) % entries_.size()];
  }

  std::string name_;
  bool echo_ = false;
  /// Grows to kCapacity, then wraps: the oldest entry sits at `head_`.
  std::vector<Entry> entries_;
  size_t head_ = 0;
  uint64_t evicted_ = 0;
};

/// The set of UI windows.
class ReportBoard {
 public:
  explicit ReportBoard(bool echo = false) : echo_(echo) {}

  /// Returns (creating on first use) the named channel. The reference stays
  /// valid for the board's lifetime.
  ReportChannel& Channel(const std::string& name);
  const ReportChannel* Find(const std::string& name) const;

  std::vector<std::string> ChannelNames() const;

  /// Standard window names from Figure 3.
  static constexpr const char* kPresentQueries = "Present Queries";
  static constexpr const char* kCleaningOutput =
      "Cleaning and Association Layer Output";
  static constexpr const char* kDatabaseReport = "Database Report";
  static constexpr const char* kStreamOutput = "Stream Processor Output";
  static constexpr const char* kMessageResults = "Message Results";

 private:
  bool echo_;
  std::map<std::string, ReportChannel> channels_;
};

}  // namespace sase

#endif  // SASE_SYSTEM_REPORT_H_
