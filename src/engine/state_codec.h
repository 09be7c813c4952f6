#ifndef SASE_ENGINE_STATE_CODEC_H_
#define SASE_ENGINE_STATE_CODEC_H_

#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "util/status.h"

namespace sase {

/// Line-oriented writer for operator-state serialization (checkpoint
/// snapshots, see docs/recovery.md). State is a sequence of
/// `TAG f0|f1|...` lines using the shared field grammar of the database
/// dump (util EscapeField / EncodeValue).
///
/// Events are written once into a per-payload event table (`E` lines) and
/// referenced by index everywhere else, so an event shared by several
/// stacks, negation buffers and parked matches round-trips as one shared
/// object.
class StateWriter {
 public:
  explicit StateWriter(std::ostream* out) : out_(out) {}

  /// Begins a line: writes `tag` + space, returns the stream for the
  /// '|'-separated fields. Finish with EndLine().
  std::ostream& Line(const char* tag);
  void EndLine();

  /// Field text referencing `event` through the event table ("~" for
  /// null); emits the event's `E` line on first reference.
  std::string Ref(const EventPtr& event);

 private:
  std::ostream* out_;
  std::unordered_map<const Event*, uint64_t> refs_;
};

/// Reader counterpart: iterates the `TAG fields` lines of one payload,
/// decoding event-table lines transparently and handing every other line
/// to the caller as (tag, fields).
class StateReader {
 public:
  explicit StateReader(std::istream* in) : in_(in) {}

  /// Advances to the next non-event-table line. Returns false at end of
  /// input or on a malformed event-table line (check status()).
  bool Next();

  const std::string& tag() const { return tag_; }
  size_t field_count() const { return fields_.size(); }

  // Typed field accessors; out-of-range or malformed fields are errors.
  Result<uint64_t> U64(size_t i) const;
  Result<int64_t> I64(size_t i) const;
  Result<Value> Val(size_t i) const;      // util DecodeValue grammar
  Result<EventPtr> Ev(size_t i) const;    // event-table reference; "~" = null
  Result<std::string> Raw(size_t i) const;  // field text, undecoded

  /// First event-table decode failure, if any (Next() returned false).
  const Status& status() const { return status_; }

  /// Error helper: "bad <what> line: <current line>".
  Status Malformed(const std::string& what) const;

 private:
  Status Field(size_t i, const std::string** out) const;

  std::istream* in_;
  std::string line_;
  std::string tag_;
  std::vector<std::string> fields_;
  std::vector<EventPtr> events_;
  Status status_;
};

}  // namespace sase

#endif  // SASE_ENGINE_STATE_CODEC_H_
