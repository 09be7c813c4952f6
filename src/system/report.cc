#include "system/report.h"

#include <cstdio>
#include <sstream>

namespace sase {

void ReportChannel::Append(std::string line) { Push(std::move(line)); }

void ReportChannel::AppendEvent(EventPtr event, const Catalog& catalog) {
  Push(EventLine{std::move(event), &catalog});
}

void ReportChannel::AppendRecord(std::shared_ptr<const OutputRecord> record,
                                 std::shared_ptr<const std::string> prefix) {
  Push(RecordLine{std::move(record), std::move(prefix)});
}

void ReportChannel::Push(Entry entry) {
  if (echo_) std::printf("[%s] %s\n", name_.c_str(), Render(entry).c_str());
  if (entries_.size() < kCapacity) {
    entries_.push_back(std::move(entry));
    return;
  }
  entries_[head_] = std::move(entry);
  head_ = (head_ + 1) % kCapacity;
  ++evicted_;
}

std::string ReportChannel::Render(const Entry& entry) {
  if (const auto* text = std::get_if<std::string>(&entry)) return *text;
  if (const auto* line = std::get_if<EventLine>(&entry)) {
    return line->event->ToString(*line->catalog);
  }
  const RecordLine& line = std::get<RecordLine>(entry);
  if (line.prefix == nullptr) return line.record->ToString();
  return *line.prefix + line.record->ToString();
}

std::vector<std::string> ReportChannel::lines() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) out.push_back(Render(At(i)));
  return out;
}

void ReportChannel::Clear() {
  entries_.clear();
  head_ = 0;
}

bool ReportChannel::Contains(const std::string& needle) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (Render(At(i)).find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string ReportChannel::ToString() const {
  std::ostringstream out;
  out << "=== " << name_ << " ===\n";
  for (size_t i = 0; i < entries_.size(); ++i) out << Render(At(i)) << "\n";
  return out.str();
}

ReportChannel& ReportBoard::Channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_.emplace(name, ReportChannel(name, echo_)).first;
  }
  return it->second;
}

const ReportChannel* ReportBoard::Find(const std::string& name) const {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

std::vector<std::string> ReportBoard::ChannelNames() const {
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) names.push_back(name);
  return names;
}

}  // namespace sase
