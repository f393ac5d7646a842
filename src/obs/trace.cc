#include "obs/trace.h"

#include <cstdio>

namespace astream::obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSubmit:
      return "submit";
    case TraceEventKind::kChangelogFlush:
      return "changelog_flush";
    case TraceEventKind::kDeployAck:
      return "deploy_ack";
    case TraceEventKind::kFirstResult:
      return "first_result";
    case TraceEventKind::kCancel:
      return "cancel";
    case TraceEventKind::kCheckpoint:
      return "checkpoint";
    case TraceEventKind::kFinish:
      return "finish";
    case TraceEventKind::kFailureDetected:
      return "failure_detected";
    case TraceEventKind::kRecoveryStart:
      return "recovery_start";
    case TraceEventKind::kRecoveryDone:
      return "recovery_done";
    case TraceEventKind::kSpill:
      return "spill";
  }
  return "unknown";
}

TraceSink::TraceSink(bool enabled, size_t capacity)
    : enabled_(enabled),
      capacity_(capacity),
      epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceSink::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSink::Record(TraceEventKind kind, int64_t query, int64_t detail) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts_us = NowMicros();
  ev.query = query;
  ev.kind = kind;
  ev.detail = detail;
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(ev);
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

int64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string TraceSink::ToJsonLines() const {
  std::vector<TraceEvent> events = Events();
  std::string out;
  out.reserve(events.size() * 64);
  char line[160];
  for (const TraceEvent& ev : events) {
    std::snprintf(line, sizeof(line),
                  "{\"ts_us\":%lld,\"event\":\"%s\",\"query\":%lld,"
                  "\"detail\":%lld}\n",
                  static_cast<long long>(ev.ts_us),
                  TraceEventKindName(ev.kind),
                  static_cast<long long>(ev.query),
                  static_cast<long long>(ev.detail));
    out += line;
  }
  return out;
}

Status TraceSink::DumpTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path);
  }
  const std::string lines = ToJsonLines();
  const size_t written = std::fwrite(lines.data(), 1, lines.size(), f);
  std::fclose(f);
  if (written != lines.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace astream::obs
