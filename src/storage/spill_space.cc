#include "storage/spill_space.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace astream::storage {

namespace fs = std::filesystem;

SpilledRun::SpilledRun(SpillSpace* space, RunInfo info)
    : space_(space), info_(std::move(info)) {}

SpilledRun::~SpilledRun() {
  std::remove(info_.path.c_str());
  if (space_ != nullptr) space_->OnRunDeleted(info_);
}

Result<std::unique_ptr<RunReader>> SpilledRun::OpenReader() const {
  const auto t0 = std::chrono::steady_clock::now();
  auto reader = RunReader::Open(info_.path, /*verify_crc=*/false);
  if (reader.ok() && space_ != nullptr) {
    const int64_t ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    space_->OnReload(static_cast<int64_t>(info_.file_bytes), ms);
  }
  return reader;
}

SpillSpace::SpillSpace(std::string dir) : dir_(std::move(dir)) {}

Result<std::unique_ptr<SpillSpace>> SpillSpace::Create(
    const std::string& dir) {
  std::error_code ec;
  fs::path parent;
  if (!dir.empty()) {
    parent = dir;
    fs::create_directories(parent, ec);
    if (ec) {
      return Status::Internal("cannot create spill dir: " + dir + ": " +
                              ec.message());
    }
  } else {
    parent = fs::temp_directory_path(ec);
    if (ec) parent = "/tmp";
  }
  // A private subdirectory even under an explicit dir: every engine's run
  // counter starts at 0, so engines sharing one dir (the shards of a
  // deployment) would otherwise overwrite each other's run files.
  std::string tmpl = (parent / "astream-spill-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    return Status::Internal("cannot create spill dir under " +
                            parent.string());
  }
  return std::unique_ptr<SpillSpace>(new SpillSpace(tmpl));
}

SpillSpace::~SpillSpace() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

void SpillSpace::BindObs(obs::MetricsRegistry* metrics,
                         obs::TraceSink* trace) {
  trace_ = trace;
  if (metrics != nullptr) {
    g_spill_bytes_ = metrics->GetGauge("storage.spill_bytes");
    g_runs_ = metrics->GetGauge("storage.runs");
    h_spill_ms_ = metrics->GetHistogram("storage.spill_ms");
    h_reload_ms_ = metrics->GetHistogram("storage.reload_ms");
  }
}

std::string SpillSpace::NextRunPath(const std::string& kind) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return dir_ + "/" + kind + "-" + std::to_string(id) + ".run";
}

SpilledRunPtr SpillSpace::Adopt(RunInfo info, int64_t elapsed_ms) {
  spill_bytes_.fetch_add(static_cast<int64_t>(info.file_bytes),
                         std::memory_order_relaxed);
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  total_spill_bytes_.fetch_add(static_cast<int64_t>(info.file_bytes),
                               std::memory_order_relaxed);
  total_spill_raw_bytes_.fetch_add(static_cast<int64_t>(info.raw_bytes),
                                   std::memory_order_relaxed);
  PublishGauges();
  if (h_spill_ms_ != nullptr) h_spill_ms_->Record(elapsed_ms);
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEventKind::kSpill, -1,
                   static_cast<int64_t>(info.file_bytes));
  }
  return std::make_shared<const SpilledRun>(this, std::move(info));
}

SpilledRunPtr SpillSpace::AdoptCompacted(RunInfo info) {
  spill_bytes_.fetch_add(static_cast<int64_t>(info.file_bytes),
                         std::memory_order_relaxed);
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  PublishGauges();
  return std::make_shared<const SpilledRun>(this, std::move(info));
}

void SpillSpace::OnRunDeleted(const RunInfo& info) {
  spill_bytes_.fetch_sub(static_cast<int64_t>(info.file_bytes),
                         std::memory_order_relaxed);
  num_runs_.fetch_sub(1, std::memory_order_relaxed);
  PublishGauges();
}

void SpillSpace::OnReload(int64_t bytes, int64_t elapsed_ms) {
  total_reload_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (h_reload_ms_ != nullptr) h_reload_ms_->Record(elapsed_ms);
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEventKind::kReload, -1, bytes);
  }
}

void SpillSpace::PublishGauges() const {
  if (g_spill_bytes_ != nullptr) {
    g_spill_bytes_->Set(spill_bytes_.load(std::memory_order_relaxed));
  }
  if (g_runs_ != nullptr) {
    g_runs_->Set(num_runs_.load(std::memory_order_relaxed));
  }
}

}  // namespace astream::storage
