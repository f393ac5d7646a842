#ifndef ASTREAM_STORAGE_SPILL_SPACE_H_
#define ASTREAM_STORAGE_SPILL_SPACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/run_file.h"

namespace astream::storage {

class SpillSpace;

/// Shared handle to one spilled run. Stores hold these by shared_ptr (a
/// merge iterator keeps its runs alive mid-scan even if the store evicts
/// the slice); the last release unlinks the file and retires the space's
/// accounting. Runs are immutable once created.
class SpilledRun {
 public:
  SpilledRun(SpillSpace* space, RunInfo info);
  ~SpilledRun();

  SpilledRun(const SpilledRun&) = delete;
  SpilledRun& operator=(const SpilledRun&) = delete;

  const RunInfo& info() const { return info_; }

  /// Opens a sequential reader. Skips CRC verification: the write path
  /// validated the bytes and the file never crossed a crash boundary
  /// (torn runs are rejected at creation, not at read).
  Result<std::unique_ptr<RunReader>> OpenReader() const;

 private:
  SpillSpace* space_;
  RunInfo info_;
};

using SpilledRunPtr = std::shared_ptr<const SpilledRun>;

/// One job's spill directory: hands out run paths, owns the directory's
/// lifetime (it is removed recursively on destruction), and funnels
/// spill/reload accounting into the obs layer. Thread-safe — operator
/// task threads spill concurrently.
class SpillSpace {
 public:
  /// Creates a private `astream-spill-XXXXXX` directory (mkdtemp) under
  /// `dir`, or under the system temp dir when `dir` is empty; `dir` itself
  /// is created if missing and left behind. Engines sharing one `dir`
  /// never share run files.
  static Result<std::unique_ptr<SpillSpace>> Create(const std::string& dir);
  ~SpillSpace();

  SpillSpace(const SpillSpace&) = delete;
  SpillSpace& operator=(const SpillSpace&) = delete;

  /// Wires gauges (`storage.spill_bytes`, `storage.runs`), latency
  /// histograms (`storage.spill_ms`, `storage.reload_ms`) and kSpill /
  /// kReload trace events. Either pointer may be null.
  void BindObs(obs::MetricsRegistry* metrics, obs::TraceSink* trace);

  /// Unique path for a new run; `kind` tags the filename for debugging
  /// ("slice", "cl", "ckpt").
  std::string NextRunPath(const std::string& kind);

  /// Run-file options every store in this space writes with — the job's
  /// single switch for format version and compression (bench legs and the
  /// v1-compat path flip it here, not per store).
  void SetWriterOptions(RunWriter::Options options) {
    writer_options_ = options;
  }
  const RunWriter::Options& writer_options() const { return writer_options_; }

  /// Wraps a freshly finished run in a shared handle and records the spill
  /// (bytes, latency, trace). `elapsed_ms` is the write duration.
  SpilledRunPtr Adopt(RunInfo info, int64_t elapsed_ms);

  /// Adopt for compaction outputs: live accounting only — no spill trace,
  /// latency sample, or cumulative spill volume (the data was already
  /// spilled once; compaction rewrites it).
  SpilledRunPtr AdoptCompacted(RunInfo info);

  const std::string& dir() const { return dir_; }
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  int64_t num_runs() const {
    return num_runs_.load(std::memory_order_relaxed);
  }
  /// Cumulative on-disk bytes ever spilled (monotone; unlike spill_bytes
  /// this never shrinks when runs retire) and their uncompressed size —
  /// the pair behind storage.compressed_ratio_bp and the bench's
  /// spill-volume comparison.
  int64_t total_spill_bytes() const {
    return total_spill_bytes_.load(std::memory_order_relaxed);
  }
  int64_t total_spill_raw_bytes() const {
    return total_spill_raw_bytes_.load(std::memory_order_relaxed);
  }
  /// Cumulative on-disk bytes re-read by reloads.
  int64_t total_reload_bytes() const {
    return total_reload_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class SpilledRun;

  explicit SpillSpace(std::string dir);
  void OnRunDeleted(const RunInfo& info);
  void OnReload(int64_t bytes, int64_t elapsed_ms);
  void PublishGauges() const;

  const std::string dir_;
  RunWriter::Options writer_options_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<int64_t> spill_bytes_{0};
  std::atomic<int64_t> num_runs_{0};
  std::atomic<int64_t> total_spill_bytes_{0};
  std::atomic<int64_t> total_spill_raw_bytes_{0};
  std::atomic<int64_t> total_reload_bytes_{0};

  obs::TraceSink* trace_ = nullptr;
  obs::Gauge* g_spill_bytes_ = nullptr;
  obs::Gauge* g_runs_ = nullptr;
  obs::Histogram* h_spill_ms_ = nullptr;
  obs::Histogram* h_reload_ms_ = nullptr;
};

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_SPILL_SPACE_H_
