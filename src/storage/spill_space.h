#ifndef ASTREAM_STORAGE_SPILL_SPACE_H_
#define ASTREAM_STORAGE_SPILL_SPACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/run_file.h"

namespace astream::storage {

class SpillSpace;

/// Thrown when a spilled run cannot be read back (a failed or short
/// `pread`, a damaged block frame, an entry that does not decode).
/// Spilled runs are live job state, so a failed read fails the task the
/// way an operator exception does — the threaded runner poisons and a
/// supervised job recovers by replay — instead of silently dropping
/// entries from a join, an aggregate or a checkpoint.
class SpillReadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One engine's spill file (DESIGN.md §10.1): every spilled run lives in
/// extents of it, written and read with positional I/O on one descriptor.
/// A thread-safe first-fit allocator hands out extents: freed extents
/// coalesce with their free neighbours, and a free extent that reaches
/// the end of the used space shrinks it, so the next allocation reuses
/// the lowest hole that fits before the file grows.
class SegmentFile {
 public:
  struct Extent {
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };

  /// Creates (exclusively) and opens `path`.
  static Result<std::unique_ptr<SegmentFile>> Create(std::string path);
  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// The lowest-offset free extent with room for `bytes`, else fresh
  /// space at the end of the used space.
  Extent Allocate(uint64_t bytes);
  void Free(Extent extent);

  /// Writes / reads one block frame: its 8-byte header and `payload_bytes`
  /// of payload, contiguous at `offset`, in one positional call. A short
  /// transfer is an error.
  Status WriteFrame(uint64_t offset, const BlockFrame& frame);
  Status ReadFrame(uint64_t offset, uint32_t header[2], uint8_t* payload,
                   uint32_t payload_bytes) const;

  const std::string& path() const { return path_; }
  /// Bytes in allocated extents.
  uint64_t live_bytes() const;
  /// One past the last allocated byte.
  uint64_t used_bytes() const;
  /// Number of free extents below used_bytes() (fragmentation).
  size_t free_extents() const;

 private:
  SegmentFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  const std::string path_;
  const int fd_;
  mutable std::mutex mutex_;
  std::map<uint64_t, uint64_t> free_;  // offset -> bytes, never adjacent
  uint64_t used_ = 0;
  uint64_t live_ = 0;
};

/// Shared handle to one spilled run: its block index lives here, in
/// memory, and its bytes in the space's segment file. Stores hold these by
/// shared_ptr (a merge iterator keeps its runs alive mid-scan even if the
/// store evicts the slice); the last release frees the run's extents.
/// Runs are immutable once created.
class SpilledRun {
 public:
  /// One block: its BlockFrame fills the extent
  /// [offset, offset + BlockFrame::kHeaderBytes + stored_bytes).
  struct Block {
    uint64_t offset = 0;
    uint32_t stored_bytes = 0;
    uint32_t raw_bytes = 0;
    uint64_t entries = 0;
    int64_t min_key = 0;
    int64_t max_key = 0;

    uint64_t extent_bytes() const {
      return BlockFrame::kHeaderBytes + stored_bytes;
    }
  };

  ~SpilledRun();

  SpilledRun(const SpilledRun&) = delete;
  SpilledRun& operator=(const SpilledRun&) = delete;

  const std::vector<Block>& blocks() const { return blocks_; }
  /// Bytes of the run's extents in the segment file.
  uint64_t bytes() const { return bytes_; }
  /// Uncompressed entry-stream bytes; bytes() / raw_bytes() is the
  /// on-disk compression ratio.
  uint64_t raw_bytes() const { return raw_bytes_; }
  uint64_t num_entries() const { return num_entries_; }

 private:
  friend class SpillWriter;
  friend class SpillReader;
  SpilledRun(SpillSpace* space, std::vector<Block> blocks);

  SpillSpace* const space_;
  const std::vector<Block> blocks_;
  uint64_t bytes_ = 0;
  uint64_t raw_bytes_ = 0;
  uint64_t num_entries_ = 0;
};

using SpilledRunPtr = std::shared_ptr<const SpilledRun>;

/// Writes one run block by block into segment extents. Holds at most one
/// block in memory; kStorageWrite fires at every block flush and at
/// Finish. A failed or abandoned writer frees every extent it wrote.
class SpillWriter {
 public:
  /// kSpill records a spill (bytes, latency since construction, trace);
  /// kCompaction only adds live accounting — the entries were already
  /// spilled once, compaction rewrites them.
  enum class Kind : uint8_t { kSpill, kCompaction };

  explicit SpillWriter(SpillSpace* space, Kind kind = Kind::kSpill);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends one entry; keys must be non-decreasing.
  Status Append(int64_t key, const void* payload, size_t size);
  /// Flushes the last block and hands the run to the space.
  Result<SpilledRunPtr> Finish();
  /// Frees the extents written so far (automatic on destruction if never
  /// finished).
  void Abort();

 private:
  Status FlushBlock();

  SpillSpace* const space_;
  const Kind kind_;
  const std::chrono::steady_clock::time_point start_;
  BlockBuilder builder_;
  std::vector<uint8_t> scratch_;  // compression output, reused per block
  std::vector<SpilledRun::Block> blocks_;
  Status status_;
  bool finished_ = false;
};

/// Sequential scan of one spilled run: one positional read per block,
/// nothing to open or parse. Any failure throws SpillReadError. The scan
/// counts as one reload (bytes read, time spent reading and decoding),
/// recorded when it is destroyed.
class SpillReader {
 public:
  explicit SpillReader(SpilledRunPtr run);
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  /// Next entry in key order; false at the end of the run.
  bool Next(int64_t* key, std::vector<uint8_t>* payload);
  /// Key-first step: the next entry's key, false at the end of the run.
  /// Its block is read and checked as by Next, but the payload is copied
  /// only if Payload is called before the next step.
  bool NextKey(int64_t* key);
  /// Copies the payload of the entry NextKey returned last.
  void Payload(std::vector<uint8_t>* payload) const {
    decoder_.Payload(payload);
  }
  /// Skips whole blocks whose keys all lie below `key` (not yet read).
  void SkipBlocksBelow(int64_t key);

 private:
  void LoadBlock(const SpilledRun::Block& block);

  const SpilledRunPtr run_;
  size_t next_block_ = 0;
  BlockDecoder decoder_;
  bool read_any_ = false;  // a scan that loaded no block is no reload
  std::chrono::steady_clock::duration read_time_{};
};

/// One job's spill space: a private directory holding one segment file,
/// both removed on destruction, plus the spill/reload accounting funneled
/// into the obs layer. Thread-safe — operator task threads and the
/// compaction worker spill, scan and release concurrently.
class SpillSpace {
 public:
  /// Block size and compression of every run written in one space.
  struct WriterOptions {
    size_t block_bytes = 64 * 1024;
    /// LZ-compress blocks. Off = raw blocks (the baseline leg of
    /// bench/micro_spill).
    bool compress = true;
  };

  /// Creates a private `astream-spill-XXXXXX` directory (mkdtemp) under
  /// `dir`, or under the system temp dir when `dir` is empty, and its
  /// segment file; `dir` itself is created if missing and left behind.
  /// Engines sharing one `dir` never share a segment.
  static Result<std::unique_ptr<SpillSpace>> Create(const std::string& dir);
  ~SpillSpace();

  SpillSpace(const SpillSpace&) = delete;
  SpillSpace& operator=(const SpillSpace&) = delete;

  /// Wires gauges (`storage.spill_bytes`, `storage.runs`), latency
  /// histograms (`storage.spill_{ms,us}`, `storage.reload_{ms,us}`) and
  /// kSpill trace events. Either pointer may be null. Reload scans are
  /// counted and timed in the histograms only: a job makes dozens per
  /// spill, so one trace event each would fill the sink.
  void BindObs(obs::MetricsRegistry* metrics, obs::TraceSink* trace);

  /// The job's single switch for block size and compression (bench legs
  /// flip it here, not per store).
  void SetWriterOptions(WriterOptions options) { writer_options_ = options; }
  const WriterOptions& writer_options() const { return writer_options_; }

  const std::string& dir() const { return dir_; }
  SegmentFile& segment() { return *segment_; }
  /// Bytes of the live runs' extents.
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  int64_t num_runs() const {
    return num_runs_.load(std::memory_order_relaxed);
  }
  /// Cumulative bytes ever spilled (monotone; unlike spill_bytes this
  /// never shrinks when runs retire) and their uncompressed size — the
  /// pair behind storage.compressed_ratio_bp and the bench's spill-volume
  /// comparison.
  int64_t total_spill_bytes() const {
    return total_spill_bytes_.load(std::memory_order_relaxed);
  }
  int64_t total_spill_raw_bytes() const {
    return total_spill_raw_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class SpilledRun;
  friend class SpillWriter;
  friend class SpillReader;

  SpillSpace(std::string dir, std::unique_ptr<SegmentFile> segment);
  void OnRunCreated(const SpilledRun& run, SpillWriter::Kind kind,
                    std::chrono::steady_clock::duration elapsed);
  void OnRunReleased(const SpilledRun& run);
  void OnReload(std::chrono::steady_clock::duration elapsed);
  void PublishGauges() const;

  const std::string dir_;
  const std::unique_ptr<SegmentFile> segment_;
  WriterOptions writer_options_;
  std::atomic<int64_t> spill_bytes_{0};
  std::atomic<int64_t> num_runs_{0};
  std::atomic<int64_t> total_spill_bytes_{0};
  std::atomic<int64_t> total_spill_raw_bytes_{0};

  obs::TraceSink* trace_ = nullptr;
  obs::Gauge* g_spill_bytes_ = nullptr;
  obs::Gauge* g_runs_ = nullptr;
  obs::Histogram* h_spill_ms_ = nullptr;
  obs::Histogram* h_spill_us_ = nullptr;
  obs::Histogram* h_reload_ms_ = nullptr;
  obs::Histogram* h_reload_us_ = nullptr;
};

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_SPILL_SPACE_H_
