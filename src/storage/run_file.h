#ifndef ASTREAM_STORAGE_RUN_FILE_H_
#define ASTREAM_STORAGE_RUN_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spe/state.h"

namespace astream::storage {

/// Run-file format version (DESIGN.md §13). Version 2 adds per-block LZ
/// compression; the reader accepts both 1 and 2 (PR 5-era checkpoint and
/// shard-drain files must keep loading) and refuses anything else.
inline constexpr uint32_t kRunFormatVersion = 2;
inline constexpr uint32_t kRunFormatVersionV1 = 1;

/// Incremental CRC32 (IEEE 802.3 polynomial, table-driven). `crc` is the
/// running value (start from 0); feed chunks in file order.
uint32_t Crc32(uint32_t crc, const void* data, size_t size);

/// kStorageWrite hook shared by every block flush and finish of run files
/// and spill extents. kFail surfaces as an error Status (the caller keeps
/// its resident state); kThrow crashes the writing task mid-run.
Status CheckStorageFault();

/// One block of a run's entry stream as a writer fills it:
///   [u32 entry_bytes][i64 key][payload (entry_bytes-8)]*
/// plus the run-wide key order check and key range. Shared by run files
/// and spill extents, so both frame entries identically.
class BlockBuilder {
 public:
  /// Appends one entry. Keys must be non-decreasing across the whole run
  /// (merge iterators and the per-block index rely on it).
  Status Append(int64_t key, const void* payload, size_t size);

  /// The block filled so far and its entry count and key range.
  const std::vector<uint8_t>& block() const { return block_; }
  uint64_t block_entries() const { return block_entries_; }
  int64_t block_min_key() const { return block_min_key_; }
  int64_t block_max_key() const { return block_max_key_; }
  /// Starts the next block; the run totals carry on.
  void ClearBlock() {
    block_.clear();
    block_entries_ = 0;
  }

  uint64_t num_entries() const { return num_entries_; }
  int64_t min_key() const { return min_key_; }
  int64_t max_key() const { return max_key_; }

 private:
  std::vector<uint8_t> block_;
  uint64_t block_entries_ = 0;
  int64_t block_min_key_ = 0;
  int64_t block_max_key_ = 0;
  uint64_t num_entries_ = 0;
  int64_t min_key_ = 0;
  int64_t max_key_ = 0;
  bool have_key_ = false;
};

/// A v2 block frame `[u32 stored_bytes][u32 raw_bytes][payload]`.
/// stored == raw: the payload is the raw entry stream; stored < raw: the
/// stream LZ-compressed (common/lz.h). Incompressible blocks are stored
/// raw, so stored_bytes never exceeds raw_bytes.
struct BlockFrame {
  static constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);
  uint32_t header[2] = {0, 0};  // {stored_bytes, raw_bytes}
  const uint8_t* payload = nullptr;

  uint32_t stored_bytes() const { return header[0]; }
  uint32_t raw_bytes() const { return header[1]; }
};

/// Frames `block`: its payload points into `block` itself, or into
/// `scratch` when compression shrank it.
BlockFrame EncodeBlock(const std::vector<uint8_t>& block, bool compress,
                       std::vector<uint8_t>* scratch);

/// Read side of the block codec, shared by RunReader and spill scans:
/// holds one raw block and parses its entries with bounds checks.
class BlockDecoder {
 public:
  /// Rejects a frame header no writer produces (stored > raw, or a raw
  /// size past the sanity cap) before anything is allocated for it.
  static Status CheckHeader(uint32_t stored_bytes, uint32_t raw_bytes);

  /// Where a frame's `stored_bytes` of payload go: the block itself when
  /// the frame is raw, else a compressed scratch buffer. Call Decode once
  /// the bytes are in.
  uint8_t* PayloadBuffer(uint32_t stored_bytes, uint32_t raw_bytes);
  /// Turns the payload read into PayloadBuffer into the current block.
  Status Decode(uint32_t stored_bytes, uint32_t raw_bytes);

  /// True once every entry of the current block was returned.
  bool AtEnd() const { return pos_ >= block_.size(); }
  /// Steps over the next entry of the current block and returns its key;
  /// an error when the entry overruns the block. The payload stays in the
  /// block until Payload copies it, so a reader that only needs some
  /// entries copies nothing for the rest.
  Status NextKey(int64_t* key);
  /// The payload of the entry NextKey returned last.
  void Payload(std::vector<uint8_t>* payload) const;
  /// Next entry of the current block; an error when it overruns.
  Status Next(int64_t* key, std::vector<uint8_t>* payload);

 private:
  std::vector<uint8_t> block_;
  std::vector<uint8_t> scratch_;  // compressed bytes before decompression
  size_t pos_ = 0;
  size_t payload_pos_ = 0;  // the last NextKey entry's payload
  size_t payload_bytes_ = 0;
};

/// Immutable run file: the on-disk format of durable checkpoints and
/// shard-drain images. Spilled runs do not use it: they live as block
/// extents of one segment file per engine (spill_space.h), framed with the
/// same block codec but with no header, footer, CRC or rename, because
/// they never outlive the process that wrote them.
///
///   [u32 magic "ASRN"][u32 version]
///   v1 block*: [u32 block_bytes][entries...]
///   v2 block*: BlockFrame [u32 stored_bytes][u32 raw_bytes][payload]
///     entry stream: [u32 entry_bytes][i64 key][payload (entry_bytes-8)]*
///   footer (StateWriter-encoded): num_entries, num_blocks,
///     per block {file_offset, num_entries, min_key, max_key},
///     raw_payload_bytes (v2 only), meta blob
///   tail (fixed 24 bytes):
///     [u64 footer_offset][u64 footer_bytes][u32 crc][u32 end magic "NRSA"]
///
/// The CRC covers every byte before the tail; a torn write (crash mid-file)
/// fails either the end-magic, the footer bounds, or the CRC, and the file
/// is rejected wholesale — runs are atomic: written to `<path>.tmp` and
/// renamed into place only after a clean Finish().
struct RunInfo {
  std::string path;
  uint64_t file_bytes = 0;
  /// Uncompressed entry-stream bytes — the logical volume the file holds.
  /// file_bytes / raw_bytes is the on-disk compression ratio (~1 for v1).
  uint64_t raw_bytes = 0;
  uint64_t num_entries = 0;
  int64_t min_key = 0;
  int64_t max_key = 0;
};

class RunWriter {
 public:
  struct Options {
    size_t block_bytes = 64 * 1024;
    /// fsync before the atomic rename (durable checkpoints).
    bool sync = false;
    /// LZ-compress blocks (v2 only). Off = v2 layout with raw blocks.
    bool compress = true;
    /// Written format. kRunFormatVersionV1 reproduces PR 5 files byte for
    /// byte (backward-compat tests and mixed-version drains).
    uint32_t format_version = kRunFormatVersion;
  };

  /// Writes to `<final_path>.tmp`; Finish() renames to `final_path`.
  explicit RunWriter(std::string final_path)
      : RunWriter(std::move(final_path), Options()) {}
  RunWriter(std::string final_path, Options options);
  ~RunWriter();

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  /// Appends one entry. Keys must be non-decreasing (merge iterators and
  /// the per-block index rely on it).
  Status Append(int64_t key, const void* payload, size_t size);

  /// Opaque user metadata stored in the footer (e.g. checkpoint id and
  /// source offsets). Call any time before Finish().
  void SetMeta(std::vector<uint8_t> meta) { meta_ = std::move(meta); }

  /// Flushes, writes footer + CRC + tail, optionally fsyncs, and renames
  /// the temp file into place. The writer is dead afterwards.
  Result<RunInfo> Finish();

  /// Deletes the temp file (automatic on destruction if never finished).
  void Abort();

  uint64_t num_entries() const { return builder_.num_entries(); }

 private:
  Status FlushBlock();
  Status WriteRaw(const void* data, size_t size);

  std::string final_path_;
  std::string tmp_path_;
  Options options_;
  std::FILE* file_ = nullptr;
  bool finished_ = false;
  Status status_;

  BlockBuilder builder_;
  std::vector<uint8_t> scratch_;  // compression output, reused per block

  struct BlockIndex {
    uint64_t offset = 0;
    uint64_t entries = 0;
    int64_t min_key = 0;
    int64_t max_key = 0;
  };
  std::vector<BlockIndex> index_;
  std::vector<uint8_t> meta_;
  uint64_t file_offset_ = 0;
  uint32_t crc_ = 0;
  uint64_t raw_bytes_ = 0;
};

/// Sequential, block-buffered reader over one run (format v1 or v2).
/// Open() validates the tail, footer, version and (optionally) the
/// full-file CRC; a torn or corrupt file fails Open and is never
/// half-read. A v2 block that fails to decompress (possible only when CRC
/// verification was skipped) surfaces as an error Status mid-scan instead
/// of bad bytes. Memory: one (decompressed) block.
class RunReader {
 public:
  static Result<std::unique_ptr<RunReader>> Open(const std::string& path,
                                                 bool verify_crc = true);
  ~RunReader();

  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  /// Next entry in file (== key) order; false at the end or on error
  /// (check status()).
  bool Next(int64_t* key, std::vector<uint8_t>* payload);

  Status status() const { return status_; }
  uint64_t num_entries() const { return num_entries_; }
  const std::vector<uint8_t>& meta() const { return meta_; }
  uint64_t file_bytes() const { return file_bytes_; }
  /// Uncompressed entry-stream bytes (== payload volume for v1 files).
  uint64_t raw_bytes() const { return raw_bytes_; }
  uint32_t format_version() const { return format_version_; }

 private:
  RunReader() = default;
  bool LoadNextBlock();

  std::FILE* file_ = nullptr;
  uint64_t file_bytes_ = 0;
  uint64_t raw_bytes_ = 0;
  uint32_t format_version_ = 0;
  uint64_t footer_offset_ = 0;
  uint64_t num_entries_ = 0;
  std::vector<uint8_t> meta_;
  Status status_;

  struct BlockIndex {
    uint64_t offset = 0;
    uint64_t entries = 0;
  };
  std::vector<BlockIndex> blocks_;
  size_t next_block_ = 0;
  BlockDecoder block_;
};

}  // namespace astream::storage

#endif  // ASTREAM_STORAGE_RUN_FILE_H_
