#include "storage/run_file.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "common/lz.h"
#include "fault/injector.h"

namespace astream::storage {

namespace {

constexpr uint32_t kMagic = 0x4E525341;     // "ASRN"
constexpr uint32_t kEndMagic = 0x4153524E;  // "NRSA"
constexpr size_t kTailBytes = 24;           // offset + len + crc + magic
/// Decompressed-block sanity cap: blocks are block_bytes-ish (64 KiB
/// default) plus one entry; a claimed raw size past this is corruption,
/// not data — refuse before allocating.
constexpr uint32_t kMaxRawBlockBytes = 1u << 30;

}  // namespace

Status CheckStorageFault() {
  if (fault::FaultInjector* inj = fault::ActiveInjector()) {
    const fault::FaultDecision d =
        inj->Decide(fault::FaultPoint::kStorageWrite);
    if (d.action == fault::FaultAction::kThrow) {
      throw fault::InjectedFault("injected storage-write crash");
    }
    if (d.action == fault::FaultAction::kFail) {
      return Status::Internal("injected storage-write failure");
    }
  }
  return Status::OK();
}

Status BlockBuilder::Append(int64_t key, const void* payload, size_t size) {
  if (have_key_ && key < max_key_) {
    return Status::InvalidArgument(
        "run entries must be appended in key order");
  }
  if (!have_key_) {
    min_key_ = key;
    have_key_ = true;
  }
  max_key_ = key;
  if (block_entries_ == 0) block_min_key_ = key;
  block_max_key_ = key;

  const uint32_t entry_bytes = static_cast<uint32_t>(size + sizeof(int64_t));
  const size_t old = block_.size();
  block_.resize(old + sizeof(uint32_t) + entry_bytes);
  std::memcpy(block_.data() + old, &entry_bytes, sizeof(entry_bytes));
  std::memcpy(block_.data() + old + sizeof(uint32_t), &key, sizeof(key));
  std::memcpy(block_.data() + old + sizeof(uint32_t) + sizeof(key), payload,
              size);
  ++block_entries_;
  ++num_entries_;
  return Status::OK();
}

BlockFrame EncodeBlock(const std::vector<uint8_t>& block, bool compress,
                       std::vector<uint8_t>* scratch) {
  BlockFrame frame;
  const uint32_t raw_bytes = static_cast<uint32_t>(block.size());
  frame.header[0] = raw_bytes;
  frame.header[1] = raw_bytes;
  frame.payload = block.data();
  if (compress) {
    scratch->resize(LzMaxCompressedSize(block.size()));
    const size_t packed =
        LzCompress(block.data(), block.size(), scratch->data());
    // Keep the compressed form only when it actually shrinks; an
    // incompressible block is stored raw (stored == raw flags it).
    if (packed < block.size()) {
      frame.header[0] = static_cast<uint32_t>(packed);
      frame.payload = scratch->data();
    }
  }
  return frame;
}

Status BlockDecoder::CheckHeader(uint32_t stored_bytes, uint32_t raw_bytes) {
  if (stored_bytes > raw_bytes || raw_bytes > kMaxRawBlockBytes) {
    return Status::Internal("corrupt block header");
  }
  return Status::OK();
}

uint8_t* BlockDecoder::PayloadBuffer(uint32_t stored_bytes,
                                     uint32_t raw_bytes) {
  pos_ = 0;
  if (stored_bytes == raw_bytes) {
    block_.resize(raw_bytes);
    return block_.data();
  }
  block_.clear();
  scratch_.resize(stored_bytes);
  return scratch_.data();
}

Status BlockDecoder::Decode(uint32_t stored_bytes, uint32_t raw_bytes) {
  pos_ = 0;
  if (stored_bytes == raw_bytes) return Status::OK();
  block_.resize(raw_bytes);
  if (!LzDecompress(scratch_.data(), stored_bytes, block_.data(),
                    raw_bytes)) {
    block_.clear();
    return Status::Internal("compressed block corrupt");
  }
  return Status::OK();
}

Status BlockDecoder::NextKey(int64_t* key) {
  if (pos_ + sizeof(uint32_t) > block_.size()) {
    return Status::Internal("entry header overruns block");
  }
  uint32_t entry_bytes = 0;
  std::memcpy(&entry_bytes, block_.data() + pos_, sizeof(entry_bytes));
  pos_ += sizeof(uint32_t);
  if (entry_bytes < sizeof(int64_t) || pos_ + entry_bytes > block_.size()) {
    return Status::Internal("entry overruns block");
  }
  std::memcpy(key, block_.data() + pos_, sizeof(int64_t));
  payload_pos_ = pos_ + sizeof(int64_t);
  payload_bytes_ = entry_bytes - sizeof(int64_t);
  pos_ += entry_bytes;
  return Status::OK();
}

void BlockDecoder::Payload(std::vector<uint8_t>* payload) const {
  const uint8_t* p = block_.data() + payload_pos_;
  payload->assign(p, p + payload_bytes_);
}

Status BlockDecoder::Next(int64_t* key, std::vector<uint8_t>* payload) {
  ASTREAM_RETURN_IF_ERROR(NextKey(key));
  Payload(payload);
  return Status::OK();
}

uint32_t Crc32(uint32_t crc, const void* data, size_t size) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

RunWriter::RunWriter(std::string final_path, Options options)
    : final_path_(std::move(final_path)),
      tmp_path_(final_path_ + ".tmp"),
      options_(options) {
  if (options_.format_version != kRunFormatVersion &&
      options_.format_version != kRunFormatVersionV1) {
    status_ = Status::InvalidArgument("unknown run format version");
    return;
  }
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::Internal("cannot create run temp file: " + tmp_path_);
    return;
  }
  uint32_t header[2] = {kMagic, options_.format_version};
  status_ = WriteRaw(header, sizeof(header));
}

RunWriter::~RunWriter() {
  if (!finished_) Abort();
}

void RunWriter::Abort() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!finished_) std::remove(tmp_path_.c_str());
  finished_ = true;
}

Status RunWriter::WriteRaw(const void* data, size_t size) {
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::Internal("short write to " + tmp_path_);
  }
  crc_ = Crc32(crc_, data, size);
  file_offset_ += size;
  return Status::OK();
}

Status RunWriter::Append(int64_t key, const void* payload, size_t size) {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("writer finished");
  ASTREAM_RETURN_IF_ERROR(status_ = builder_.Append(key, payload, size));
  if (builder_.block().size() >= options_.block_bytes) {
    return status_ = FlushBlock();
  }
  return Status::OK();
}

Status RunWriter::FlushBlock() {
  const std::vector<uint8_t>& block = builder_.block();
  if (block.empty()) return Status::OK();
  ASTREAM_RETURN_IF_ERROR(CheckStorageFault());
  BlockIndex bi;
  bi.offset = file_offset_;
  bi.entries = builder_.block_entries();
  bi.min_key = builder_.block_min_key();
  bi.max_key = builder_.block_max_key();
  const uint32_t raw_bytes = static_cast<uint32_t>(block.size());
  raw_bytes_ += raw_bytes;
  if (options_.format_version == kRunFormatVersionV1) {
    ASTREAM_RETURN_IF_ERROR(WriteRaw(&raw_bytes, sizeof(raw_bytes)));
    ASTREAM_RETURN_IF_ERROR(WriteRaw(block.data(), block.size()));
  } else {
    const BlockFrame frame = EncodeBlock(block, options_.compress, &scratch_);
    ASTREAM_RETURN_IF_ERROR(WriteRaw(frame.header, sizeof(frame.header)));
    ASTREAM_RETURN_IF_ERROR(WriteRaw(frame.payload, frame.stored_bytes()));
  }
  index_.push_back(bi);
  builder_.ClearBlock();
  return Status::OK();
}

Result<RunInfo> RunWriter::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("writer finished");
  ASTREAM_RETURN_IF_ERROR(status_ = FlushBlock());
  ASTREAM_RETURN_IF_ERROR(status_ = CheckStorageFault());

  const uint64_t footer_offset = file_offset_;
  spe::StateWriter footer;
  footer.WriteU64(builder_.num_entries());
  footer.WriteU64(index_.size());
  for (const BlockIndex& bi : index_) {
    footer.WriteU64(bi.offset);
    footer.WriteU64(bi.entries);
    footer.WriteI64(bi.min_key);
    footer.WriteI64(bi.max_key);
  }
  if (options_.format_version >= kRunFormatVersion) {
    footer.WriteU64(raw_bytes_);
  }
  footer.WriteU64(meta_.size());
  footer.WriteBytes(meta_.data(), meta_.size());
  ASTREAM_RETURN_IF_ERROR(
      status_ = WriteRaw(footer.buffer().data(), footer.buffer().size()));

  const uint64_t footer_bytes = footer.buffer().size();
  const uint32_t crc = crc_;  // covers [0, footer end)
  uint8_t tail[kTailBytes];
  std::memcpy(tail, &footer_offset, 8);
  std::memcpy(tail + 8, &footer_bytes, 8);
  std::memcpy(tail + 16, &crc, 4);
  std::memcpy(tail + 20, &kEndMagic, 4);
  ASTREAM_RETURN_IF_ERROR(status_ = WriteRaw(tail, sizeof(tail)));

  if (std::fflush(file_) != 0) {
    return status_ = Status::Internal("fflush failed: " + tmp_path_);
  }
  if (options_.sync) fsync(fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    finished_ = true;
    return status_ = Status::Internal("rename failed: " + final_path_);
  }
  finished_ = true;

  RunInfo info;
  info.path = final_path_;
  info.file_bytes = file_offset_;
  info.raw_bytes = raw_bytes_;
  info.num_entries = builder_.num_entries();
  info.min_key = builder_.min_key();
  info.max_key = builder_.max_key();
  return info;
}

RunReader::~RunReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<RunReader>> RunReader::Open(const std::string& path,
                                                   bool verify_crc) {
  auto reader = std::unique_ptr<RunReader>(new RunReader());
  reader->file_ = std::fopen(path.c_str(), "rb");
  if (reader->file_ == nullptr) {
    return Status::NotFound("cannot open run file: " + path);
  }
  std::FILE* f = reader->file_;
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::Internal("seek failed: " + path);
  }
  const long end = std::ftell(f);
  if (end < 0 ||
      static_cast<size_t>(end) < 2 * sizeof(uint32_t) + kTailBytes) {
    return Status::Internal("run file truncated: " + path);
  }
  reader->file_bytes_ = static_cast<uint64_t>(end);

  uint8_t tail[kTailBytes];
  std::fseek(f, end - static_cast<long>(kTailBytes), SEEK_SET);
  if (std::fread(tail, 1, kTailBytes, f) != kTailBytes) {
    return Status::Internal("cannot read run tail: " + path);
  }
  uint64_t footer_offset = 0;
  uint64_t footer_bytes = 0;
  uint32_t crc = 0;
  uint32_t end_magic = 0;
  std::memcpy(&footer_offset, tail, 8);
  std::memcpy(&footer_bytes, tail + 8, 8);
  std::memcpy(&crc, tail + 16, 4);
  std::memcpy(&end_magic, tail + 20, 4);
  if (end_magic != kEndMagic ||
      footer_offset + footer_bytes + kTailBytes != reader->file_bytes_) {
    return Status::Internal("run file torn or corrupt (bad tail): " + path);
  }
  reader->footer_offset_ = footer_offset;

  std::fseek(f, 0, SEEK_SET);
  uint32_t header[2];
  if (std::fread(header, 1, sizeof(header), f) != sizeof(header) ||
      header[0] != kMagic) {
    return Status::Internal("run file has a bad header: " + path);
  }
  if (header[1] != kRunFormatVersion &&
      header[1] != kRunFormatVersionV1) {
    return Status::Internal("unsupported run format version: " + path);
  }
  reader->format_version_ = header[1];

  if (verify_crc) {
    std::fseek(f, 0, SEEK_SET);
    uint32_t actual = 0;
    std::vector<uint8_t> buf(64 * 1024);
    uint64_t left = footer_offset + footer_bytes;
    while (left > 0) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(left, buf.size()));
      if (std::fread(buf.data(), 1, want, f) != want) {
        return Status::Internal("short read verifying run: " + path);
      }
      actual = Crc32(actual, buf.data(), want);
      left -= want;
    }
    if (actual != crc) {
      return Status::Internal("run file CRC mismatch: " + path);
    }
  }

  std::fseek(f, static_cast<long>(footer_offset), SEEK_SET);
  std::vector<uint8_t> footer_buf(footer_bytes);
  if (std::fread(footer_buf.data(), 1, footer_bytes, f) != footer_bytes) {
    return Status::Internal("cannot read run footer: " + path);
  }
  spe::StateReader footer(footer_buf);
  reader->num_entries_ = footer.ReadU64();
  const uint64_t num_blocks = footer.ReadU64();
  for (uint64_t i = 0; i < num_blocks && footer.Ok(); ++i) {
    BlockIndex bi;
    bi.offset = footer.ReadU64();
    bi.entries = footer.ReadU64();
    footer.ReadI64();  // min_key (merge hints; unused by the scan)
    footer.ReadI64();  // max_key
    reader->blocks_.push_back(bi);
  }
  if (reader->format_version_ >= kRunFormatVersion) {
    reader->raw_bytes_ = footer.ReadU64();
  } else {
    // v1 stores blocks raw: consecutive index offsets recover each
    // block's exact stored (== raw) size without a scan.
    for (size_t i = 0; i < reader->blocks_.size(); ++i) {
      const uint64_t next = i + 1 < reader->blocks_.size()
                                ? reader->blocks_[i + 1].offset
                                : footer_offset;
      if (next >= reader->blocks_[i].offset + sizeof(uint32_t)) {
        reader->raw_bytes_ +=
            next - reader->blocks_[i].offset - sizeof(uint32_t);
      }
    }
  }
  const uint64_t meta_bytes = footer.ReadU64();
  if (!footer.Ok() || meta_bytes > footer_bytes) {
    return Status::Internal("run footer corrupt: " + path);
  }
  // The meta blob is the footer's raw-byte tail (WriteBytes is unframed).
  reader->meta_.assign(footer_buf.end() - static_cast<size_t>(meta_bytes),
                       footer_buf.end());
  // Position for the sequential scan.
  std::fseek(f, static_cast<long>(2 * sizeof(uint32_t)), SEEK_SET);
  return reader;
}

bool RunReader::LoadNextBlock() {
  if (next_block_ >= blocks_.size()) return false;
  const BlockIndex& bi = blocks_[next_block_++];
  std::fseek(file_, static_cast<long>(bi.offset), SEEK_SET);

  uint32_t stored_bytes = 0;
  uint32_t raw_bytes = 0;
  size_t header_bytes = 0;
  if (format_version_ == kRunFormatVersionV1) {
    header_bytes = sizeof(uint32_t);
    if (std::fread(&raw_bytes, 1, header_bytes, file_) != header_bytes) {
      status_ = Status::Internal("cannot read block header");
      return false;
    }
    stored_bytes = raw_bytes;
  } else {
    uint32_t hdr[2];  // [stored_bytes][raw_bytes]
    header_bytes = sizeof(hdr);
    if (std::fread(hdr, 1, header_bytes, file_) != header_bytes) {
      status_ = Status::Internal("cannot read block header");
      return false;
    }
    stored_bytes = hdr[0];
    raw_bytes = hdr[1];
    if (!BlockDecoder::CheckHeader(stored_bytes, raw_bytes).ok()) {
      status_ = Status::Internal("block overruns footer");
      return false;
    }
  }
  if (bi.offset + header_bytes + stored_bytes > footer_offset_) {
    status_ = Status::Internal("block overruns footer");
    return false;
  }
  uint8_t* payload = block_.PayloadBuffer(stored_bytes, raw_bytes);
  if (std::fread(payload, 1, stored_bytes, file_) != stored_bytes) {
    status_ = Status::Internal("short block read");
    return false;
  }
  status_ = block_.Decode(stored_bytes, raw_bytes);
  return status_.ok();
}

bool RunReader::Next(int64_t* key, std::vector<uint8_t>* payload) {
  if (!status_.ok()) return false;
  while (block_.AtEnd()) {
    if (!LoadNextBlock()) return false;
  }
  status_ = block_.Next(key, payload);
  return status_.ok();
}

}  // namespace astream::storage
