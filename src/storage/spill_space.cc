#include "storage/spill_space.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <system_error>

namespace astream::storage {

namespace fs = std::filesystem;

Result<std::unique_ptr<SegmentFile>> SegmentFile::Create(std::string path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) {
    return Status::Internal("cannot create segment file " + path + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<SegmentFile>(new SegmentFile(std::move(path), fd));
}

SegmentFile::~SegmentFile() { ::close(fd_); }

SegmentFile::Extent SegmentFile::Allocate(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_ += bytes;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < bytes) continue;
    const Extent extent{it->first, bytes};
    if (it->second == bytes) {
      free_.erase(it);
    } else {
      // The rest of the hole keeps its place in the offset order.
      auto node = free_.extract(it);
      node.key() += bytes;
      node.mapped() -= bytes;
      free_.insert(std::move(node));
    }
    return extent;
  }
  const Extent extent{used_, bytes};
  used_ += bytes;
  return extent;
}

void SegmentFile::Free(Extent extent) {
  if (extent.bytes == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  live_ -= extent.bytes;
  uint64_t offset = extent.offset;
  uint64_t bytes = extent.bytes;
  auto next = free_.lower_bound(offset);
  if (next != free_.end() && next->first == offset + bytes) {
    bytes += next->second;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      bytes += prev->second;
      free_.erase(prev);
    }
  }
  if (offset + bytes == used_) {
    used_ = offset;  // the tail hole shrinks the used space instead
    return;
  }
  free_.emplace_hint(next, offset, bytes);
}

Status SegmentFile::WriteFrame(uint64_t offset, const BlockFrame& frame) {
  iovec iov[2];
  iov[0].iov_base = const_cast<uint32_t*>(frame.header);
  iov[0].iov_len = BlockFrame::kHeaderBytes;
  iov[1].iov_base = const_cast<uint8_t*>(frame.payload);
  iov[1].iov_len = frame.stored_bytes();
  const ssize_t want =
      static_cast<ssize_t>(BlockFrame::kHeaderBytes + frame.stored_bytes());
  ssize_t n = 0;
  do {
    n = ::pwritev(fd_, iov, 2, static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  if (n != want) {
    return Status::Internal("segment write failed at offset " +
                            std::to_string(offset) + ": " +
                            (n < 0 ? std::strerror(errno) : "short write"));
  }
  return Status::OK();
}

Status SegmentFile::ReadFrame(uint64_t offset, uint32_t header[2],
                              uint8_t* payload,
                              uint32_t payload_bytes) const {
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = BlockFrame::kHeaderBytes;
  iov[1].iov_base = payload;
  iov[1].iov_len = payload_bytes;
  const ssize_t want =
      static_cast<ssize_t>(BlockFrame::kHeaderBytes + payload_bytes);
  ssize_t n = 0;
  do {
    n = ::preadv(fd_, iov, 2, static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  if (n != want) {
    return Status::Internal("segment read failed at offset " +
                            std::to_string(offset) + ": " +
                            (n < 0 ? std::strerror(errno) : "short read"));
  }
  return Status::OK();
}

uint64_t SegmentFile::live_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

uint64_t SegmentFile::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

size_t SegmentFile::free_extents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

SpilledRun::SpilledRun(SpillSpace* space, std::vector<Block> blocks)
    : space_(space), blocks_(std::move(blocks)) {
  for (const Block& b : blocks_) {
    bytes_ += b.extent_bytes();
    raw_bytes_ += b.raw_bytes;
    num_entries_ += b.entries;
  }
}

SpilledRun::~SpilledRun() { space_->OnRunReleased(*this); }

SpillWriter::SpillWriter(SpillSpace* space, Kind kind)
    : space_(space), kind_(kind), start_(std::chrono::steady_clock::now()) {}

SpillWriter::~SpillWriter() {
  if (!finished_) Abort();
}

void SpillWriter::Abort() {
  for (const SpilledRun::Block& b : blocks_) {
    space_->segment().Free({b.offset, b.extent_bytes()});
  }
  blocks_.clear();
  finished_ = true;
}

Status SpillWriter::Append(int64_t key, const void* payload, size_t size) {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("writer finished");
  ASTREAM_RETURN_IF_ERROR(status_ = builder_.Append(key, payload, size));
  if (builder_.block().size() >= space_->writer_options().block_bytes) {
    return status_ = FlushBlock();
  }
  return Status::OK();
}

Status SpillWriter::FlushBlock() {
  const std::vector<uint8_t>& block = builder_.block();
  if (block.empty()) return Status::OK();
  ASTREAM_RETURN_IF_ERROR(CheckStorageFault());
  const BlockFrame frame =
      EncodeBlock(block, space_->writer_options().compress, &scratch_);
  SpilledRun::Block b;
  b.stored_bytes = frame.stored_bytes();
  b.raw_bytes = frame.raw_bytes();
  b.entries = builder_.block_entries();
  b.min_key = builder_.block_min_key();
  b.max_key = builder_.block_max_key();
  b.offset = space_->segment().Allocate(b.extent_bytes()).offset;
  // Owned from here on: Abort frees the extent even if the write fails.
  blocks_.push_back(b);
  ASTREAM_RETURN_IF_ERROR(space_->segment().WriteFrame(b.offset, frame));
  builder_.ClearBlock();
  return Status::OK();
}

Result<SpilledRunPtr> SpillWriter::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("writer finished");
  ASTREAM_RETURN_IF_ERROR(status_ = FlushBlock());
  ASTREAM_RETURN_IF_ERROR(status_ = CheckStorageFault());
  finished_ = true;
  SpilledRunPtr run(new SpilledRun(space_, std::move(blocks_)));
  blocks_.clear();
  space_->OnRunCreated(*run, kind_,
                       std::chrono::steady_clock::now() - start_);
  return run;
}

SpillReader::SpillReader(SpilledRunPtr run) : run_(std::move(run)) {}

SpillReader::~SpillReader() {
  if (read_any_) run_->space_->OnReload(read_time_);
}

void SpillReader::SkipBlocksBelow(int64_t key) {
  const auto& blocks = run_->blocks();
  while (decoder_.AtEnd() && next_block_ < blocks.size() &&
         blocks[next_block_].max_key < key) {
    ++next_block_;
  }
}

void SpillReader::LoadBlock(const SpilledRun::Block& b) {
  const auto t0 = std::chrono::steady_clock::now();
  uint32_t header[2] = {0, 0};
  uint8_t* payload = decoder_.PayloadBuffer(b.stored_bytes, b.raw_bytes);
  Status s = run_->space_->segment().ReadFrame(b.offset, header, payload,
                                               b.stored_bytes);
  if (s.ok() && (header[0] != b.stored_bytes || header[1] != b.raw_bytes)) {
    s = Status::Internal("spilled block at offset " +
                         std::to_string(b.offset) +
                         " does not match its index");
  }
  if (s.ok()) s = decoder_.Decode(b.stored_bytes, b.raw_bytes);
  if (!s.ok()) throw SpillReadError(s.ToString());
  read_any_ = true;
  read_time_ += std::chrono::steady_clock::now() - t0;
}

bool SpillReader::NextKey(int64_t* key) {
  const auto& blocks = run_->blocks();
  while (decoder_.AtEnd()) {
    if (next_block_ >= blocks.size()) return false;
    LoadBlock(blocks[next_block_++]);
  }
  const Status s = decoder_.NextKey(key);
  if (!s.ok()) throw SpillReadError(s.ToString());
  return true;
}

bool SpillReader::Next(int64_t* key, std::vector<uint8_t>* payload) {
  if (!NextKey(key)) return false;
  Payload(payload);
  return true;
}

SpillSpace::SpillSpace(std::string dir, std::unique_ptr<SegmentFile> segment)
    : dir_(std::move(dir)), segment_(std::move(segment)) {}

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
  // A private subdirectory even under an explicit dir: engines sharing one
  // dir (the shards of a deployment) each get their own segment.
  std::string tmpl = (parent / "astream-spill-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    return Status::Internal("cannot create spill dir under " +
                            parent.string());
  }
  auto segment = SegmentFile::Create(tmpl + "/segment");
  if (!segment.ok()) {
    fs::remove_all(tmpl, ec);
    return segment.status();
  }
  return std::unique_ptr<SpillSpace>(
      new SpillSpace(std::move(tmpl), std::move(segment).value()));
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
    h_spill_us_ = metrics->GetHistogram("storage.spill_us");
    h_reload_ms_ = metrics->GetHistogram("storage.reload_ms");
    h_reload_us_ = metrics->GetHistogram("storage.reload_us");
  }
}

namespace {

void RecordElapsed(obs::Histogram* ms, obs::Histogram* us,
                   std::chrono::steady_clock::duration elapsed) {
  using std::chrono::duration_cast;
  if (ms != nullptr) {
    ms->Record(duration_cast<std::chrono::milliseconds>(elapsed).count());
  }
  if (us != nullptr) {
    us->Record(duration_cast<std::chrono::microseconds>(elapsed).count());
  }
}

}  // namespace

void SpillSpace::OnRunCreated(const SpilledRun& run, SpillWriter::Kind kind,
                              std::chrono::steady_clock::duration elapsed) {
  const auto bytes = static_cast<int64_t>(run.bytes());
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  PublishGauges();
  if (kind == SpillWriter::Kind::kCompaction) return;
  total_spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  total_spill_raw_bytes_.fetch_add(static_cast<int64_t>(run.raw_bytes()),
                                   std::memory_order_relaxed);
  RecordElapsed(h_spill_ms_, h_spill_us_, elapsed);
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEventKind::kSpill, -1, bytes);
  }
}

void SpillSpace::OnRunReleased(const SpilledRun& run) {
  for (const SpilledRun::Block& b : run.blocks()) {
    segment_->Free({b.offset, b.extent_bytes()});
  }
  spill_bytes_.fetch_sub(static_cast<int64_t>(run.bytes()),
                         std::memory_order_relaxed);
  num_runs_.fetch_sub(1, std::memory_order_relaxed);
  PublishGauges();
}

void SpillSpace::OnReload(std::chrono::steady_clock::duration elapsed) {
  RecordElapsed(h_reload_ms_, h_reload_us_, elapsed);
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
