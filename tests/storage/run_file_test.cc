// Run-file format: round trips, multi-block layout, atomic temp-file
// rename, and — the property recovery depends on — wholesale rejection of
// torn or corrupted files by footer/CRC validation.

#include "storage/run_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"

namespace astream::storage {
namespace {

namespace fs = std::filesystem;

class RunFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("astream_run_file_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<uint8_t> Payload(int i, size_t size) {
  std::vector<uint8_t> p(size);
  for (size_t j = 0; j < size; ++j) {
    p[j] = static_cast<uint8_t>((i * 131 + j) & 0xFF);
  }
  return p;
}

TEST_F(RunFileTest, RoundTripWithMeta) {
  const std::string path = Path("basic.run");
  RunWriter writer(path);
  for (int i = 0; i < 100; ++i) {
    const auto payload = Payload(i, 16 + i % 7);
    ASSERT_TRUE(writer.Append(i * 3, payload.data(), payload.size()).ok());
  }
  writer.SetMeta({0xAB, 0xCD, 0xEF});
  auto info = writer.Finish();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_entries, 100u);
  EXPECT_EQ(info->min_key, 0);
  EXPECT_EQ(info->max_key, 297);
  EXPECT_EQ(info->path, path);
  EXPECT_GT(info->file_bytes, 0u);

  auto reader = RunReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_entries(), 100u);
  EXPECT_EQ((*reader)->meta(), (std::vector<uint8_t>{0xAB, 0xCD, 0xEF}));
  int64_t key = 0;
  std::vector<uint8_t> payload;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*reader)->Next(&key, &payload));
    EXPECT_EQ(key, i * 3);
    EXPECT_EQ(payload, Payload(i, 16 + i % 7));
  }
  EXPECT_FALSE((*reader)->Next(&key, &payload));
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(RunFileTest, MultiBlockKeepsOrderAcrossBlockBoundaries) {
  const std::string path = Path("blocks.run");
  RunWriter::Options options;
  options.block_bytes = 256;  // force many blocks
  RunWriter writer(path, options);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto payload = Payload(i, 40);
    ASSERT_TRUE(writer.Append(i, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  auto reader = RunReader::Open(path);
  ASSERT_TRUE(reader.ok());
  int64_t key = 0;
  std::vector<uint8_t> payload;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*reader)->Next(&key, &payload)) << "entry " << i;
    EXPECT_EQ(key, i);
    EXPECT_EQ(payload, Payload(i, 40));
  }
  EXPECT_FALSE((*reader)->Next(&key, &payload));
}

TEST_F(RunFileTest, FinishRenamesAtomicallyAndAbortCleansUp) {
  const std::string path = Path("atomic.run");
  {
    RunWriter writer(path);
    const auto payload = Payload(0, 8);
    ASSERT_TRUE(writer.Append(1, payload.data(), payload.size()).ok());
    // Before Finish only the temp file exists.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
  const std::string aborted = Path("aborted.run");
  {
    RunWriter writer(aborted);
    const auto payload = Payload(0, 8);
    ASSERT_TRUE(writer.Append(1, payload.data(), payload.size()).ok());
    writer.Abort();
  }
  EXPECT_FALSE(fs::exists(aborted));
  EXPECT_FALSE(fs::exists(aborted + ".tmp"));
}

TEST_F(RunFileTest, TornTailRejected) {
  const std::string path = Path("torn.run");
  RunWriter writer(path);
  for (int i = 0; i < 50; ++i) {
    const auto payload = Payload(i, 64);
    ASSERT_TRUE(writer.Append(i, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Truncate mid-footer: the file a crash between write and rename would
  // leave behind. Every truncation point must be rejected at Open.
  const auto full = fs::file_size(path);
  for (const uint64_t keep : {full - 1, full - 12, full - 25, full / 2,
                              static_cast<uint64_t>(10)}) {
    fs::resize_file(path, keep);
    auto reader = RunReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "truncated to " << keep << " bytes";
    // Restore for the next iteration.
    fs::remove(path);
    RunWriter rewrite(path);
    for (int i = 0; i < 50; ++i) {
      const auto payload = Payload(i, 64);
      ASSERT_TRUE(rewrite.Append(i, payload.data(), payload.size()).ok());
    }
    ASSERT_TRUE(rewrite.Finish().ok());
  }
}

TEST_F(RunFileTest, CrcCatchesBitFlips) {
  const std::string path = Path("corrupt.run");
  RunWriter writer(path);
  for (int i = 0; i < 50; ++i) {
    const auto payload = Payload(i, 64);
    ASSERT_TRUE(writer.Append(i, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Flip one payload byte in the middle of the file.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(fs::file_size(path) / 2),
                       SEEK_SET),
            0);
  const uint8_t flip = 0xFF;
  ASSERT_EQ(std::fwrite(&flip, 1, 1, f), 1u);
  std::fclose(f);

  auto verified = RunReader::Open(path, /*verify_crc=*/true);
  EXPECT_FALSE(verified.ok());
}

TEST_F(RunFileTest, GarbageFileRejected) {
  const std::string path = Path("garbage.run");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string junk(4096, 'x');
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);
  EXPECT_FALSE(RunReader::Open(path).ok());

  // Empty file too.
  const std::string empty = Path("empty.run");
  f = std::fopen(empty.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(RunReader::Open(empty).ok());
}

TEST_F(RunFileTest, InjectedWriteFailureSurfacesAsStatus) {
  fault::FaultInjector injector(7);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kStorageWrite;
  rule.action = fault::FaultAction::kFail;
  rule.max_fires = 0;  // every write fails
  injector.AddRule(rule);
  fault::ScopedFaultInjection scoped(&injector);

  const std::string path = Path("faulted.run");
  RunWriter writer(path);
  const auto payload = Payload(0, 32);
  Status st = writer.Append(1, payload.data(), payload.size());
  if (st.ok()) st = writer.Finish().status();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(fs::exists(path));  // never renamed into place
  EXPECT_GE(injector.fires(fault::FaultPoint::kStorageWrite), 1);
}

TEST_F(RunFileTest, InjectedCrashLeavesTornTempThatOpenRejects) {
  const std::string path = Path("crashed.run");
  fault::FaultInjector injector(11);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kStorageWrite;
  rule.action = fault::FaultAction::kThrow;
  rule.after_hits = 2;
  injector.AddRule(rule);
  const std::string torn = Path("torn-copy.run");
  bool have_torn = false;
  {
    fault::ScopedFaultInjection scoped(&injector);
    RunWriter::Options options;
    options.block_bytes = 128;  // many flushes -> many fault hits
    RunWriter writer(path, options);
    bool threw = false;
    try {
      for (int i = 0; i < 200; ++i) {
        const auto payload = Payload(i, 64);
        if (!writer.Append(i, payload.data(), payload.size()).ok()) break;
      }
      (void)writer.Finish();
    } catch (const fault::InjectedFault&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // Snapshot the torn temp file as a killed process would leave it,
    // before the writer's destructor cleans it up.
    if (fs::exists(path + ".tmp")) {
      fs::copy_file(path + ".tmp", torn);
      have_torn = true;
    }
  }
  EXPECT_FALSE(fs::exists(path));
  // The partial bytes of a mid-write crash must never validate.
  if (have_torn) {
    EXPECT_FALSE(RunReader::Open(torn).ok());
  }
}

TEST_F(RunFileTest, Crc32MatchesKnownVector) {
  // "123456789" -> 0xCBF43926 (IEEE CRC-32 check value).
  const char* data = "123456789";
  EXPECT_EQ(Crc32(0, data, 9), 0xCBF43926u);
}

// ---- format v2: compression + v1 backward compatibility ------------------

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

TEST_F(RunFileTest, V1WriterReproducesPr5LayoutByteExactly) {
  // Golden test for the backward-compat contract: a file written with
  // format_version=1 must be byte-identical to what the PR 5 writer
  // produced, and the v2 reader must open it. The expected image is
  // assembled by hand from the v1 spec.
  const std::string path = Path("v1.run");
  RunWriter::Options options;
  options.format_version = kRunFormatVersionV1;
  RunWriter writer(path, options);
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> entries;
  for (int i = 0; i < 20; ++i) {
    entries.emplace_back(i * 2, Payload(i, 24));
  }
  for (const auto& [key, payload] : entries) {
    ASSERT_TRUE(writer.Append(key, payload.data(), payload.size()).ok());
  }
  writer.SetMeta({0x42});
  auto info = writer.Finish();
  ASSERT_TRUE(info.ok());

  // Hand-built PR 5 image: header, one raw block, footer, tail.
  std::vector<uint8_t> expected;
  auto put = [&expected](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    expected.insert(expected.end(), b, b + n);
  };
  const uint32_t header[2] = {0x4E525341u, 1u};
  put(header, sizeof(header));
  std::vector<uint8_t> block;
  for (const auto& [key, payload] : entries) {
    const uint32_t entry_bytes =
        static_cast<uint32_t>(payload.size() + sizeof(int64_t));
    const auto* eb = reinterpret_cast<const uint8_t*>(&entry_bytes);
    block.insert(block.end(), eb, eb + 4);
    const auto* kb = reinterpret_cast<const uint8_t*>(&key);
    block.insert(block.end(), kb, kb + 8);
    block.insert(block.end(), payload.begin(), payload.end());
  }
  const uint32_t block_bytes = static_cast<uint32_t>(block.size());
  const uint64_t block_offset = expected.size();
  put(&block_bytes, 4);
  put(block.data(), block.size());
  const uint64_t footer_offset = expected.size();
  spe::StateWriter footer;
  footer.WriteU64(entries.size());
  footer.WriteU64(1);  // one block
  footer.WriteU64(block_offset);
  footer.WriteU64(entries.size());
  footer.WriteI64(0);
  footer.WriteI64(38);
  footer.WriteU64(1);  // meta size
  const uint8_t meta = 0x42;
  footer.WriteBytes(&meta, 1);
  put(footer.buffer().data(), footer.buffer().size());
  const uint64_t footer_bytes = footer.buffer().size();
  const uint32_t crc = Crc32(0, expected.data(), expected.size());
  const uint32_t end_magic = 0x4153524Eu;
  put(&footer_offset, 8);
  put(&footer_bytes, 8);
  put(&crc, 4);
  put(&end_magic, 4);

  EXPECT_EQ(FileBytes(path), expected);

  auto reader = RunReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->format_version(), kRunFormatVersionV1);
  EXPECT_EQ((*reader)->num_entries(), entries.size());
  EXPECT_EQ((*reader)->raw_bytes(), block.size());
  int64_t key = 0;
  std::vector<uint8_t> payload;
  for (const auto& [want_key, want_payload] : entries) {
    ASSERT_TRUE((*reader)->Next(&key, &payload));
    EXPECT_EQ(key, want_key);
    EXPECT_EQ(payload, want_payload);
  }
  EXPECT_FALSE((*reader)->Next(&key, &payload));
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(RunFileTest, CompressedRunShrinksAndRoundTrips) {
  // Wide redundant tuples (the workload shape): compression must cut the
  // file substantially while reading back identical entries, across
  // multiple blocks.
  auto write = [this](const std::string& name, bool compress) {
    RunWriter::Options options;
    options.block_bytes = 4096;
    options.compress = compress;
    RunWriter writer(Path(name), options);
    for (int i = 0; i < 2000; ++i) {
      std::vector<uint8_t> payload(120, 0);
      std::memcpy(payload.data(), &i, sizeof(i));  // rest stays zero-ish
      payload[60] = static_cast<uint8_t>(i % 5);
      EXPECT_TRUE(writer.Append(i / 4, payload.data(), payload.size()).ok());
    }
    auto info = writer.Finish();
    EXPECT_TRUE(info.ok());
    return *info;
  };
  const RunInfo packed = write("packed.run", true);
  const RunInfo raw = write("raw.run", false);
  EXPECT_EQ(packed.raw_bytes, raw.raw_bytes);
  EXPECT_LT(packed.file_bytes * 3, raw.file_bytes);

  auto reader = RunReader::Open(Path("packed.run"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->format_version(), kRunFormatVersion);
  EXPECT_EQ((*reader)->raw_bytes(), raw.raw_bytes);
  int64_t key = 0;
  std::vector<uint8_t> payload;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*reader)->Next(&key, &payload)) << "entry " << i;
    ASSERT_EQ(key, i / 4);
    int got = -1;
    std::memcpy(&got, payload.data(), sizeof(got));
    ASSERT_EQ(got, i);
  }
  EXPECT_FALSE((*reader)->Next(&key, &payload));
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(RunFileTest, IncompressibleBlocksStoredRawWithoutInflation) {
  const std::string path = Path("noise.run");
  RunWriter::Options options;
  options.block_bytes = 4096;
  RunWriter writer(path, options);
  uint64_t x = 0x243F6A8885A308D3ull;  // xorshift noise, incompressible
  uint64_t raw_total = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> payload(64);
    for (auto& b : payload) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<uint8_t>(x);
    }
    ASSERT_TRUE(writer.Append(i, payload.data(), payload.size()).ok());
    raw_total += payload.size() + 12;  // entry header + key
  }
  auto info = writer.Finish();
  ASSERT_TRUE(info.ok());
  // Raw fallback caps overhead at the 8-byte block headers + footer/tail.
  EXPECT_LT(info->file_bytes, raw_total + 1024);

  auto reader = RunReader::Open(path);
  ASSERT_TRUE(reader.ok());
  int64_t key = 0;
  std::vector<uint8_t> payload;
  size_t n = 0;
  while ((*reader)->Next(&key, &payload)) ++n;
  EXPECT_EQ(n, 500u);
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(RunFileTest, CorruptCompressedBlockFailsScanNotCrash) {
  // SpilledRun reads skip CRC verification for speed; a corrupt
  // compressed block must then surface as a scan error, never as bad
  // bytes or an overrun.
  const std::string path = Path("corrupt-block.run");
  RunWriter::Options options;
  options.block_bytes = 2048;
  RunWriter writer(path, options);
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> payload(80, static_cast<uint8_t>(i % 3));
    ASSERT_TRUE(writer.Append(i, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  const auto pristine = FileBytes(path);

  // Corrupt every byte of the first compressed block in turn (bounded set
  // of positions keeps runtime sane) — each variant must scan cleanly or
  // fail with a Status, and CRC verification must always catch it.
  for (size_t pos = 16; pos < 256; pos += 7) {
    auto bytes = pristine;
    bytes[pos] ^= 0x5A;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);

    EXPECT_FALSE(RunReader::Open(path, /*verify_crc=*/true).ok());
    auto reader = RunReader::Open(path, /*verify_crc=*/false);
    if (!reader.ok()) continue;  // header/footer fields hit — fine
    int64_t key = 0;
    std::vector<uint8_t> payload;
    size_t n = 0;
    while ((*reader)->Next(&key, &payload) && n <= 1000) ++n;
    if (!(*reader)->status().ok()) continue;  // rejected mid-scan — fine
    // A flip the codec cannot detect must at least keep the scan bounded.
    EXPECT_LE(n, 1000u);
  }
}

// Seeded fuzz over a compressed multi-block run with meta: random byte
// flips in the blocks, in the footer and tail, or anywhere, plus random
// truncations. A CRC-verified open rejects every variant with a Status;
// an unverified open fails with a Status, or its scan stops after a
// bounded number of entries (on a Status when the damage is detectable)
// — never a crash, a hang or an overrun.
TEST_F(RunFileTest, FuzzedBlocksAndFootersFailWithStatus) {
  const std::string path = Path("fuzz.run");
  RunWriter::Options options;
  options.block_bytes = 512;
  RunWriter writer(path, options);
  constexpr int kEntries = 400;
  for (int i = 0; i < kEntries; ++i) {
    std::vector<uint8_t> payload(24 + i % 40, static_cast<uint8_t>(i % 5));
    ASSERT_TRUE(writer.Append(i / 2, payload.data(), payload.size()).ok());
  }
  writer.SetMeta(std::vector<uint8_t>(40, 0x42));
  ASSERT_TRUE(writer.Finish().ok());
  const std::vector<uint8_t> pristine = FileBytes(path);
  // The tail starts with the footer offset (see RunReader::Open).
  uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, pristine.data() + pristine.size() - 24, 8);
  ASSERT_GT(footer_offset, 8u);
  ASSERT_LT(footer_offset, pristine.size());

  for (const uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<uint8_t> bytes = pristine;
      const uint64_t mode = rng.NextU64() % 4;
      if (mode != 3) {
        // 0: blocks, 1: footer + tail, 2: anywhere.
        const uint64_t lo = mode == 1 ? footer_offset : 0;
        const uint64_t hi = mode == 0 ? footer_offset : bytes.size();
        // Distinct positions, non-zero masks: the file really changes.
        std::set<uint64_t> at;
        const size_t flips = 1 + rng.NextU64() % 3;
        while (at.size() < flips) at.insert(lo + rng.NextU64() % (hi - lo));
        for (uint64_t pos : at) {
          bytes[pos] ^= static_cast<uint8_t>(1 + rng.NextU64() % 255);
        }
      } else {
        bytes.resize(rng.NextU64() % bytes.size());
      }
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);

      SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                   std::to_string(trial));
      EXPECT_FALSE(RunReader::Open(path, /*verify_crc=*/true).ok());
      auto reader = RunReader::Open(path, /*verify_crc=*/false);
      if (!reader.ok()) continue;
      int64_t key = 0;
      std::vector<uint8_t> payload;
      size_t n = 0;
      while ((*reader)->Next(&key, &payload)) {
        ASSERT_LE(++n, pristine.size());  // entries are >= 12 bytes each
      }
    }
  }
}

}  // namespace
}  // namespace astream::storage
