// The run-file block codec: round trips across input shapes, compression
// on the redundant payloads it exists for, and — what torn-file recovery
// leans on — bounds-safe rejection of malformed streams.

#include "common/lz.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace astream {
namespace {

std::vector<uint8_t> Compress(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> out(LzMaxCompressedSize(raw.size()));
  out.resize(LzCompress(raw.data(), raw.size(), out.data()));
  return out;
}

void ExpectRoundTrip(const std::vector<uint8_t>& raw) {
  const std::vector<uint8_t> packed = Compress(raw);
  std::vector<uint8_t> back(raw.size());
  ASSERT_TRUE(
      LzDecompress(packed.data(), packed.size(), back.data(), raw.size()))
      << "raw size " << raw.size();
  EXPECT_EQ(back, raw);
}

TEST(LzCodecTest, RoundTripsAcrossShapes) {
  ExpectRoundTrip({});
  ExpectRoundTrip({42});
  ExpectRoundTrip({1, 2, 3, 4, 5, 6, 7});
  // All one byte: the degenerate overlapping-match run.
  ExpectRoundTrip(std::vector<uint8_t>(10000, 0xAB));
  // Short repeating period.
  std::vector<uint8_t> period;
  for (int i = 0; i < 5000; ++i) period.push_back(static_cast<uint8_t>(i % 5));
  ExpectRoundTrip(period);
  // Text-like redundancy.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "the quick brown fox jumps over the lazy dog; ";
  }
  ExpectRoundTrip(std::vector<uint8_t>(text.begin(), text.end()));
}

TEST(LzCodecTest, RoundTripsRandomAndMixedData) {
  Rng rng(7);
  for (const size_t size : {size_t{13}, size_t{255}, size_t{4096},
                            size_t{70000}}) {
    // Incompressible: uniform random bytes.
    std::vector<uint8_t> random(size);
    for (auto& b : random) b = static_cast<uint8_t>(rng.NextU64());
    ExpectRoundTrip(random);
    // Mixed: random chunks interleaved with runs (exercises both paths).
    std::vector<uint8_t> mixed;
    while (mixed.size() < size) {
      if (rng.NextU64() % 2 == 0) {
        mixed.insert(mixed.end(), 1 + rng.NextU64() % 64,
                     static_cast<uint8_t>(rng.NextU64()));
      } else {
        for (uint64_t i = 0, n = 1 + rng.NextU64() % 32; i < n; ++i) {
          mixed.push_back(static_cast<uint8_t>(rng.NextU64()));
        }
      }
    }
    ExpectRoundTrip(mixed);
  }
}

TEST(LzCodecTest, CompressesWideRedundantTuples) {
  // The micro_spill payload shape: 256 repeated 8-byte column values.
  std::vector<uint8_t> raw;
  for (int row = 0; row < 64; ++row) {
    for (int col = 0; col < 256; ++col) {
      int64_t v = row;  // every column of a row carries the same value
      const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
      raw.insert(raw.end(), p, p + 8);
    }
  }
  const std::vector<uint8_t> packed = Compress(raw);
  // The ISSUE's >= 3x byte-volume target starts here: the codec alone
  // must take several-fold out of wide redundant tuples.
  EXPECT_LT(packed.size() * 3, raw.size());
  std::vector<uint8_t> back(raw.size());
  ASSERT_TRUE(
      LzDecompress(packed.data(), packed.size(), back.data(), raw.size()));
  EXPECT_EQ(back, raw);
}

TEST(LzCodecTest, CompressedSizeNeverExceedsBound) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t size = rng.NextU64() % 3000;
    std::vector<uint8_t> raw(size);
    for (auto& b : raw) b = static_cast<uint8_t>(rng.NextU64() % 4);
    std::vector<uint8_t> out(LzMaxCompressedSize(size));
    const size_t packed = LzCompress(raw.data(), size, out.data());
    EXPECT_LE(packed, LzMaxCompressedSize(size));
  }
}

TEST(LzCodecTest, RejectsMalformedStreamsWithoutOverrun) {
  const std::vector<uint8_t> raw(1000, 7);
  const std::vector<uint8_t> packed = Compress(raw);
  std::vector<uint8_t> sink(raw.size());

  // Truncations at every prefix length must fail cleanly (a torn block).
  for (size_t keep = 0; keep < packed.size(); ++keep) {
    EXPECT_FALSE(LzDecompress(packed.data(), keep, sink.data(), raw.size()))
        << "prefix " << keep;
  }
  // Wrong declared raw size in both directions.
  std::vector<uint8_t> small(raw.size() - 1);
  EXPECT_FALSE(
      LzDecompress(packed.data(), packed.size(), small.data(), small.size()));
  std::vector<uint8_t> big(raw.size() + 1);
  EXPECT_FALSE(
      LzDecompress(packed.data(), packed.size(), big.data(), big.size()));

  // Random garbage streams: never crash, never write past `sink`.
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> junk(1 + rng.NextU64() % 200);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextU64());
    (void)LzDecompress(junk.data(), junk.size(), sink.data(), sink.size());
  }

  // Every single-byte corruption either fails or round-trips to the
  // declared size — it must never read/write out of bounds (ASan leg).
  for (size_t i = 0; i < packed.size(); ++i) {
    std::vector<uint8_t> bad = packed;
    bad[i] ^= 0x5A;
    (void)LzDecompress(bad.data(), bad.size(), sink.data(), sink.size());
  }
}

// Seeded fuzz over real compressed blocks: random byte flips, truncations
// and both together. Decompression may fail or fill the declared size,
// but never reads past the stream or writes past the output (the guard
// bytes after it stay intact; the ASan storage legs check the reads).
TEST(LzCodecTest, FuzzedBlocksNeverOverrun) {
  constexpr size_t kGuard = 64;
  constexpr uint8_t kCanary = 0xC3;
  for (const uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    Rng rng(seed);
    for (int shape = 0; shape < 4; ++shape) {
      const size_t size = 64 + rng.NextU64() % 4000;
      std::vector<uint8_t> raw(size);
      for (size_t i = 0; i < size; ++i) {
        switch (shape) {
          case 0:  // long runs
            raw[i] = static_cast<uint8_t>(i / 97);
            break;
          case 1:  // small alphabet
            raw[i] = static_cast<uint8_t>(rng.NextU64() % 4);
            break;
          case 2:  // repeated 12-byte tuples with a counter
            raw[i] = static_cast<uint8_t>(i % 12 == 0 ? i / 12 : i % 12);
            break;
          default:  // noise
            raw[i] = static_cast<uint8_t>(rng.NextU64());
        }
      }
      const std::vector<uint8_t> packed = Compress(raw);
      for (int trial = 0; trial < 500; ++trial) {
        std::vector<uint8_t> bad = packed;
        const uint64_t mode = rng.NextU64() % 3;
        if (mode != 1) {
          const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
          for (int f = 0; f < flips && !bad.empty(); ++f) {
            bad[rng.NextU64() % bad.size()] ^=
                static_cast<uint8_t>(1 + rng.NextU64() % 255);
          }
        }
        if (mode != 0) bad.resize(rng.NextU64() % (bad.size() + 1));
        std::vector<uint8_t> out(size + kGuard, kCanary);
        (void)LzDecompress(bad.data(), bad.size(), out.data(), size);
        for (size_t g = size; g < out.size(); ++g) {
          ASSERT_EQ(out[g], kCanary)
              << "seed " << seed << " shape " << shape << " trial " << trial;
        }
      }
    }
  }
}

}  // namespace
}  // namespace astream
