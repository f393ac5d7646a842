// The spill segment store: one segment file per SpillSpace, runs written
// block by block into extents of it, a first-fit allocator that reuses and
// coalesces freed extents, and reads that fail loudly.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "storage/compactor.h"
#include "storage/run_file.h"
#include "storage/spill_space.h"

namespace astream::storage {
namespace {

using Extent = SegmentFile::Extent;

std::unique_ptr<SpillSpace> NewSpace(size_t block_bytes = 64 * 1024) {
  auto space = SpillSpace::Create("");
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  SpillSpace::WriterOptions wo;
  wo.block_bytes = block_bytes;
  space.value()->SetWriterOptions(wo);
  return std::move(space).value();
}

// Payload of entry `i` of run `run`: recognisable, partly compressible.
std::string Payload(uint64_t run, int64_t i, size_t size) {
  std::string p = "r" + std::to_string(run) + "e" + std::to_string(i) + ":";
  while (p.size() < size) {
    p.push_back(static_cast<char>('a' + (i + p.size()) % 7));
  }
  p.resize(size);
  return p;
}

SpilledRunPtr WriteRun(SpillSpace* space, uint64_t run, int64_t entries,
                       size_t payload_bytes) {
  SpillWriter writer(space);
  for (int64_t i = 0; i < entries; ++i) {
    const std::string p = Payload(run, i, payload_bytes);
    EXPECT_TRUE(writer.Append(i / 3, p.data(), p.size()).ok());
  }
  auto finished = writer.Finish();
  EXPECT_TRUE(finished.ok()) << finished.status().ToString();
  return finished.ok() ? std::move(finished).value() : nullptr;
}

// Reads `r` back and checks every entry against what WriteRun wrote.
void ExpectRun(const SpilledRunPtr& r, uint64_t run, int64_t entries,
               size_t payload_bytes) {
  SpillReader reader(r);
  int64_t key = 0;
  std::vector<uint8_t> payload;
  int64_t i = 0;
  while (reader.Next(&key, &payload)) {
    ASSERT_LT(i, entries);
    EXPECT_EQ(key, i / 3);
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              Payload(run, i, payload_bytes));
    ++i;
  }
  EXPECT_EQ(i, entries);
}

TEST(SegmentStoreTest, FreedExtentsAreReusedFirstFitAndCoalesce) {
  auto space = NewSpace();
  SegmentFile& seg = space->segment();
  std::vector<Extent> e;
  for (int i = 0; i < 5; ++i) e.push_back(seg.Allocate(100));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(e[i].offset, 100u * i);
  EXPECT_EQ(seg.used_bytes(), 500u);

  seg.Free(e[1]);  // holes [100,200) and [300,400)
  seg.Free(e[3]);
  EXPECT_EQ(seg.free_extents(), 2u);
  EXPECT_EQ(seg.live_bytes(), 300u);

  // First fit: the lowest hole that is large enough, its rest kept.
  const Extent a = seg.Allocate(50);
  EXPECT_EQ(a.offset, 100u);
  const Extent b = seg.Allocate(80);  // [150,200) is too small
  EXPECT_EQ(b.offset, 300u);
  const Extent c = seg.Allocate(200);  // no hole fits: the file grows
  EXPECT_EQ(c.offset, 500u);
  EXPECT_EQ(seg.used_bytes(), 700u);
  EXPECT_EQ(seg.free_extents(), 2u);  // [150,200) and [380,400)

  // Coalescing on both sides: freeing [200,300) joins [150,200), and
  // freeing [300,380) then bridges [150,300) with [380,400).
  seg.Free(e[2]);
  EXPECT_EQ(seg.free_extents(), 2u);
  seg.Free(b);
  EXPECT_EQ(seg.free_extents(), 1u);
  const Extent d = seg.Allocate(250);  // fits the merged [150,400)
  EXPECT_EQ(d.offset, 150u);
  seg.Free(d);

  // A hole that reaches the end of the used space shrinks it instead.
  seg.Free(c);
  EXPECT_EQ(seg.used_bytes(), 500u);
  seg.Free(e[4]);
  EXPECT_EQ(seg.used_bytes(), 150u);  // [150,500) was one hole
  seg.Free(a);
  seg.Free(e[0]);
  EXPECT_EQ(seg.used_bytes(), 0u);
  EXPECT_EQ(seg.free_extents(), 0u);
  EXPECT_EQ(seg.live_bytes(), 0u);
}

TEST(SegmentStoreTest, SpillBytesEqualLiveExtents) {
  auto space = NewSpace(/*block_bytes=*/512);
  obs::MetricsRegistry metrics;
  space->BindObs(&metrics, nullptr);
  const obs::Gauge* gauge = metrics.GetGauge("storage.spill_bytes");

  std::vector<SpilledRunPtr> runs;
  uint64_t sum = 0;
  for (uint64_t r = 0; r < 12; ++r) {
    // 1 to ~40 blocks per run, payloads of both kinds.
    runs.push_back(WriteRun(space.get(), r, 1 + 37 * static_cast<int64_t>(r),
                            r % 2 == 0 ? 24 : 160));
    sum += runs.back()->bytes();
    uint64_t blocks = 0;
    for (const auto& b : runs.back()->blocks()) blocks += b.extent_bytes();
    EXPECT_EQ(blocks, runs.back()->bytes());
  }
  EXPECT_GT(runs.back()->blocks().size(), 10u);
  EXPECT_EQ(space->segment().live_bytes(), sum);
  EXPECT_EQ(static_cast<uint64_t>(space->spill_bytes()), sum);
  EXPECT_EQ(gauge->Value(), space->spill_bytes());
  EXPECT_EQ(space->num_runs(), 12);

  // Release every other run; both counters follow.
  for (size_t i = 0; i < runs.size(); i += 2) {
    sum -= runs[i]->bytes();
    runs[i].reset();
  }
  EXPECT_EQ(space->segment().live_bytes(), sum);
  EXPECT_EQ(static_cast<uint64_t>(space->spill_bytes()), sum);
  EXPECT_EQ(gauge->Value(), space->spill_bytes());
  for (size_t i = 1; i < runs.size(); i += 2) {
    ExpectRun(runs[i], i, 1 + 37 * static_cast<int64_t>(i),
              i % 2 == 0 ? 24 : 160);
  }

  runs.clear();
  EXPECT_EQ(space->segment().live_bytes(), 0u);
  EXPECT_EQ(space->spill_bytes(), 0);
  EXPECT_EQ(space->segment().used_bytes(), 0u);
  EXPECT_EQ(space->num_runs(), 0);
}

// A long spill/expire churn with varied run sizes and out-of-order
// expiry: reuse keeps the file within 2x of the peak live bytes.
TEST(SegmentStoreTest, ChurnKeepsFileWithinTwiceThePeakLiveBytes) {
  auto space = NewSpace(/*block_bytes=*/4096);
  Rng rng(0x5E6);
  std::deque<SpilledRunPtr> live;
  uint64_t peak_live = 0;
  for (uint64_t r = 0; r < 4000; ++r) {
    live.push_back(WriteRun(space.get(), r, rng.UniformInt(1, 120),
                            static_cast<size_t>(rng.UniformInt(8, 200))));
    peak_live = std::max(peak_live, space->segment().live_bytes());
    // Expire mostly the oldest runs, sometimes a younger one, while the
    // live population drifts between ~8 and ~40 runs.
    const size_t cap = 8 + static_cast<size_t>((r / 500) % 5) * 8;
    while (live.size() > cap) {
      const int64_t last = static_cast<int64_t>(live.size()) - 1;
      const size_t victim =
          rng.Bernoulli(0.8) ? 0 : static_cast<size_t>(rng.UniformInt(0, last));
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  const uint64_t file_bytes =
      std::filesystem::file_size(space->segment().path());
  RecordProperty("peak_live_bytes", std::to_string(peak_live));
  RecordProperty("file_bytes", std::to_string(file_bytes));
  EXPECT_GT(peak_live, 0u);
  EXPECT_GE(file_bytes, space->segment().used_bytes());
  EXPECT_LE(file_bytes, 2 * peak_live)
      << "file " << file_bytes << " peak live " << peak_live;
  live.clear();
  EXPECT_EQ(space->segment().used_bytes(), 0u);
}

TEST(SegmentStoreTest, FailedMidRunBlockFreesEveryExtentOfThatRun) {
  auto space = NewSpace(/*block_bytes=*/256);
  const SpilledRunPtr kept = WriteRun(space.get(), 0, 40, 64);
  const uint64_t live_before = space->segment().live_bytes();

  fault::FaultInjector injector(3);
  fault::FaultInjector::Rule rule;
  rule.point = fault::FaultPoint::kStorageWrite;
  rule.action = fault::FaultAction::kFail;
  rule.after_hits = 3;  // the fourth block flush of the next run fails
  injector.AddRule(rule);
  {
    fault::ScopedFaultInjection scoped(&injector);
    SpillWriter writer(space.get());
    Status status;
    int64_t appended = 0;
    for (; appended < 1000 && status.ok(); ++appended) {
      const std::string p = Payload(1, appended, 64);
      status = writer.Append(appended, p.data(), p.size());
    }
    EXPECT_FALSE(status.ok());
    // Three blocks were written before the failure and are still owned
    // by the writer; Finish refuses, and destruction frees them.
    EXPECT_GT(space->segment().live_bytes(), live_before);
    EXPECT_FALSE(writer.Finish().ok());
  }
  EXPECT_EQ(injector.fires(fault::FaultPoint::kStorageWrite), 1);
  EXPECT_EQ(space->segment().live_bytes(), live_before);
  EXPECT_EQ(static_cast<uint64_t>(space->spill_bytes()), live_before);
  EXPECT_EQ(space->num_runs(), 1);
  ExpectRun(kept, 0, 40, 64);
}

// Spill extents and run files share one block codec: the extents of a
// spilled run are, byte for byte, the block frames a run file of the same
// entries holds between its 8-byte header and its footer — compressed
// frames and raw ones.
TEST(SegmentStoreTest, ExtentsHoldTheRunFileBlockFramesByteForByte) {
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string file =
      (std::filesystem::temp_directory_path() / "astream_segment_codec.run")
          .string();
  for (const bool compress : {true, false}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    auto space = NewSpace(/*block_bytes=*/512);
    SpillSpace::WriterOptions wo;
    wo.block_bytes = 512;
    wo.compress = compress;
    space->SetWriterOptions(wo);
    RunWriter::Options ro;
    ro.block_bytes = 512;
    ro.compress = compress;
    RunWriter file_writer(file, ro);
    SpillWriter spill_writer(space.get());
    for (int64_t i = 0; i < 300; ++i) {
      const std::string p = Payload(7, i, 40);
      ASSERT_TRUE(file_writer.Append(i / 2, p.data(), p.size()).ok());
      ASSERT_TRUE(spill_writer.Append(i / 2, p.data(), p.size()).ok());
    }
    auto info = file_writer.Finish();
    ASSERT_TRUE(info.ok());
    auto run = spill_writer.Finish();
    ASSERT_TRUE(run.ok());
    const SpilledRun& r = *run.value();
    EXPECT_EQ(r.raw_bytes(), info.value().raw_bytes);
    EXPECT_EQ(r.num_entries(), info.value().num_entries);
    ASSERT_GT(r.blocks().size(), 10u);

    const std::string run_file = slurp(file);
    const std::string segment = slurp(space->segment().path());
    std::string frames;
    for (const SpilledRun::Block& b : r.blocks()) {
      frames += segment.substr(b.offset, b.extent_bytes());
      EXPECT_EQ(b.stored_bytes < b.raw_bytes, compress);
    }
    EXPECT_EQ(frames.size(), r.bytes());
    ASSERT_GT(run_file.size(), 8 + frames.size() + 24);
    EXPECT_TRUE(run_file.compare(8, frames.size(), frames) == 0);
  }
  std::filesystem::remove(file);
}

// Damaged bytes and a truncated segment both fail the scan: a read never
// comes back short and silent.
TEST(SegmentStoreTest, DamagedOrTruncatedBlockThrowsOnRead) {
  auto space = NewSpace(/*block_bytes=*/512);
  const SpilledRunPtr run = WriteRun(space.get(), 0, 200, 48);
  ASSERT_GT(run->blocks().size(), 3u);
  const std::string path = space->segment().path();
  {
    // Flip the header of the third block: it no longer matches the index.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(run->blocks()[2].offset));
    const char junk[4] = {'\x7f', '\x7f', '\x7f', '\x7f'};
    f.write(junk, sizeof(junk));
  }
  {
    SpillReader reader(run);
    int64_t key = 0;
    std::vector<uint8_t> payload;
    int64_t read = 0;
    EXPECT_THROW(
        {
          while (reader.Next(&key, &payload)) ++read;
        },
        SpillReadError);
    EXPECT_EQ(read, static_cast<int64_t>(run->blocks()[0].entries +
                                         run->blocks()[1].entries));
  }
  std::filesystem::resize_file(path, run->blocks()[1].offset + 4);
  SpillReader reader(run);
  int64_t key = 0;
  std::vector<uint8_t> payload;
  EXPECT_THROW(
      {
        while (reader.Next(&key, &payload)) {
        }
      },
      SpillReadError);
}

// Four operator threads spill, scan and release their own runs while the
// compaction worker folds prefixes of them and the owners adopt the
// results — the segment's allocator and positional I/O are shared by all.
TEST(SegmentStoreTest, ConcurrentSpillScanReleaseWithCompactionWorker) {
  auto space = NewSpace(/*block_bytes=*/1024);
  Compactor::Options opts;
  opts.min_runs = 3;
  Compactor compactor(space.get(), opts);
  compactor.Start();

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A run's content is a pure function of its id, so any scan — of
      // a written or a compacted run — can be checked. A compacted run
      // holds its inputs' entries merged, so it is checked by count.
      struct Live {
        SpilledRunPtr run;
        uint64_t id;
        int64_t entries;
      };
      std::vector<Live> runs;
      CompactionTicketPtr ticket;
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int step = 0; step < 150; ++step) {
        const uint64_t id = static_cast<uint64_t>(t) * 1000 + step;
        const int64_t n = rng.UniformInt(1, 60);
        runs.push_back(Live{WriteRun(space.get(), id, n, 40), id, n});
        if (ticket != nullptr &&
            ticket->state() != CompactionTicket::State::kPending) {
          if (ticket->state() == CompactionTicket::State::kDone) {
            const size_t k = ticket->inputs().size();
            int64_t sum = 0;
            for (size_t i = 0; i < k; ++i) sum += runs[i].entries;
            runs.erase(runs.begin(), runs.begin() + static_cast<ptrdiff_t>(k));
            runs.insert(runs.begin(), Live{ticket->output(), UINT64_MAX, sum});
          }
          ticket.reset();
        }
        if (ticket == nullptr && runs.size() >= opts.min_runs) {
          std::vector<SpilledRunPtr> prefix;
          for (size_t i = 0; i < opts.min_runs; ++i) {
            prefix.push_back(runs[i].run);
          }
          ticket = compactor.Submit(std::move(prefix));
        }
        const Live& probe = runs[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(runs.size()) - 1))];
        SpillReader reader(probe.run);
        int64_t key = 0;
        int64_t count = 0;
        std::vector<uint8_t> payload;
        while (reader.Next(&key, &payload)) {
          if (probe.id != UINT64_MAX &&
              std::string(payload.begin(), payload.end()) !=
                  Payload(probe.id, count, 40)) {
            failures.fetch_add(1);
          }
          ++count;
        }
        if (count != probe.entries) failures.fetch_add(1);
        // Expire the newest run now and then, never a pending input.
        if (ticket == nullptr && runs.size() > 6) runs.pop_back();
      }
    });
  }
  for (auto& th : threads) th.join();
  compactor.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(compactor.runs_compacted(), 0);
  EXPECT_EQ(space->num_runs(), 0);
  EXPECT_EQ(space->spill_bytes(), 0);
  EXPECT_EQ(space->segment().live_bytes(), 0u);
  EXPECT_EQ(space->segment().used_bytes(), 0u);
}

}  // namespace
}  // namespace astream::storage
