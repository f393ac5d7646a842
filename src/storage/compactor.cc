#include "storage/compactor.h"

#include <chrono>
#include <utility>

#include "fault/injector.h"
#include "storage/merge.h"

namespace astream::storage {

namespace {

/// Raw (key, payload) entry of the opaque merge: compaction re-sequences
/// bytes, it never decodes store payloads — which is what makes one
/// compactor correct for slice, agg and cl runs alike.
struct RawEntry {
  int64_t key = 0;
  std::vector<uint8_t> payload;
};

Status CheckCompactionFault() {
  if (fault::FaultInjector* inj = fault::ActiveInjector()) {
    const fault::FaultDecision d =
        inj->Decide(fault::FaultPoint::kCompaction);
    if (d.action == fault::FaultAction::kThrow) {
      throw fault::InjectedFault("injected compaction crash");
    }
    if (d.action == fault::FaultAction::kFail) {
      return Status::Internal("injected compaction failure");
    }
  }
  return Status::OK();
}

}  // namespace

Compactor::Compactor(SpillSpace* space, Options options)
    : space_(space), options_(options) {}

Compactor::~Compactor() { Stop(); }

void Compactor::Start() {
  if (options_.sync || started_) return;
  started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void Compactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  started_ = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    // Anything still queued settles kFailed so owners drop their tickets.
    for (const CompactionTicketPtr& t : queue_) {
      t->state_.store(CompactionTicket::State::kFailed,
                      std::memory_order_release);
    }
    queue_.clear();
  }
}

CompactionTicketPtr Compactor::Submit(std::vector<SpilledRunPtr> inputs) {
  auto ticket = std::make_shared<CompactionTicket>();
  ticket->inputs_ = std::move(inputs);
  if (ticket->inputs_.size() < 2) {
    ticket->state_.store(CompactionTicket::State::kFailed,
                         std::memory_order_release);
    return ticket;
  }
  if (options_.sync) {
    Process(ticket.get());
    return ticket;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || !started_) {
      ticket->state_.store(CompactionTicket::State::kFailed,
                           std::memory_order_release);
      return ticket;
    }
    queue_.push_back(ticket);
  }
  cv_.notify_one();
  return ticket;
}

void Compactor::WorkerLoop() {
  for (;;) {
    CompactionTicketPtr ticket;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue
      ticket = std::move(queue_.front());
      queue_.pop_front();
    }
    Process(ticket.get());
  }
}

void Compactor::Process(CompactionTicket* ticket) {
  const auto t0 = std::chrono::steady_clock::now();
  bool ok = false;
  try {
    std::vector<std::unique_ptr<SpillReader>> readers;
    std::vector<KWayMerge<RawEntry>::Source> sources;
    readers.reserve(ticket->inputs_.size());
    for (const SpilledRunPtr& run : ticket->inputs_) {
      SpillReader* r =
          readers.emplace_back(std::make_unique<SpillReader>(run)).get();
      sources.push_back([r](RawEntry* out) {
        return r->Next(&out->key, &out->payload);
      });
    }
    SpillWriter writer(space_, SpillWriter::Kind::kCompaction);
    KWayMerge<RawEntry> merge(std::move(sources));
    RawEntry e;
    Status status = CheckCompactionFault();
    while (status.ok() && merge.Next(&e)) {
      status = writer.Append(e.key, e.payload.data(), e.payload.size());
    }
    if (status.ok()) status = CheckCompactionFault();
    if (status.ok()) {
      auto run = writer.Finish();
      if (run.ok()) {
        ticket->output_ = std::move(run).value();
        ok = true;
      }
    }
  } catch (const fault::InjectedFault&) {
    // Worker "crash": the output's extents die with the writer; inputs
    // were never touched. The owner simply keeps its existing runs.
  } catch (const SpillReadError&) {
    // An unreadable input: the fold fails with the inputs in place, and
    // the owner's own next read of that run fails its task.
  }
  const int64_t ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  total_ms_.fetch_add(ms, std::memory_order_relaxed);
  if (ok) {
    runs_compacted_.fetch_add(
        static_cast<int64_t>(ticket->inputs_.size()),
        std::memory_order_relaxed);
    ticket->state_.store(CompactionTicket::State::kDone,
                         std::memory_order_release);
  } else {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    ticket->state_.store(CompactionTicket::State::kFailed,
                         std::memory_order_release);
  }
}

}  // namespace astream::storage
