#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, a data-plane micro
# bench smoke run, then sanitizer builds — ThreadSanitizer over the
# concurrency-sensitive subset (threaded/batched equivalence, channels,
# the lock-free metrics/observability tests) and AddressSanitizer over
# the full suite (heap safety + leaks in the batch/overflow paths).
# Usage: scripts/verify.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
done

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== micro_channel: smoke (batching + ring-vs-mutex throughput) =="
cmake --build build -j --target micro_channel >/dev/null
./build/bench/micro_channel --benchmark_min_time=0.05 \
  --benchmark_filter='BM_ChannelTransfer/(1|64)$|BM_(Channel|Ring)Pipe/64$'

echo "== micro_row: smoke (CoW fan-out scaling) =="
cmake --build build -j --target micro_row >/dev/null
./build/bench/micro_row --benchmark_min_time=0.05 \
  --benchmark_filter='BM_RowFanoutShare/(8|64)$'

echo "== chaos: recovery equivalence across injector seeds =="
# Exactly-once under induced crashes + churn: per-query outputs must be
# byte-identical to the fault-free sync reference for every seed.
./build/tests/astream_tests --gtest_filter='Seeds/ChaosEquivalenceTest.*'

echo "== shard: routing, fan-out, N-shard equivalence, client facade =="
# The sharded router must be invisible to every query: merged outputs at
# N in {1,2,4} (and across live split/move resharding) byte-identical to
# the single-job sync reference; fan-out submit/cancel all-or-nothing.
./build/tests/astream_tests \
  --gtest_filter='SpscQueueTest.*:ShardPlanTest.*:ShardRouterTest.*:JobConfigTest.*:ClientTest.*:ShardEquivalenceTest.*:Shards/ShardCountEquivalenceTest.*'

echo "== shard: kill-one-shard chaos (exactly-once across shard crashes) =="
# A supervised shard killed mid-run (including mid-resharding, and on a
# three-stream multiway deployment) must recover from its durable
# checkpoint + source-log replay and the merged deployment output must
# still match the fault-free reference.
./build/tests/astream_tests --gtest_filter='Seeds/ShardKillChaosTest.*'

echo "== micro_shard: smoke (N-shard output-hash equivalence + live split) =="
# Exits nonzero if any sharded leg's output hash diverges from the
# single-job reference.
cmake --build build -j --target micro_shard >/dev/null
./build/bench/micro_shard

echo "== arrangements: sharing on/off vs reference (+ factor rewriting) =="
# Cross-window state sharing must be invisible: heterogeneous-window
# fleets (incl. the non-divisor 7s/3s fallback) byte-identical between
# shared arrangements, the per-query reference mode, the offline
# reference evaluator, spill budgets, and checkpoint/restore. Every span
# composed from the flat memo blocks must equal a naive per-slice
# evaluation.
./build/tests/astream_tests \
  --gtest_filter='WindowMathTest.*:FactorRegistryTest.*:FactorSlicingTest.*:FactorSlicingE2ETest.*:ArrangementEquivalenceTest.*:AggArrangementTest.*'

echo "== arrangements: same legs under an 8 MiB global memory budget =="
# Memoized compositions are derived state: under the env cap the memo is
# released first, then cold slices spill — outputs must not move.
ASTREAM_MEMORY_BUDGET=8m ./build/tests/astream_tests \
  --gtest_filter='FactorSlicingE2ETest.*:ArrangementEquivalenceTest.*:AggArrangementTest.*'

echo "== micro_arrange: smoke (N-spec sweep, shared vs per-query hashes) =="
# Exits nonzero if any sweep point's output hash diverges between modes.
cmake --build build -j --target micro_arrange >/dev/null
./build/bench/micro_arrange

echo "== multiway: n-ary join vs cascade reference (+ sub-join sharing) =="
# The n-ary shared join must be invisible: fleets over 3-4 streams (with
# churn, declared-order permutations, common {0,1,2} sub-joins)
# byte-identical between sharing on, the cascade reference mode, the
# offline evaluator, spill budgets, checkpoint/restore, and threaded.
./build/tests/astream_tests \
  --gtest_filter='JoinCostModelTest.*:SubJoinRegistryTest.*:MultiwayEquivalenceTest.*:QueryBuilder.Multiway*:*Mjoin*'

echo "== micro_mjoin: smoke (1-8 query sweep, shared vs per-query hashes) =="
# Exits nonzero if any sweep point's output hash diverges between the
# shared, no-share, and per-query-job modes (short rows for the smoke).
cmake --build build -j --target micro_mjoin >/dev/null
ASTREAM_MJOIN_ROWS=4000 ./build/bench/micro_mjoin

echo "== storage v2: loser-tree merge, compressed runs, compaction, v1 compat =="
# Format v2 (per-block LZ) must round-trip byte-exactly, read PR 5-era v1
# files, survive torn/corrupt compressed blocks, and fold runs without
# changing the merged order (ties broken by input index). Spilled runs
# live as extents of one segment file per engine: freed extents are
# reused and coalesce, and an unreadable spilled block fails the job.
# A join with runs on one side probes by key and must emit what the
# resident join emits; the join spills its oldest slice first.
./build/tests/astream_tests \
  --gtest_filter='LzCodecTest.*:RunFileTest.*:CompactorTest.*:MergeTest.*:MemoryGovernorTest.*:SegmentStoreTest.*:SpillFailureTest.*:SliceStoreJoinTest.*:SharedJoinSpillTest.*'

echo "== micro_spill: compressed-budgeted legs (8 MiB cap, compaction on) =="
# Exits nonzero if any leg's output hash (raw v1, compressed, compacted)
# diverges from the unbudgeted reference.
cmake --build build -j --target micro_spill >/dev/null
./build/bench/micro_spill

echo "== spill: full test suite under an 8 MiB global memory budget =="
# Every job created with the default (unset) budget inherits the env cap,
# so the whole suite re-runs with the governor spilling cold slices to
# disk. Reference/control runs pin themselves in-memory with budget -1;
# everything else must produce identical outputs out-of-core.
(cd build && ASTREAM_MEMORY_BUDGET=8m ctest --output-on-failure -j)

echo "== isolation: admission + de-sharing vs the byte-identity reference =="
# The whale must leave the shared plan without moving a single output
# byte, and the admission gate must queue/reject deterministically.
./build/tests/astream_tests \
  --gtest_filter='AdmissionTest.*:AdmissionValidationTest.*:IsolationTest.*:BackpressureRaceTest.*'

echo "== scenario_suite: adversarial tenants under an 8 MiB budget =="
# The headline robustness run (whale-amid-minnows baseline/isolated pair,
# churn storm, zipf skew, bursty/late arrivals), with spilling active:
# exits nonzero if the baseline fails to violate the minnow p99 budget,
# the isolated run fails to meet it, or any admission assertion breaks.
cmake --build build -j --target scenario_suite >/dev/null
ASTREAM_MEMORY_BUDGET=8m ./build/bench/scenario_suite

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "== tsan: skipped (--skip-tsan) =="
else
  echo "== tsan: build =="
  cmake -B build-tsan -S . -DASTREAM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target astream_tests

  echo "== tsan: threaded/batched/ring equivalence + channel + observability =="
  # TSAN_OPTIONS makes any race a hard failure. The metered-cost leg polls
  # per-query state shares from the control thread during query churn.
  # Chained router replicas call the result callback and ack changelogs
  # from every selection and windowed task thread of one job; sink stages
  # hand their runs over on those threads.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='*ThreadedEquivalence*:*BatchedEquivalence*:*RingEquivalence*:*Channel*:*Metrics*:*Histogram*:*TraceSink*:*SeriesCache*:MetricsSnapshotTest.MeteredCostsWhileThreadedChurnRuns:*ChainedStage*:*ChainedRouter*:*SinkRun*:*TriggerWalk*'

  echo "== tsan: contended channel/ring stress (closed-wins race, SPSC handoff, CoW reads) =="
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='*SpscRing*:*TaskInbox*:ChannelTest.TryPushNeverReportsFullAfterCloseRace:ChannelTest.Many*:RowTest.ConcurrentReads*'

  echo "== tsan: supervised crash recovery (supervisor/watchdog vs control/task threads) =="
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='Seeds/ChaosEquivalenceTest.ExactlyOnceUnderCrashAndChurn/0:RunnerPoisonTest.*:SupervisorTest.*'

  echo "== tsan: shard router (ingress rings, pump threads, per-shard egress) =="
  # Control thread pushes into per-shard SPSC rings (and is woken by the
  # pumps when it quiesces them) while pump threads drain and deliver
  # through their own egress slots; a callback swap and a split race the
  # pumps, and pump threads filter runs of mixed ownership after a split;
  # the threaded equivalence + kill legs cross those with supervised
  # recovery.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='SpscQueueTest.*:ShardRouterTest.*:ShardEquivalenceTest.ThreadedRouterMatchesReference:Shards/ShardCountEquivalenceTest.*:Seeds/ShardKillChaosTest.FullStackKillAndSplitExactlyOnce/0:*SyncBatchedEdges*:ExactlyOnceTest.BatchedEdgesSurviveFailure:*ShardEgress*'

  echo "== tsan: compaction worker (fold thread vs owning-task adoption) =="
  # The worker folds runs off-thread and hands them over through the
  # ticket's release/acquire fences; readers adopt on the task thread.
  # Operator threads spill, scan and release through one segment's
  # extent allocator while the worker folds.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='CompactorTest.*:SegmentStoreTest.ConcurrentSpillScanReleaseWithCompactionWorker'

  echo "== tsan: arrangement multi-reader cursor path (threaded fleet) =="
  # Worker threads resolve versioned cursors against the shared
  # arrangements while the control thread cuts slices and churns queries.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='*ThreadedHeterogeneous*:ArrangementEquivalenceTest.JoinFleetSharingOnOffIdentical'

  echo "== tsan: n-ary multiway join (per-stream ingest vs trigger threads) =="
  # Worker threads ingest four streams into per-port arrangements while
  # trigger evaluation probes chains and the control thread churns plans.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ./build-tsan/tests/astream_tests \
    --gtest_filter='*ThreadedMultiway*:MultiwayEquivalenceTest.FleetSharingOnOffIdentical'
fi

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "== asan: skipped (--skip-asan) =="
else
  echo "== asan: build =="
  cmake -B build-asan -S . -DASTREAM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target astream_tests

  echo "== asan: full test suite =="
  ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/astream_tests

  echo "== asan: LZ codec + compressed run format (bounds on malformed input) =="
  # The decompressor is the safety boundary for on-disk bytes (spilled
  # runs carry no CRC); fuzz-ish corrupt-block tests must stay in bounds.
  ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/astream_tests \
    --gtest_filter='LzCodecTest.*:RunFileTest.*:CompactorTest.*:SegmentStoreTest.*:SpillFailureTest.*:SliceStoreJoinTest.*:SharedJoinSpillTest.*'

  echo "== asan: out-of-core storage under an 8 MiB budget =="
  # The spill/reload/merge and torn-file recovery paths shuffle large
  # buffers through the run-file layer; run them again with the env cap
  # active so the governor's eviction loop is exercised under ASan.
  ASTREAM_MEMORY_BUDGET=8m ASAN_OPTIONS="detect_leaks=1" \
    ./build-asan/tests/astream_tests \
    --gtest_filter='RunFileTest.*:MemoryGovernorTest.*:ParseByteSizeTest.*:ResolveMemoryBudgetTest.*:DurableCheckpointTest.*:SpillEquivalenceTest.*:DurableRecoveryTest.*:CheckpointDedupTest.*:Seeds/ChaosEquivalenceTest.ExactlyOnceUnderCrashChurnAndSpill/*:SegmentStoreTest.*:SpillFailureTest.*:SliceStoreJoinTest.*:SharedJoinSpillTest.*'
fi

echo "verify: OK"
