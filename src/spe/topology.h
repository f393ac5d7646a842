#ifndef ASTREAM_SPE_TOPOLOGY_H_
#define ASTREAM_SPE_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "spe/operator.h"

namespace astream::spe {

/// How records are routed across an edge. Watermarks, markers, and done
/// signals are always broadcast regardless of the record partitioning.
enum class Partitioning {
  /// record goes to instance hash(key) % parallelism.
  kHash,
  /// every instance receives every record.
  kBroadcast,
};

/// An edge from an upstream stage into one input port of a stage.
struct EdgeSpec {
  int upstream_stage = -1;
  int port = 0;
  Partitioning partitioning = Partitioning::kHash;
};

/// An external feed point (the driver pushes elements here).
struct ExternalInputSpec {
  std::string name;
  int target_stage = -1;
  int port = 0;
  Partitioning partitioning = Partitioning::kHash;
};

/// One logical operator with its parallelism and input edges.
struct StageSpec {
  std::string name;
  int parallelism = 1;
  int num_ports = 1;
  OperatorFactory factory;
  std::vector<EdgeSpec> inputs;
  /// If true, everything the stage emits (and its forwarded watermarks /
  /// markers / done signals) is also delivered to the runner's sink
  /// callback.
  bool is_sink = false;
  /// A chained stage gets no task, inbox or thread of its own. Each
  /// instance of a stage that feeds it owns a private *replica* of it,
  /// built by `factory`, whose only sender is that instance on that
  /// edge's port: batches and control elements reach the replica by a
  /// direct call on the producer's thread, and everything the replica
  /// emits or forwards goes to the sink. A chained stage must be a sink
  /// with no downstream edges and no external input. A record reaches its
  /// producer's replica whatever its key, so the stage must keep no keyed
  /// state. `parallelism` is ignored (see TopologySpec::NumInstances).
  bool chained = false;
};

/// A dataflow graph description. Build with AddStage/AddExternalInput,
/// validate, then hand to a runner (SyncRunner or ThreadedRunner).
class TopologySpec {
 public:
  /// Returns the new stage's index.
  int AddStage(StageSpec stage) {
    stages_.push_back(std::move(stage));
    return static_cast<int>(stages_.size()) - 1;
  }

  /// Returns the new external input's index.
  int AddExternalInput(ExternalInputSpec input) {
    inputs_.push_back(std::move(input));
    return static_cast<int>(inputs_.size()) - 1;
  }

  const std::vector<StageSpec>& stages() const { return stages_; }
  const std::vector<ExternalInputSpec>& external_inputs() const {
    return inputs_;
  }

  /// Instances a runner builds for `stage`: its parallelism, or for a
  /// chained stage one replica per instance of each stage that feeds it,
  /// numbered edge by edge in `inputs` order.
  int NumInstances(int stage) const;

  /// Structural sanity checks: edges reference earlier stages (the graph is
  /// a DAG in topological order), ports are in range, every stage has a
  /// factory, every input port of every stage is fed, and a chained stage
  /// is a sink that nothing else reads from and no external input feeds.
  Status Validate() const;

 private:
  std::vector<StageSpec> stages_;
  std::vector<ExternalInputSpec> inputs_;
};

}  // namespace astream::spe

#endif  // ASTREAM_SPE_TOPOLOGY_H_
