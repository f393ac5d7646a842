#include "spe/topology.h"

#include <set>

namespace astream::spe {

int TopologySpec::NumInstances(int stage) const {
  const StageSpec& st = stages_[stage];
  if (!st.chained) return st.parallelism;
  int replicas = 0;
  for (const EdgeSpec& e : st.inputs) {
    replicas += stages_[e.upstream_stage].parallelism;
  }
  return replicas;
}

Status TopologySpec::Validate() const {
  if (stages_.empty()) {
    return Status::InvalidArgument("topology has no stages");
  }
  for (size_t s = 0; s < stages_.size(); ++s) {
    const StageSpec& stage = stages_[s];
    if (!stage.factory) {
      return Status::InvalidArgument("stage '" + stage.name +
                                     "' has no operator factory");
    }
    if (stage.parallelism < 1) {
      return Status::InvalidArgument("stage '" + stage.name +
                                     "' has parallelism < 1");
    }
    std::set<int> fed_ports;
    for (const EdgeSpec& e : stage.inputs) {
      if (e.upstream_stage < 0 ||
          e.upstream_stage >= static_cast<int>(s)) {
        return Status::InvalidArgument(
            "stage '" + stage.name +
            "' has an edge from a non-earlier stage (stages must be added "
            "in topological order)");
      }
      if (e.port < 0 || e.port >= stage.num_ports) {
        return Status::InvalidArgument("stage '" + stage.name +
                                       "' edge references bad port");
      }
      if (stages_[e.upstream_stage].chained) {
        return Status::InvalidArgument(
            "stage '" + stage.name + "' reads from chained stage '" +
            stages_[e.upstream_stage].name +
            "' (a chained stage must have no downstream edges)");
      }
      fed_ports.insert(e.port);
    }
    if (stage.chained && !stage.is_sink) {
      return Status::InvalidArgument("chained stage '" + stage.name +
                                     "' must be a sink");
    }
    for (const ExternalInputSpec& in : inputs_) {
      if (in.target_stage == static_cast<int>(s)) {
        if (stage.chained) {
          return Status::InvalidArgument(
              "external input '" + in.name + "' feeds chained stage '" +
              stage.name + "' (replicas are fed by stages only)");
        }
        if (in.port < 0 || in.port >= stage.num_ports) {
          return Status::InvalidArgument("external input '" + in.name +
                                         "' references bad port");
        }
        fed_ports.insert(in.port);
      }
    }
    for (int p = 0; p < stage.num_ports; ++p) {
      if (!fed_ports.count(p)) {
        return Status::InvalidArgument(
            "stage '" + stage.name + "' port " + std::to_string(p) +
            " has no incoming edge or external input");
      }
    }
  }
  for (const ExternalInputSpec& in : inputs_) {
    if (in.target_stage < 0 ||
        in.target_stage >= static_cast<int>(stages_.size())) {
      return Status::InvalidArgument("external input '" + in.name +
                                     "' targets unknown stage");
    }
  }
  return Status::OK();
}

}  // namespace astream::spe
