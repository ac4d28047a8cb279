#include "src/workload/ycsb.h"

#include "src/cluster/cluster.h"

namespace rocksteady {

std::string YcsbWorkload::KeyAt(uint64_t id) const {
  return Cluster::MakeKey(id, config_.key_length);
}

}  // namespace rocksteady
