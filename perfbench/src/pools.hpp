// Provider pools of the workloads, shared with the broker decision replay
// in layers.cpp so both see the same make-up.
#pragma once

#include <string>
#include <vector>

#include "sim/profiles.hpp"

namespace perfbench {

struct PoolEntry {
  tasklets::sim::DeviceProfile profile;
  std::size_t count = 0;
};

// "pair": kernels_sim's two one-slot desktops.
// "large": pool_sim's 1000 catalogue providers (mobile churn as in the
// catalogue, nobody corrupts).
// "reliable": reliable_sim's 100 catalogue providers, where 3 in every 10
// servers corrupt every result.
// "reliable_honest": the same make-up with every server honest.
[[nodiscard]] std::vector<PoolEntry> pool_makeup(const std::string& pool);

}  // namespace perfbench
