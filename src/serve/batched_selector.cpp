#include "serve/batched_selector.hpp"

namespace oar::serve {

std::vector<std::vector<double>> batched_fsp(rl::SteinerSelector& selector,
                                             const std::vector<const HananGrid*>& grids,
                                             util::ThreadPool* /*pool*/) {
  std::vector<std::vector<double>> fsp(grids.size());
  for (std::size_t i = 0; i < grids.size(); ++i) {
    selector.infer_fsp_into(*grids[i], {}, fsp[i]);
  }
  return fsp;
}

}  // namespace oar::serve
