#include "maxsat/lsu.hpp"

#include <utility>

#include "maxsat/incremental.hpp"

namespace fta::maxsat {

MaxSatResult LsuSolver::solve(const WcnfInstance& instance,
                              util::CancelTokenPtr cancel) {
  // One-shot LSU is the incremental engine solved once and discarded, as
  // one-shot OLL is (see OllSolver::solve).
  std::shared_ptr<const WcnfInstance> alias(&instance,
                                            [](const WcnfInstance*) {});
  IncrementalLsu engine(std::move(alias), opts_);
  MaxSatResult res = engine.solve({}, std::move(cancel));
  res.solver_name = name();
  return res;
}

}  // namespace fta::maxsat
