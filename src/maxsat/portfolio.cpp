#include "maxsat/portfolio.hpp"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "maxsat/fu_malik.hpp"
#include "maxsat/lsu.hpp"
#include "maxsat/oll.hpp"
#include "util/timer.hpp"

namespace fta::maxsat {

PortfolioSolver::PortfolioSolver(std::vector<PortfolioMember> members)
    : members_(std::move(members)) {}

std::vector<PortfolioMember> PortfolioSolver::default_members() {
  std::vector<PortfolioMember> members;
  members.push_back({"oll", [] {
                       OllOptions o;
                       return std::make_unique<OllSolver>(o);
                     }});
  members.push_back({"oll-strat", [] {
                       OllOptions o;
                       o.stratified = true;
                       o.sat.seed = 0xfeedface;
                       o.sat.random_pick_freq = 0.02;
                       return std::make_unique<OllSolver>(o);
                     }});
  members.push_back({"fu-malik", [] {
                       FuMalikOptions o;
                       o.sat.seed = 0xdecaf;
                       return std::make_unique<FuMalikSolver>(o);
                     }});
  members.push_back({"lsu", [] {
                       LsuOptions o;
                       o.sat.seed = 0xc0ffee;
                       return std::make_unique<LsuSolver>(o);
                     }});
  return members;
}

PortfolioSolver PortfolioSolver::make_default() {
  return PortfolioSolver(default_members());
}

MaxSatResult PortfolioSolver::solve(const WcnfInstance& instance,
                                    util::CancelTokenPtr cancel) {
  util::Timer timer;
  // Child of the caller's token: members observe external cancellation and
  // deadlines directly at their own poll points, not just via the 20 ms
  // supervision loop below.
  auto shared_token = util::make_child_token(cancel);

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<MaxSatResult> winner;
  std::optional<MaxSatResult> incumbent;  // best Unknown-with-model
  // Best certified lower bound per model space (index: solved_alternate).
  // Bounds only compose within one space — a raw member's costs include
  // the UP-forced soft weights a simplified member's exclude.
  Weight best_lb[2] = {0, 0};
  std::size_t finished = 0;

  std::vector<std::thread> threads;
  threads.reserve(members_.size());
  for (const auto& member : members_) {
    threads.emplace_back([&, label = member.label, make = member.make,
                          alternate = member.instance] {
      MaxSatSolverPtr solver = make();
      MaxSatResult r =
          solver->solve(alternate ? *alternate : instance, shared_token);
      r.solver_name = label;
      r.solved_alternate = alternate != nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++finished;
        const int space = r.solved_alternate ? 1 : 0;
        best_lb[space] = std::max(best_lb[space], r.lower_bound);
        if (r.status != MaxSatStatus::Unknown && !winner) {
          winner = std::move(r);
          shared_token->cancel();
        } else if (r.status == MaxSatStatus::Unknown && r.has_model()) {
          // Costs are only comparable within one model space: a raw
          // member's cost includes the UP-forced soft weights that a
          // simplified-instance cost excludes (the caller re-adds them as
          // an offset the portfolio does not know). Across spaces, first
          // incumbent wins.
          if (!incumbent ||
              (r.solved_alternate == incumbent->solved_alternate &&
               r.cost < incumbent->cost)) {
            incumbent = std::move(r);
          }
        }
      }
      cv.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    const auto done = [&] { return winner.has_value() || finished == threads.size(); };
    while (!done()) {
      if (cancel && cancel->cancelled()) {
        shared_token->cancel();
        cv.wait(lock, done);
        break;
      }
      cv.wait_for(lock, std::chrono::milliseconds(20));
    }
  }
  for (auto& t : threads) t.join();

  MaxSatResult res;
  if (winner) {
    res = std::move(*winner);
  } else if (incumbent) {
    res = std::move(*incumbent);  // status stays Unknown: not proven optimal
    // The incumbent's own bound may lag a core-guided sibling racing the
    // same space; take the best bound certified for that space so the
    // reported optimality gap is as tight as the race allows.
    const int space = res.solved_alternate ? 1 : 0;
    res.lower_bound = std::max(res.lower_bound, best_lb[space]);
  } else {
    res.solver_name = name();
    // No model anywhere, but the bound certified on the handed-in
    // (simplified) instance still stands.
    res.lower_bound = best_lb[0];
  }
  res.seconds = timer.seconds();
  return res;
}

std::vector<MaxSatResult> PortfolioSolver::solve_all_members(
    const WcnfInstance& instance) {
  std::vector<MaxSatResult> results;
  results.reserve(members_.size());
  for (const auto& member : members_) {
    MaxSatSolverPtr solver = member.make();
    MaxSatResult r =
        solver->solve(member.instance ? *member.instance : instance);
    r.solver_name = member.label;
    r.solved_alternate = member.instance != nullptr;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace fta::maxsat
