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
  Weight best_lb = 0;  // best certified lower bound of any member
  std::size_t finished = 0;

  std::vector<std::thread> threads;
  threads.reserve(members_.size());
  for (const auto& member : members_) {
    threads.emplace_back([&, label = member.label, make = member.make] {
      MaxSatSolverPtr solver = make();
      MaxSatResult r = solver->solve(instance, shared_token);
      r.solver_name = label;
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++finished;
        best_lb = std::max(best_lb, r.lower_bound);
        if (r.status != MaxSatStatus::Unknown && !winner) {
          winner = std::move(r);
          shared_token->cancel();
        } else if (r.status == MaxSatStatus::Unknown && r.has_model() &&
                   (!incumbent || r.cost < incumbent->cost)) {
          incumbent = std::move(r);
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
    // The incumbent's own bound may lag a core-guided sibling's; take the
    // best bound any member certified so the reported optimality gap is
    // as tight as the race allows.
    res.lower_bound = std::max(res.lower_bound, best_lb);
  } else {
    res.solver_name = name();
    // No model anywhere, but the certified bound still stands.
    res.lower_bound = best_lb;
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
    MaxSatResult r = solver->solve(instance);
    r.solver_name = member.label;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace fta::maxsat
