#pragma once
// 2CATAC -- Two-Choice Allocation for TAsk Chains (paper §IV-B, Algos 5-6).
//
// Greedy heuristic that builds each stage with BOTH core types and keeps the
// candidate that better serves the secondary objective (exchange big cores
// for little ones; otherwise use fewer cores). At a fixed target period the
// result for tasks [s, n] depends only on (s, available.big,
// available.little), so ComputeSolution is memoized over those states:
// O(n·b·l) states per binary-search probe, each costing two ComputeStage
// calls, instead of the paper's exponential two-way recursion. The memo
// returns exactly what the recursion returns (pinned in twocatac_test).

#include "core/chain.hpp"
#include "core/greedy_common.hpp"
#include "core/solution.hpp"

namespace amp::core {

/// ChooseBestSolution (Algo 6): picks between the big-rooted and the
/// little-rooted candidate solutions. Exposed for unit testing.
[[nodiscard]] Solution choose_best_solution(const TaskChain& chain, Solution big_rooted,
                                            Solution little_rooted, const Resources& budget,
                                            double target_period);

/// ComputeSolution for 2CATAC (Algo 5).
[[nodiscard]] Solution twocatac_compute_solution(const TaskChain& chain, int s,
                                                 Resources available, double target_period);

namespace detail {

/// Full 2CATAC schedule (binary search of Algo 1 over Algo 5). Callers
/// outside the scheduling library itself should go through the unified
/// core::schedule(ScheduleRequest) API (core/scheduler.hpp).
[[nodiscard]] Solution twocatac(const TaskChain& chain, Resources resources,
                                ScheduleStats* stats = nullptr);

} // namespace detail

} // namespace amp::core
