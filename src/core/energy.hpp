#pragma once
// Energy-minimizing strategy variants: min active energy per item subject to
// period <= target (the Objective::min_energy_under_period objective of
// core::schedule; docs/ENERGY.md).
//
// The objective relies on the active-energy metric being additive over
// stages (core/power.hpp): a stage's energy is watts(type) x energy-weighted
// interval work, independent of its replica count and of the achieved
// period. Under that model:
//
//   * EnergyHeRAD -- exact DP. E(j, rb, rl) = minimum energy of scheduling
//     tasks 1..j with at most rb big and rl little cores, every stage
//     weight <= T. A stage's energy does not depend on its core count, so
//     each candidate stage [s, j] on type v needs only its MINIMUM feasible
//     core count (RequiredCores for replicable intervals, one core -- and
//     weight <= T -- for intervals containing a sequential task), and the
//     recurrence over stage starts is exact: O(n^2 b l) time, O(n b l)
//     space. Deterministic tie-breaking (strict improvement, fixed
//     iteration order), so equal requests return bit-identical solutions --
//     the property the solution cache relies on.
//   * Energy-greedy FERTAC/2CATAC -- the paper's greedy stage builders run
//     at the fixed target period (no binary search), choosing the
//     energy-cheaper core type instead of the little-first/core-exchange
//     secondary objective.
//   * Energy OTAC (B)/(L) -- the homogeneous greedy packing at the fixed
//     target; on a single core type the active energy of every feasible
//     schedule is identical, so feasibility at T is the whole problem.
//
// All functions return an empty Solution when no schedule meets the target
// within the budget. Callers go through core::schedule(ScheduleRequest)
// with Objective::min_energy_under_period; these entry points live in
// core::detail like the period-objective strategies.

#include "core/chain.hpp"
#include "core/power.hpp"
#include "core/solution.hpp"

namespace amp::core::detail {

/// Exact minimum-energy schedule with period <= target_period. Optimal
/// among ALL feasible schedules (pinned against brute force in
/// tests_energy). merge_stages runs the same period- and energy-neutral
/// replicable-stage merge post-pass as HeRAD.
[[nodiscard]] Solution energy_herad(const TaskChain& chain, Resources resources,
                                    double target_period, const PowerModel& model,
                                    bool merge_stages = true);

/// Greedy heuristic: FERTAC's stage builder at the fixed target, each stage
/// offered the core type whose energy rate for the stage's leading task is
/// cheaper first.
[[nodiscard]] Solution energy_fertac(const TaskChain& chain, Resources resources,
                                     double target_period, const PowerModel& model);

/// Greedy heuristic: 2CATAC's two-candidate recursion at the fixed target,
/// keeping the candidate with the lower total active energy. Memoized like
/// 2CATAC itself (core/twocatac.hpp): O(n·b·l) states.
[[nodiscard]] Solution energy_twocatac(const TaskChain& chain, Resources resources,
                                       double target_period, const PowerModel& model);

/// Homogeneous baseline: OTAC's greedy packing on `cores` cores of type v
/// at the fixed target (energy on one core type is schedule-invariant).
[[nodiscard]] Solution energy_otac(const TaskChain& chain, int cores, CoreType v,
                                   double target_period);

} // namespace amp::core::detail
