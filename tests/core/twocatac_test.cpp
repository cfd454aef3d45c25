#include "core/twocatac.hpp"

#include "common/rng.hpp"
#include "core/energy.hpp"
#include "core/fertac.hpp"
#include "core/herad.hpp"
#include "core/power.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace {

using namespace amp::core;
using amp::Rng;
using amp::testing::make_chain;
using amp::testing::solve;
using amp::testing::solve_result;
using amp::testing::uniform_chain;

TEST(ChooseBestSolution, PicksOnlyValidCandidate)
{
    const auto chain = uniform_chain(2, 10.0, true);
    const Solution valid{{Stage{1, 2, 1, CoreType::big}}};
    const Solution invalid{};
    const Resources budget{1, 1};
    EXPECT_EQ(choose_best_solution(chain, valid, invalid, budget, 20.0), valid);
    EXPECT_EQ(choose_best_solution(chain, invalid, valid, budget, 20.0), valid);
    EXPECT_TRUE(choose_best_solution(chain, invalid, invalid, budget, 20.0).empty());
}

TEST(ChooseBestSolution, PrefersExchangeOfBigForLittle)
{
    const auto chain = uniform_chain(2, 10.0, true);
    // Same period; candidate A uses (1B), candidate B uses (1L). B exchanges
    // a big core for a little one and must win.
    const Solution a{{Stage{1, 2, 1, CoreType::big}}};
    const Solution b{{Stage{1, 2, 1, CoreType::little}}};
    const Solution chosen = choose_best_solution(chain, a, b, {1, 1}, 20.0);
    EXPECT_EQ(chosen, b);
}

TEST(ChooseBestSolution, PrefersFewerCoresOtherwise)
{
    const auto chain = uniform_chain(4, 10.0, true);
    const Solution fewer{{Stage{1, 4, 2, CoreType::little}}};
    const Solution more{{Stage{1, 2, 2, CoreType::little}, Stage{3, 4, 2, CoreType::little}}};
    EXPECT_EQ(choose_best_solution(chain, more, fewer, {0, 4}, 20.0), fewer);
    EXPECT_EQ(choose_best_solution(chain, fewer, more, {0, 4}, 20.0), fewer);
}

TEST(Twocatac, ProducesValidSolution)
{
    const auto chain = make_chain({{10, 20, false}, {30, 60, true}, {30, 60, true},
                                   {10, 25, false}, {5, 10, true}});
    const Solution sol = solve(Strategy::twocatac, chain, {3, 3});
    ASSERT_FALSE(sol.empty());
    EXPECT_TRUE(sol.is_well_formed(chain));
    EXPECT_LE(sol.used(CoreType::big), 3);
    EXPECT_LE(sol.used(CoreType::little), 3);
}

TEST(Twocatac, NeverWorseThanFertacHere)
{
    // On the paper's workloads 2CATAC dominates FERTAC on average; on these
    // fixed instances it must be at least as good in period.
    const TaskChain chains[] = {
        make_chain({{10, 20, true}, {40, 90, false}, {10, 15, true}, {25, 70, true}}),
        make_chain({{5, 25, false}, {5, 9, true}, {50, 90, true}, {20, 80, false},
                    {10, 30, true}, {10, 12, true}}),
        make_chain({{33, 50, true}, {12, 40, true}, {9, 20, false}, {28, 90, true},
                    {17, 60, false}, {21, 44, true}, {10, 11, true}}),
    };
    for (const auto& chain : chains) {
        for (const Resources budget : {Resources{2, 2}, Resources{4, 2}, Resources{2, 4}}) {
            const double p_two = solve(Strategy::twocatac, chain, budget).period(chain);
            const double p_fer = solve(Strategy::fertac, chain, budget).period(chain);
            EXPECT_LE(p_two, p_fer + 1e-9);
        }
    }
}

TEST(Twocatac, NeverBeatsHeradPeriod)
{
    const auto chain = make_chain({{10, 20, true}, {40, 90, false}, {10, 15, true},
                                   {25, 70, true}, {5, 6, true}});
    for (const Resources budget : {Resources{2, 2}, Resources{1, 3}, Resources{3, 1}}) {
        const double p_two = solve(Strategy::twocatac, chain, budget).period(chain);
        const double p_opt = solve(Strategy::herad, chain, budget).period(chain);
        EXPECT_GE(p_two, p_opt - 1e-9);
    }
}

TEST(Twocatac, UsesLittleCoresLateInPipeline)
{
    // FERTAC burns little cores on the first stage; 2CATAC can save them
    // for the tail. Both must still be valid.
    const auto chain = make_chain({{10, 12, false}, {50, 120, true}, {50, 120, true},
                                   {10, 12, false}});
    const Solution sol = solve(Strategy::twocatac, chain, {3, 1});
    ASSERT_FALSE(sol.empty());
    EXPECT_TRUE(sol.is_well_formed(chain));
}

TEST(Twocatac, SingleResourceType)
{
    const auto chain = uniform_chain(4, 10.0, true);
    const Solution big_only = solve(Strategy::twocatac, chain, {2, 0});
    ASSERT_FALSE(big_only.empty());
    EXPECT_EQ(big_only.used(CoreType::little), 0);
    const Solution little_only = solve(Strategy::twocatac, chain, {0, 2});
    ASSERT_FALSE(little_only.empty());
    EXPECT_EQ(little_only.used(CoreType::big), 0);
}

// -- Equivalence with the paper's recursion ---------------------------------
//
// Test-only oracles: the exponential two-way recursions of Algos 5-6 (and of
// the energy-aware variant) exactly as the paper writes them, choice rules
// included, so they share no decision with the code under test. The
// memoized implementation must return bit-identical solutions and search
// telemetry.

/// Algo 6 as the paper writes it: validity first, then core exchange, then
/// fewer cores, ties to the little-rooted candidate.
Solution oracle_choose_best(const TaskChain& chain, Solution big_rooted, Solution little_rooted,
                            const Resources& budget, double target_period)
{
    const bool big_valid = big_rooted.is_valid(chain, budget, target_period);
    const bool little_valid = little_rooted.is_valid(chain, budget, target_period);
    if (big_valid && little_valid) {
        const Resources use_b = big_rooted.used();
        const Resources use_l = little_rooted.used();
        if (use_b.little > use_l.little && use_b.big < use_l.big)
            return big_rooted;
        if (use_b.little < use_l.little && use_b.big > use_l.big)
            return little_rooted;
        if (use_b.total() < use_l.total())
            return big_rooted;
        return little_rooted;
    }
    if (big_valid)
        return big_rooted;
    if (little_valid)
        return little_rooted;
    return Solution{};
}

/// The energy variant's choice: validity first, then lower energy_per_item,
/// ties to the little-rooted candidate.
Solution oracle_choose_energy(const TaskChain& chain, Solution big_rooted, Solution little_rooted,
                              const Resources& budget, double target, const PowerModel& model)
{
    const bool big_valid = big_rooted.is_valid(chain, budget, target);
    const bool little_valid = little_rooted.is_valid(chain, budget, target);
    if (big_valid && little_valid) {
        const double big_energy = energy_per_item(chain, big_rooted, model);
        const double little_energy = energy_per_item(chain, little_rooted, model);
        return little_energy <= big_energy ? little_rooted : big_rooted;
    }
    if (big_valid)
        return big_rooted;
    if (little_valid)
        return little_rooted;
    return Solution{};
}

/// Algo 5's recursion, with `choose(big_rooted, little_rooted, available)`
/// picking between the two candidates.
template <class Choose>
Solution oracle_build(const TaskChain& chain, int s, Resources available, double target_period,
                      const Choose& choose)
{
    const int n = chain.size();
    Solution candidate[2];
    for (const CoreType v : {CoreType::big, CoreType::little}) {
        Solution& out = candidate[v == CoreType::big ? 0 : 1];
        const auto cut = compute_stage(chain, s, available.count(v), v, target_period);
        const Stage stage{s, cut.end, cut.used, v};
        if (!stage_fits(chain, stage, available, target_period)) {
            out = Solution{};
        } else if (stage.last == n) {
            out = Solution{{stage}};
        } else {
            Resources remaining = available;
            remaining.count(v) -= stage.cores;
            Solution rest = oracle_build(chain, stage.last + 1, remaining, target_period, choose);
            if (rest.is_valid(chain, remaining, target_period)) {
                rest.prepend(stage);
                out = std::move(rest);
            } else {
                out = Solution{};
            }
        }
    }
    return choose(std::move(candidate[0]), std::move(candidate[1]), available);
}

Solution oracle_compute_solution(const TaskChain& chain, int s, Resources available,
                                 double target_period)
{
    return oracle_build(chain, s, available, target_period,
                        [&](Solution big, Solution little, Resources budget) {
                            return oracle_choose_best(chain, std::move(big), std::move(little),
                                                      budget, target_period);
                        });
}

Solution oracle_energy_twocatac(const TaskChain& chain, Resources resources, double target,
                                const PowerModel& model)
{
    if (chain.empty() || resources.total() < 1 || !(target > 0.0))
        return Solution{};
    return oracle_build(chain, 1, resources, target,
                        [&](Solution big, Solution little, Resources budget) {
                            return oracle_choose_energy(chain, std::move(big), std::move(little),
                                                        budget, target, model);
                        });
}

/// Generator chain with n in [2, 30] and SR in [0.2, 0.8]; every other chain
/// gets random per-task energy weights.
TaskChain random_generator_chain(Rng& rng, int trial)
{
    amp::sim::GeneratorConfig config;
    config.num_tasks = static_cast<int>(rng.uniform_int(2, 30));
    config.stateless_ratio = rng.uniform_real(0.2, 0.8);
    const TaskChain generated = amp::sim::generate_chain(config, rng);
    if (trial % 2 == 0)
        return generated;
    std::vector<TaskDesc> tasks;
    for (int i = 1; i <= generated.size(); ++i) {
        TaskDesc task = generated.task(i);
        task.energy = rng.uniform_real(0.5, 3.0);
        tasks.push_back(std::move(task));
    }
    return TaskChain{std::move(tasks)};
}

/// Budgets up to (12, 12); one trial in five is big-only, one little-only.
Resources random_budget(Rng& rng, int trial)
{
    const int big = static_cast<int>(rng.uniform_int(1, 12));
    const int little = static_cast<int>(rng.uniform_int(1, 12));
    switch (trial % 5) {
    case 0: return {big, 0};
    case 1: return {0, little};
    default: return {big, little};
    }
}

TEST(TwocatacMemo, MatchesTheRecursionBitForBit)
{
    Rng rng{0x2CA7AC};
    int feasible = 0;
    for (int trial = 0; trial < 1200; ++trial) {
        const TaskChain chain = random_generator_chain(rng, trial);
        const Resources budget = random_budget(rng, trial);
        SCOPED_TRACE("trial " + std::to_string(trial));

        ScheduleStats memo_stats;
        ScheduleStats oracle_stats;
        const Solution memo = detail::twocatac(chain, budget, &memo_stats);
        const Solution oracle = schedule_with_binary_search(
            chain, budget,
            [](const TaskChain& c, int s, Resources avail, double period) {
                return oracle_compute_solution(c, s, avail, period);
            },
            &oracle_stats);
        ASSERT_EQ(memo, oracle) << memo.decomposition() << " vs " << oracle.decomposition();
        EXPECT_EQ(memo_stats.iterations, oracle_stats.iterations);
        EXPECT_EQ(memo_stats.period_min, oracle_stats.period_min);
        EXPECT_EQ(memo_stats.period_max, oracle_stats.period_max);

        // The unified entry point reports the same solution, stats and error.
        const ScheduleResult unified = amp::testing::solve_result(Strategy::twocatac, chain, budget);
        EXPECT_EQ(unified.error,
                  oracle.empty() ? ScheduleError::infeasible : ScheduleError::ok);
        EXPECT_EQ(unified.solution, oracle);
        EXPECT_EQ(unified.stats.iterations, oracle_stats.iterations);
        feasible += oracle.empty() ? 0 : 1;

        // ComputeSolution alone, from a random start task and sub-budget.
        const int s = static_cast<int>(rng.uniform_int(1, chain.size()));
        const Resources available{static_cast<int>(rng.uniform_int(0, budget.big)),
                                  static_cast<int>(rng.uniform_int(0, budget.little))};
        const double period = oracle.empty() ? chain.interval_sum(1, chain.size(), CoreType::big)
                                             : oracle.period(chain) * rng.uniform_real(0.8, 1.5);
        EXPECT_EQ(twocatac_compute_solution(chain, s, available, period),
                  oracle_compute_solution(chain, s, available, period));
    }
    EXPECT_GT(feasible, 1000) << "the sample must exercise the solution path";
}

TEST(TwocatacMemo, EnergyVariantMatchesTheRecursionBitForBit)
{
    Rng rng{0xE2CA7};
    const PowerModel models[] = {PowerModel{4.0, 1.0, 0.1}, PowerModel{1.0, 1.0, 0.0}};
    int feasible = 0;
    for (int trial = 0; trial < 1200; ++trial) {
        const TaskChain chain = random_generator_chain(rng, trial);
        const Resources budget = random_budget(rng, trial);
        const PowerModel& model = models[trial % 2];
        SCOPED_TRACE("trial " + std::to_string(trial));

        // Targets from tight (2CATAC's own period: many period-equal
        // candidates) to loose.
        const double tight = detail::twocatac(chain, budget).period(chain);
        const double lower = std::max(chain.interval_sum(1, chain.size(), CoreType::big)
                                          / budget.total(),
                                      chain.max_sequential_weight(CoreType::big));
        for (const double target : {tight, lower * rng.uniform_real(1.0, 2.5)}) {
            const Solution memo = detail::energy_twocatac(chain, budget, target, model);
            const Solution oracle = oracle_energy_twocatac(chain, budget, target, model);
            ASSERT_EQ(memo, oracle) << memo.decomposition() << " vs " << oracle.decomposition();
            feasible += oracle.empty() ? 0 : 1;
        }
    }
    EXPECT_GT(feasible, 1000) << "the sample must exercise the solution path";
}

TEST(TwocatacMemo, ScalesToChainsTheRecursionCannotFinish)
{
    // n = 160 on (20, 20) at SR = 0.5: the paper's recursion does not
    // finish here; the memo visits at most n * 21 * 21 states per probe.
    Rng rng{0x160};
    amp::sim::GeneratorConfig config;
    config.num_tasks = 160;
    config.stateless_ratio = 0.5;
    const TaskChain chain = amp::sim::generate_chain(config, rng);
    const Resources budget{20, 20};

    const ScheduleResult result = amp::testing::solve_result(Strategy::twocatac, chain, budget);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.solution.is_well_formed(chain));
    EXPECT_LE(result.solution.used(CoreType::big), 20);
    EXPECT_LE(result.solution.used(CoreType::little), 20);
    EXPECT_GE(result.solution.period(chain),
              amp::testing::solve(Strategy::herad, chain, budget).period(chain) - 1e-9);

    const double target = result.solution.period(chain) * 1.2;
    const Solution energy =
        detail::energy_twocatac(chain, budget, target, PowerModel{4.0, 1.0, 0.1});
    ASSERT_FALSE(energy.empty());
    EXPECT_TRUE(energy.is_valid(chain, budget, target));
}

} // namespace
