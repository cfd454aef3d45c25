// plan::diff / plan::apply algebra: self-diff is empty, apply(a, diff(a,b))
// reproduces b's topology while preserving kept worker ids, spawns get fresh
// ids, and every structural incompatibility is reported instead of patched.

#include "plan/execution_plan.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Stage;

core::TaskChain five_task_chain()
{
    // t1 stateful, t2..t5 replicable.
    return amp::testing::make_chain({{100, 120, false},
                                {60, 75, true},
                                {60, 75, true},
                                {60, 75, true},
                                {60, 76, true}});
}

plan::ExecutionPlan compile(const core::TaskChain& chain, std::vector<Stage> stages,
                            plan::PlanOptions options = {})
{
    return plan::ExecutionPlan::compile(chain, core::Solution{std::move(stages)}, options);
}

TEST(PlanDiff, SelfDiffIsEmpty)
{
    const core::TaskChain chain = five_task_chain();
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});

    const plan::PlanDelta delta = plan::diff(a, a);
    EXPECT_TRUE(delta.compatible);
    EXPECT_TRUE(delta.empty());
    ASSERT_EQ(delta.stages.size(), 2u);
    for (const plan::StageDelta& sd : delta.stages)
        EXPECT_EQ(sd.action, plan::StageAction::kept);

    const plan::ExecutionPlan again = plan::apply(a, delta);
    EXPECT_TRUE(plan::same_topology(a, again));
    EXPECT_EQ(again.next_worker_id(), a.next_worker_id());
}

TEST(PlanDiff, ResizeAndRebindProduceCompatibleDelta)
{
    const core::TaskChain chain = five_task_chain();
    // Same cut, stage 0 rebound big->little, stage 1 shrunk 3 -> 2.
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
    const plan::ExecutionPlan b =
        compile(chain, {{1, 1, 1, CoreType::little}, {2, 5, 2, CoreType::little}});

    const plan::PlanDelta delta = plan::diff(a, b);
    ASSERT_TRUE(delta.compatible) << delta.reason;
    EXPECT_FALSE(delta.empty());
    ASSERT_EQ(delta.stages.size(), 2u);

    EXPECT_EQ(delta.stages[0].action, plan::StageAction::rebound);
    EXPECT_EQ(delta.stages[0].type_before, CoreType::big);
    EXPECT_EQ(delta.stages[0].type_after, CoreType::little);

    EXPECT_EQ(delta.stages[1].action, plan::StageAction::resized);
    EXPECT_EQ(delta.stages[1].replicas_before, 3);
    EXPECT_EQ(delta.stages[1].replicas_after, 2);
    // The highest slot is retired; a's stage-1 workers are ids {1, 2, 3}.
    ASSERT_EQ(delta.stages[1].retire_worker_ids.size(), 1u);
    EXPECT_EQ(delta.stages[1].retire_worker_ids[0], 3);

    EXPECT_EQ(delta.spawned, 0);
    EXPECT_EQ(delta.retired, 1);
    EXPECT_EQ(delta.rebound, 1);

    const plan::ExecutionPlan swapped = plan::apply(a, delta);
    EXPECT_TRUE(plan::same_topology(swapped, b));
    // Kept workers keep their ids across the swap.
    EXPECT_EQ(swapped.stage(0).worker_ids, (std::vector<int>{0}));
    EXPECT_EQ(swapped.stage(1).worker_ids, (std::vector<int>{1, 2}));
}

TEST(PlanDiff, SpawnsGetFreshIds)
{
    const core::TaskChain chain = five_task_chain();
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 2, CoreType::little}});
    const plan::ExecutionPlan b =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});

    const plan::PlanDelta delta = plan::diff(a, b);
    ASSERT_TRUE(delta.compatible) << delta.reason;
    EXPECT_EQ(delta.spawned, 1);
    EXPECT_EQ(delta.retired, 0);

    const plan::ExecutionPlan grown = plan::apply(a, delta);
    EXPECT_TRUE(plan::same_topology(grown, b));
    // a's ids were {0} / {1, 2}; the new replica must not reuse any of them.
    EXPECT_EQ(grown.stage(1).worker_ids, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(grown.next_worker_id(), 4);
}

TEST(PlanDiff, RecutIsIncompatible)
{
    const core::TaskChain chain = five_task_chain();
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
    const plan::ExecutionPlan three_stages = compile(
        chain,
        {{1, 1, 1, CoreType::big}, {2, 3, 1, CoreType::little}, {4, 5, 1, CoreType::little}});
    const plan::ExecutionPlan moved_boundary =
        compile(chain, {{1, 2, 1, CoreType::big}, {3, 5, 3, CoreType::little}});

    const plan::PlanDelta recount = plan::diff(a, three_stages);
    EXPECT_FALSE(recount.compatible);
    EXPECT_NE(recount.reason.find("stage count"), std::string::npos) << recount.reason;
    EXPECT_TRUE(recount.stages.empty());

    const plan::PlanDelta recut = plan::diff(a, moved_boundary);
    EXPECT_FALSE(recut.compatible);
    EXPECT_NE(recut.reason.find("recut"), std::string::npos) << recut.reason;

    EXPECT_THROW((void)plan::apply(a, recount), plan::PlanError);
}

TEST(PlanDiff, ChainAndQueueChangesAreIncompatible)
{
    const core::TaskChain chain = five_task_chain();
    const core::TaskChain shorter =
        amp::testing::make_chain({{100, 120, false}, {60, 75, true}, {60, 75, true}});

    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
    const plan::ExecutionPlan other_chain =
        compile(shorter, {{1, 1, 1, CoreType::big}, {2, 3, 2, CoreType::little}});
    const plan::ExecutionPlan deeper_queues =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}},
                plan::PlanOptions{16});

    const plan::PlanDelta chains = plan::diff(a, other_chain);
    EXPECT_FALSE(chains.compatible);
    EXPECT_NE(chains.reason.find("task count"), std::string::npos) << chains.reason;

    const plan::PlanDelta queues = plan::diff(a, deeper_queues);
    EXPECT_FALSE(queues.compatible);
    EXPECT_NE(queues.reason.find("queue capacity"), std::string::npos) << queues.reason;
}

TEST(PlanApply, RejectsDeltaFromADifferentBase)
{
    const core::TaskChain chain = five_task_chain();
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
    const plan::ExecutionPlan b =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 2, CoreType::little}});

    const plan::PlanDelta delta = plan::diff(a, b);
    ASSERT_TRUE(delta.compatible);
    // The delta says "shrink stage 1 from 3 replicas", but b only has 2.
    EXPECT_THROW((void)plan::apply(b, delta), plan::PlanError);
}

TEST(PlanApply, AppliesToNamesTheBaseADeltaWasComputedAgainst)
{
    const core::TaskChain chain = five_task_chain();
    const plan::ExecutionPlan a =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
    const plan::ExecutionPlan b =
        compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 2, CoreType::little}});

    const plan::PlanDelta shrink = plan::diff(a, b);
    EXPECT_TRUE(plan::applies_to(a, shrink));
    EXPECT_FALSE(plan::applies_to(b, shrink)) << "stage 1 no longer has 3 replicas";

    // Same replica counts as the delta's base, but the worker it retires is
    // gone: a shrink then a grow hands the slot a fresh id.
    const plan::ExecutionPlan regrown = plan::apply(plan::apply(a, shrink), plan::diff(b, a));
    ASSERT_EQ(regrown.stages()[1].replicas, 3);
    EXPECT_FALSE(plan::applies_to(regrown, shrink));
    EXPECT_THROW((void)plan::apply(regrown, shrink), plan::PlanError);

    const plan::PlanDelta recut =
        plan::diff(a, compile(chain, {{1, 2, 1, CoreType::big}, {3, 5, 3, CoreType::little}}));
    ASSERT_FALSE(recut.compatible);
    EXPECT_FALSE(plan::applies_to(a, recut));
}

TEST(PlanApply, DiffApplyRoundTripsOnRandomChains)
{
    for (const std::uint64_t seed : {3ULL, 11ULL, 77ULL}) {
        Rng rng{seed};
        sim::GeneratorConfig gen;
        gen.num_tasks = 10;
        const core::TaskChain chain = sim::generate_chain(gen, rng);

        const core::Solution healthy =
            amp::testing::solve(core::Strategy::herad, chain, {2, 4});
        const core::Solution degraded =
            amp::testing::solve(core::Strategy::herad, chain, {1, 3});
        if (healthy.empty() || degraded.empty())
            continue;

        const plan::ExecutionPlan before = plan::ExecutionPlan::compile(chain, healthy);
        const plan::ExecutionPlan after = plan::ExecutionPlan::compile(chain, degraded);

        const plan::PlanDelta delta = plan::diff(before, after);
        if (!delta.compatible)
            continue; // recut schedules legitimately force a rebuild
        const plan::ExecutionPlan swapped = plan::apply(before, delta);
        EXPECT_TRUE(plan::same_topology(swapped, after)) << "seed " << seed;
        EXPECT_GE(swapped.next_worker_id(), before.next_worker_id());
    }
}

} // namespace
