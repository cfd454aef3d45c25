#include "plan/execution_plan.hpp"

#include <algorithm>
#include <sstream>

namespace amp::plan {

ExecutionPlan ExecutionPlan::compile(const GraphShape& graph,
                                     const std::vector<core::Solution>& branch_solutions,
                                     PlanOptions options)
{
    ExecutionPlan p;
    p.shape_ = graph.chain;
    p.graph_ = graph;
    p.options_ = options;
    if (p.options_.queue_capacity == 0)
        p.options_.queue_capacity = 1; // the queues clamp the same way

    const ChainShape& shape = p.shape_;
    if (shape.tasks <= 0 || shape.replicable.size() != static_cast<std::size_t>(shape.tasks))
        throw PlanError{"plan: chain shape is empty or inconsistent"};
    graph.validate();
    if (branch_solutions.size() != graph.branches.size())
        throw PlanError{"plan: need exactly one solution per graph branch"};

    // Stitch: branches in index order, stages within a branch in order. The
    // branch intervals tile [1, n] contiguously, so the stitched stage list
    // tiles it too and every linear invariant (solution rebuild, period,
    // apply()) holds unchanged.
    std::vector<core::Stage> stitched;
    std::vector<int> branch_head(graph.branches.size(), 0);
    std::vector<int> branch_tail(graph.branches.size(), 0);
    for (std::size_t b = 0; b < graph.branches.size(); ++b) {
        const GraphBranch& branch = graph.branches[b];
        const core::Solution& solution = branch_solutions[b];
        if (solution.empty())
            throw PlanError{"plan: empty solution"};

        const int offset = branch.first - 1; // local task 1 == global task branch.first
        branch_head[b] = static_cast<int>(p.stages_.size());
        int expected = branch.first;
        for (const core::Stage& st : solution.stages()) {
            const int first = st.first + offset;
            const int last = st.last + offset;
            if (first != expected || last < first)
                throw PlanError{"plan: stages must tile the chain contiguously"};
            if (last > branch.last)
                throw PlanError{"plan: stage interval exceeds the chain"};
            if (st.cores < 1)
                throw PlanError{"plan: every stage needs at least one core"};

            PlanStage stage;
            stage.index = static_cast<int>(p.stages_.size());
            stage.first = first;
            stage.last = last;
            stage.replicas = st.cores;
            stage.type = st.type;
            stage.replicated = st.cores > 1;
            stage.sequential = false;
            stage.branch = branch.index;
            for (int i = first; i <= last; ++i)
                if (!shape.task_replicable(i))
                    stage.sequential = true;
            if (stage.replicated && stage.sequential)
                throw PlanError{"plan: replicated stage [" + std::to_string(first) + ", "
                                + std::to_string(last) + "] contains a sequential task"};

            stage.worker_ids.reserve(static_cast<std::size_t>(st.cores));
            for (int slot = 0; slot < st.cores; ++slot) {
                const int id = p.next_worker_id_++;
                stage.worker_ids.push_back(id);
                p.workers_.push_back(WorkerSlot{id, stage.index, slot, stage.type});
            }
            stitched.push_back(core::Stage{first, last, st.cores, st.type});
            p.stages_.push_back(std::move(stage));
            expected = last + 1;
        }
        if (expected != branch.last + 1)
            throw PlanError{"plan: solution does not cover the whole chain"};
        branch_tail[b] = static_cast<int>(p.stages_.size()) - 1;
    }
    p.solution_ = core::Solution{std::move(stitched)};

    // Stage edges: linear within a branch, branch edges tail -> head.
    for (std::size_t b = 0; b < graph.branches.size(); ++b) {
        for (int s = branch_head[b]; s < branch_tail[b]; ++s) {
            p.stages_[static_cast<std::size_t>(s)].succs.push_back(s + 1);
            p.stages_[static_cast<std::size_t>(s) + 1].preds.push_back(s);
        }
        for (const int succ : graph.branches[b].succs) {
            p.stages_[static_cast<std::size_t>(branch_tail[b])].succs.push_back(
                branch_head[static_cast<std::size_t>(succ)]);
            p.stages_[static_cast<std::size_t>(branch_head[static_cast<std::size_t>(succ)])]
                .preds.push_back(branch_tail[b]);
        }
    }
    for (PlanStage& stage : p.stages_) {
        std::sort(stage.preds.begin(), stage.preds.end());
        std::sort(stage.succs.begin(), stage.succs.end());
    }

    // Queues: one per stage edge in producer order, the sink stage feeding
    // the drain. For a linear plan this is exactly the historical layout
    // (queue i connects stage i to stage i + 1; the last one drains).
    const int k = static_cast<int>(p.stages_.size());
    for (int s = 0; s < k; ++s) {
        PlanStage& stage = p.stages_[static_cast<std::size_t>(s)];
        if (stage.succs.empty()) {
            const int q = static_cast<int>(p.queues_.size());
            p.queues_.push_back(QueueSpec{q, s, QueueSpec::kDrain, p.options_.queue_capacity});
            stage.out_queues.push_back(q);
            p.sink_stage_ = s;
            continue;
        }
        for (const int succ : stage.succs) {
            const int q = static_cast<int>(p.queues_.size());
            p.queues_.push_back(QueueSpec{q, s, succ, p.options_.queue_capacity});
            stage.out_queues.push_back(q);
            p.stages_[static_cast<std::size_t>(succ)].in_queues.push_back(q);
        }
    }
    p.source_stage_ = branch_head[static_cast<std::size_t>(graph.source_branch())];
    return p;
}

ExecutionPlan ExecutionPlan::compile(const core::TaskChain& chain, const GraphShape& graph,
                                     const std::vector<core::Solution>& branch_solutions,
                                     PlanOptions options)
{
    ExecutionPlan p = compile(graph, branch_solutions, options);
    if (chain.size() != graph.chain.tasks)
        throw PlanError{"plan: chain does not match the graph's task count"};
    p.chain_ = chain;
    for (PlanStage& stage : p.stages_)
        stage.service_us = chain.interval_sum(stage.first, stage.last, stage.type);
    return p;
}

ExecutionPlan ExecutionPlan::compile(const ChainShape& shape, const core::Solution& solution,
                                     PlanOptions options)
{
    // Pre-graph shape errors surfaced before graph validation; keep that
    // order for the degenerate path.
    if (shape.tasks <= 0 || shape.replicable.size() != static_cast<std::size_t>(shape.tasks))
        throw PlanError{"plan: chain shape is empty or inconsistent"};
    return compile(GraphShape::linear(shape), {solution}, options);
}

ExecutionPlan ExecutionPlan::compile(const core::TaskChain& chain, const core::Solution& solution,
                                     PlanOptions options)
{
    ExecutionPlan p = compile(ChainShape::of(chain), solution, options);
    p.chain_ = chain;
    for (PlanStage& stage : p.stages_)
        stage.service_us = chain.interval_sum(stage.first, stage.last, stage.type);
    return p;
}

double ExecutionPlan::period_us() const noexcept
{
    double period = 0.0;
    for (const PlanStage& stage : stages_) {
        const double weight = stage.sequential
            ? stage.service_us
            : stage.service_us / static_cast<double>(stage.replicas);
        period = std::max(period, weight);
    }
    return period;
}

std::string ExecutionPlan::summary() const
{
    std::ostringstream out;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const PlanStage& stage = stages_[s];
        if (s > 0)
            out << " | ";
        out << '[' << stage.first << ',' << stage.last << "]x" << stage.replicas
            << core::to_string(stage.type);
        if (!linear())
            out << "@b" << stage.branch;
    }
    out << " (cap " << options_.queue_capacity << ')';
    return out.str();
}

PlanDelta diff(const ExecutionPlan& before, const ExecutionPlan& after)
{
    PlanDelta delta;
    const auto incompatible = [&delta](std::string reason) {
        delta.compatible = false;
        delta.reason = std::move(reason);
        delta.stages.clear();
        delta.spawned = delta.retired = delta.rebound = 0;
        return delta;
    };
    if (before.task_count() != after.task_count())
        return incompatible("task count changed");
    if (before.stage_count() != after.stage_count())
        return incompatible("stage count changed (recut)");
    if (before.options().queue_capacity != after.options().queue_capacity)
        return incompatible("queue capacity changed");
    // Queues hold in-flight frames; rewired edges (a DAG plan against a
    // linear plan with the same cut, or a different branch structure) can
    // never be swapped in place.
    if (before.queues().size() != after.queues().size())
        return incompatible("queue topology changed");
    for (std::size_t q = 0; q < before.queues().size(); ++q) {
        const QueueSpec& qb = before.queues()[q];
        const QueueSpec& qa = after.queues()[q];
        if (qb.producer_stage != qa.producer_stage || qb.consumer_stage != qa.consumer_stage)
            return incompatible("queue topology changed");
    }
    for (std::size_t s = 0; s < before.stage_count(); ++s) {
        const PlanStage& b = before.stage(s);
        const PlanStage& a = after.stage(s);
        if (b.first != a.first || b.last != a.last)
            return incompatible("stage " + std::to_string(s) + " interval recut");
    }
    for (std::size_t s = 0; s < before.stage_count(); ++s) {
        const PlanStage& b = before.stage(s);
        const PlanStage& a = after.stage(s);
        StageDelta sd;
        sd.stage = static_cast<int>(s);
        sd.replicas_before = b.replicas;
        sd.replicas_after = a.replicas;
        sd.type_before = b.type;
        sd.type_after = a.type;
        if (b.type != a.type) {
            sd.action = StageAction::rebound;
            ++delta.rebound;
        } else if (b.replicas != a.replicas) {
            sd.action = StageAction::resized;
        }
        if (a.replicas > b.replicas) {
            sd.spawn_count = a.replicas - b.replicas;
            delta.spawned += sd.spawn_count;
        } else if (a.replicas < b.replicas) {
            // Retire the highest slots; kept workers keep their slot order.
            const auto keep = static_cast<std::size_t>(a.replicas);
            sd.retire_worker_ids.assign(b.worker_ids.begin() + static_cast<std::ptrdiff_t>(keep),
                                        b.worker_ids.end());
            delta.retired += static_cast<int>(sd.retire_worker_ids.size());
        }
        delta.stages.push_back(std::move(sd));
    }
    return delta;
}

bool applies_to(const ExecutionPlan& base, const PlanDelta& delta)
{
    if (!delta.compatible || delta.stages.size() != base.stage_count())
        return false;
    for (std::size_t s = 0; s < delta.stages.size(); ++s) {
        const PlanStage& stage = base.stages()[s];
        const StageDelta& sd = delta.stages[s];
        if (stage.replicas != sd.replicas_before || stage.type != sd.type_before)
            return false;
        for (const int id : sd.retire_worker_ids)
            if (std::find(stage.worker_ids.begin(), stage.worker_ids.end(), id)
                == stage.worker_ids.end())
                return false;
    }
    return true;
}

ExecutionPlan apply(const ExecutionPlan& base, const PlanDelta& delta)
{
    if (!delta.compatible)
        throw PlanError{"plan: cannot apply an incompatible delta (" + delta.reason + ")"};
    if (delta.stages.size() != base.stage_count())
        throw PlanError{"plan: delta does not match the base plan's stage count"};

    ExecutionPlan next = base; // graph, queue topology and stage edges survive
    next.workers_.clear();
    std::vector<core::Stage> stages;
    stages.reserve(next.stages_.size());
    for (std::size_t s = 0; s < next.stages_.size(); ++s) {
        PlanStage& stage = next.stages_[s];
        const StageDelta& sd = delta.stages[s];
        if (stage.replicas != sd.replicas_before || stage.type != sd.type_before)
            throw PlanError{"plan: delta was computed against a different base plan"};
        stage.type = sd.type_after;
        for (const int id : sd.retire_worker_ids) {
            const auto it = std::find(stage.worker_ids.begin(), stage.worker_ids.end(), id);
            if (it == stage.worker_ids.end())
                throw PlanError{"plan: delta retires unknown worker id "
                                + std::to_string(id)};
            stage.worker_ids.erase(it);
        }
        for (int i = 0; i < sd.spawn_count; ++i)
            stage.worker_ids.push_back(next.next_worker_id_++);
        stage.replicas = static_cast<int>(stage.worker_ids.size());
        if (stage.replicas != sd.replicas_after)
            throw PlanError{"plan: delta replica arithmetic does not add up"};
        if (stage.replicas < 1)
            throw PlanError{"plan: delta leaves a stage with no workers"};
        stage.replicated = stage.replicas > 1;
        if (stage.replicated && stage.sequential)
            throw PlanError{"plan: delta replicates a sequential stage"};
        if (next.chain_.has_value())
            stage.service_us =
                next.chain_->interval_sum(stage.first, stage.last, stage.type);
        for (std::size_t slot = 0; slot < stage.worker_ids.size(); ++slot)
            next.workers_.push_back(WorkerSlot{stage.worker_ids[slot], stage.index,
                                               static_cast<int>(slot), stage.type});
        stages.push_back(core::Stage{stage.first, stage.last, stage.replicas, stage.type});
    }
    next.solution_ = core::Solution{std::move(stages)};
    return next;
}

bool same_topology(const ExecutionPlan& a, const ExecutionPlan& b)
{
    if (a.stage_count() != b.stage_count())
        return false;
    if (a.options().queue_capacity != b.options().queue_capacity)
        return false;
    if (a.queues().size() != b.queues().size())
        return false;
    for (std::size_t q = 0; q < a.queues().size(); ++q)
        if (a.queues()[q].producer_stage != b.queues()[q].producer_stage
            || a.queues()[q].consumer_stage != b.queues()[q].consumer_stage)
            return false;
    for (std::size_t s = 0; s < a.stage_count(); ++s) {
        const PlanStage& x = a.stage(s);
        const PlanStage& y = b.stage(s);
        if (x.first != y.first || x.last != y.last || x.replicas != y.replicas
            || x.type != y.type)
            return false;
    }
    return true;
}

} // namespace amp::plan
