// resize_churn: in-flight plan swaps on a live, open-loop stream.
//
// A fine-grained synthetic chain (tasks of tens of microseconds, realised as
// time-based spins; little cores emulated by rt::SlowdownEmulator) streams
// at a fixed rate the smallest budget sustains. Each source frame carries
// its due time. One control loop -- the single swapper -- walks a seeded
// random path over (b, l): each step is a warm
// svc::SolverService::solve_planned (HeRAD with a retained frontier), then
// plan::diff, then rt::Pipeline::try_apply_delta_in_flight. The loop runs
// on the drain thread, between two delivered frames, so the pipeline's
// workers plus that one thread stay within the host's CPUs. Chains are
// accepted in set-up only if every budget's delta is resize_only(), so the
// swaps land while frames flow. An exception from a step is a failed
// operation and ends the walk; nothing is caught and retried.

#include "bench.hpp"
#include "stamps.hpp"

#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

namespace ampbench {
namespace {

using namespace amp;

/// Budget grid the control loop walks: b in [1, 2], l in [1, 3], and at
/// most max(3, nproc - 1) cores in all (see grid()).
constexpr int kMinBig = 1, kMaxBig = 2, kMinLittle = 1, kMaxLittle = 3;
/// Offered load as a share of the smallest budget's predicted capacity.
constexpr double kLoad = 0.25;
constexpr std::int64_t kStepNs = 10'000'000;   ///< one resize decision per 10 ms
constexpr double kWarmupSeconds = 0.2;          ///< untimed stream before the window
constexpr std::int64_t kGeneratorUs = 4;        ///< source task's own work
/// Candidate chains evaluated per set-up (about two in five qualify).
constexpr int kCandidates = 16;

struct Frame {
    std::uint64_t seq = 0;
    std::uint64_t acc = 0;
};

[[nodiscard]] std::uint64_t mix(std::uint64_t acc, int task) noexcept
{
    return (acc ^ (static_cast<std::uint64_t>(task) * 0x9E3779B97F4A7C15ULL)) * 0x100000001B3ULL;
}

/// What the sink must see in Frame::acc after all n tasks ran on frame seq.
[[nodiscard]] std::uint64_t expected_acc(std::uint64_t seq, int tasks) noexcept
{
    std::uint64_t acc = seq * 0xD6E8FEB86659FD93ULL + 1;
    for (int t = 1; t <= tasks; ++t)
        acc = mix(acc, t);
    return acc;
}

/// Most cores a budget may use: one CPU stays for the drain thread, which
/// also runs the control loop. Three is the least that still leaves the
/// walk a choice ((1,1), (1,2), (2,1)).
[[nodiscard]] int core_cap(int nproc) noexcept { return std::max(3, nproc - 1); }

[[nodiscard]] bool in_grid(core::Resources budget, int cap) noexcept
{
    return budget.big >= kMinBig && budget.big <= kMaxBig && budget.little >= kMinLittle
           && budget.little <= kMaxLittle && budget.big + budget.little <= cap;
}

[[nodiscard]] std::vector<core::Resources> grid(int cap)
{
    std::vector<core::Resources> out;
    for (int b = kMinBig; b <= kMaxBig; ++b)
        for (int l = kMinLittle; l <= kMaxLittle; ++l)
            if (in_grid({b, l}, cap))
                out.push_back({b, l});
    return out;
}

/// Candidate chain: a cheap replicable generator, one little-friendly task
/// (slowdown 1.0-1.2) and two or three big-bound tasks (slowdown 5-8), all
/// replicable, weights in microseconds. Roughly two candidates in five keep
/// one cut across the whole grid.
core::TaskChain candidate_chain(Rng& rng)
{
    std::vector<core::TaskDesc> tasks;
    tasks.push_back({"gen", static_cast<double>(kGeneratorUs), static_cast<double>(kGeneratorUs), true});
    const auto block = [&](int count, double slow_lo, double slow_hi, const char* prefix) {
        for (int i = 0; i < count; ++i) {
            const double w = std::round(rng.uniform_real(40.0, 80.0));
            const double factor = rng.uniform_real(slow_lo, slow_hi);
            std::string name = prefix;
            name += std::to_string(i + 1);
            tasks.push_back({std::move(name), w, std::round(w * factor * 10) / 10, true});
        }
    };
    block(1, 1.0, 1.2, "a");
    block(static_cast<int>(rng.uniform_int(2, 3)), 5.0, 8.0, "b");
    return core::TaskChain{std::move(tasks)};
}

/// True when the HeRAD plans of every budget in `grid` differ only in
/// replica counts; `worst` receives the largest predicted period.
bool resize_only_on_grid(const core::TaskChain& chain, const std::vector<core::Resources>& grid,
                         double& worst)
{
    std::optional<plan::ExecutionPlan> first;
    worst = 0.0;
    for (const core::Resources& budget : grid) {
        const core::ScheduleResult solved =
            core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad});
        if (!solved.ok())
            return false;
        const plan::ExecutionPlan compiled = plan::ExecutionPlan::compile(chain, solved.solution);
        worst = std::max(worst, compiled.period_us());
        if (!first)
            first = compiled;
        else if (!plan::diff(*first, compiled).resize_only())
            return false;
    }
    return true;
}

class ResizeChurn final : public Phase {
public:
    void setup(const PhaseOptions& options) override
    {
        pipeline_.reset();
        Rng rng{options.seed};
        cap_ = core_cap(options.nproc);
        const std::vector<core::Resources> rungs = grid(cap_);
        // Accept the first candidate whose plans differ only in replica
        // counts across the whole grid. A fixed number of candidates is
        // always evaluated, so the set-up cost does not depend on the seed.
        std::optional<core::TaskChain> accepted;
        for (int candidate = 0; candidate < kCandidates || !accepted; ++candidate) {
            if (candidate == 50 * kCandidates)
                throw std::runtime_error{"resize_churn: no resize-only chain found"};
            core::TaskChain chain = candidate_chain(rng);
            double worst = 0.0;
            if (resize_only_on_grid(chain, rungs, worst) && !accepted) {
                accepted = std::move(chain);
                worst_period_us_ = worst;
            }
        }
        chain_ = std::move(*accepted);

        svc::ServiceConfig service_config;
        service_config.workers = 1;
        service_ = std::make_unique<svc::SolverService>(service_config);
        core::ScheduleRequest bounding{chain_, {kMaxBig, kMaxLittle}, core::Strategy::herad};
        bounding.warm.keep_frontier = true;
        const core::ScheduleResult seeded = core::schedule(bounding);
        frontier_ = seeded.frontier;

        current_budget_ = rungs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(rungs.size()) - 1))];
        walk_rng_ = rng;
        core::ScheduleRequest initial{chain_, current_budget_, core::Strategy::herad};
        initial.warm.frontier = frontier_;
        svc::PlannedSchedule planned;
        {
            Span span{options.tracer, "svc.solve_planned", "svc"};
            planned = service_->solve_planned(initial);
        }
        if (!planned.ok())
            throw std::runtime_error{"resize_churn: initial solve failed"};
        current_ = *planned.plan;
        stage_first_.clear();
        for (const plan::PlanStage& stage : current_.stages())
            stage_first_.push_back(stage.first);

        // Runtime tasks: the generator paces the open loop, the others spin
        // for their big-core weight (the emulator adds the little slowdown).
        const int n = chain_.size();
        log_ = std::make_unique<FrameLog>(n);
        lag_ns_.assign(FrameLog::kRing, 0);
        tasks_ = rt::TaskSequence<Frame>{};
        tasks_.push_back(rt::make_task<Frame>("gen", false, [this](Frame& frame) {
            const std::int64_t due = due_ns(frame.seq);
            std::int64_t now = now_ns();
            if (now < due) {
                std::this_thread::sleep_for(std::chrono::nanoseconds{due - now});
                now = now_ns();
            }
            lag_ns_[frame.seq % FrameLog::kRing] = std::max<std::int64_t>(0, now - due);
            spin_for_ns(kGeneratorUs * 1000);
            frame.acc = mix(frame.seq * 0xD6E8FEB86659FD93ULL + 1, 1);
        }));
        std::vector<double> factors{1.0};
        for (int t = 2; t <= n; ++t) {
            const auto spin_ns = static_cast<std::int64_t>(chain_.task(t).w_big * 1000.0);
            tasks_.push_back(rt::make_task<Frame>(chain_.task(t).name, false, [spin_ns, t](Frame& frame) {
                spin_for_ns(spin_ns);
                frame.acc = mix(frame.acc, t);
            }));
            factors.push_back(chain_.task(t).w_little / chain_.task(t).w_big);
        }
        sequence_ = stamp_sequence(tasks_, *log_);
        emulator_ = std::make_unique<rt::SlowdownEmulator>(factors);
        stamping_ = std::make_unique<StampingEmulator>(*emulator_, *log_);
        rt::PipelineConfig config;
        config.emulator = stamping_.get();
        // Workers spawn with the first segment (the run's warm-up).
        pipeline_ = std::make_unique<rt::Pipeline<Frame>>(sequence_, current_, config);
    }

    PhaseResult run(const PhaseOptions& options) override
    {
        Tracer* tracer = options.tracer;
        interval_ns_ = static_cast<std::int64_t>(worst_period_us_ * 1000.0 / kLoad);
        const double seconds = options.seconds;
        const int n = chain_.size();

        // Untimed warm-up stream (no resizes).
        const auto warm_frames = static_cast<std::uint64_t>(kWarmupSeconds * 1e9 / static_cast<double>(interval_ns_));
        first_seq_ = 0;
        base_ns_ = now_ns();
        (void)pipeline_->run_from(0, warm_frames);

        const auto frames = static_cast<std::uint64_t>(seconds * 1e9 / static_cast<double>(interval_ns_));
        first_seq_ = warm_frames;
        base_ns_ = now_ns() + 1'000'000; // first due time 1 ms ahead
        const std::int64_t stop_walk_ns = base_ns_ + static_cast<std::int64_t>(seconds * 1e9) - 3 * kStepNs;

        // Control loop state: a landed swap keeps its decision and landing
        // times until the next delivered frame closes it.
        Steps steps;
        std::int64_t next_step = base_ns_ + kStepNs;
        bool walking = true;

        std::uint64_t expected = first_seq_;
        std::uint64_t delivered = 0;
        std::uint64_t bad = 0;
        std::vector<double> latency_us, lag_us, handoff_us, resize_us, swap_to_frame_us;
        latency_us.reserve(frames);
        lag_us.reserve(frames);
        const rt::RunResult run = pipeline_->run_from(first_seq_, first_seq_ + frames, [&](Frame& frame) {
            const std::int64_t now = now_ns();
            if (options.inject_fault != 0 && delivered == frames / 2)
                frame.acc ^= 1; // a corrupted frame: the checksum must see it
            ++delivered;
            if (frame.seq != expected || frame.acc != expected_acc(frame.seq, n))
                ++bad;
            expected = frame.seq + 1;
            latency_us.push_back(static_cast<double>(now - due_ns(frame.seq)) / 1e3);
            lag_us.push_back(static_cast<double>(lag_ns_[frame.seq % FrameLog::kRing]) / 1e3);
            if (steps.pending) {
                resize_us.push_back(static_cast<double>(now - steps.decision_ns) / 1e3);
                swap_to_frame_us.push_back(static_cast<double>(now - steps.landed_ns) / 1e3);
                steps.pending = false;
            }
            if (tracer != nullptr)
                trace_frame(*tracer, frame.seq, now, handoff_us);
            // One resize decision per step, once the previous swap has seen
            // its first frame, until three steps before the window ends.
            if (walking && now >= next_step) {
                while (next_step <= now)
                    next_step += kStepNs;
                if (now >= stop_walk_ns) {
                    walking = false;
                } else {
                    try {
                        step(steps, tracer);
                    } catch (...) {
                        ++steps.exceptions; // a failed operation, not retried
                        walking = false;
                    }
                }
            }
        });
        // A swap that landed after the last frame never got its first frame.
        const std::uint64_t unobserved = steps.pending ? 1 : 0;

        PhaseResult result;
        result.attempted = frames + steps.attempted;
        result.failed = bad + run.frames_dropped + (frames - std::min(frames, delivered))
                        + steps.declined + steps.exceptions + unobserved;
        result.cost = median(latency_us);
        // Per second of stream, combined with across_chunks. The tails are
        // reported with the per-layer metrics: on a shared host they follow
        // how long a woken thread waits for a CPU, not the code.
        const int chunks = chunk_count(seconds);
        result.end_to_end = {
            {"resize_latency_p50_us", chunked_quantile(resize_us, chunks, 0.5), "us"},
            {"churn_latency_p50_us", chunked_quantile(latency_us, chunks, 0.5), "us"},
        };

        if (tracer != nullptr) {
            // Direct calls on the same requests, outside the window: the
            // warm core solve and the plan compile the svc path hides.
            for (const core::ScheduleRequest& request : steps.requests) {
                const std::int64_t t0 = now_ns();
                core::ScheduleResult direct;
                {
                    Span span{tracer, "core.schedule", "core"};
                    direct = core::schedule(request);
                }
                const std::int64_t t1 = now_ns();
                {
                    Span span{tracer, "plan.compile", "plan"};
                    (void)plan::ExecutionPlan::compile(request.chain, direct.solution);
                }
                steps.warm_solve_us.push_back(static_cast<double>(t1 - t0) / 1e3);
                steps.compile_us.push_back(static_cast<double>(now_ns() - t1) / 1e3);
            }
        }
        const double attempted = std::max<double>(1.0, static_cast<double>(steps.attempted));
        result.per_layer = {
            {"resize_latency_p90_us", chunked_quantile(resize_us, chunks, 0.9), "us"},
            {"churn_latency_p99_us", chunked_quantile(latency_us, chunks, 0.99), "us"},
            {"core.warm_solve_us_p50", quantile(steps.warm_solve_us, 0.5), "us"},
            {"svc.cache_hit_ratio", service_->cache_stats().hit_rate(), "ratio"},
            {"svc.solve_planned_us_p50", quantile(steps.solve_us, 0.5), "us"},
            {"plan.walk_compile_us_p50", quantile(steps.compile_us, 0.5), "us"},
            {"plan.diff_us_p50", quantile(steps.diff_us, 0.5), "us"},
            {"plan.apply_us_p50", quantile(steps.apply_us, 0.5), "us"},
            {"plan.resize_only_ratio", static_cast<double>(steps.resize_only) / attempted, "ratio"},
            {"rt.swap_call_us_p50", quantile(steps.swap_us, 0.5), "us"},
            {"rt.swap_call_us_p90", quantile(steps.swap_us, 0.9), "us"},
            {"rt.swap_landed_ratio", static_cast<double>(steps.landed) / attempted, "ratio"},
            {"rt.swap_to_frame_us_p50", quantile(swap_to_frame_us, 0.5), "us"},
            {"rt.handoff_us_p50", quantile(handoff_us, 0.5), "us"},
            {"rt.handoff_us_p99", quantile(handoff_us, 0.99), "us"},
            {"rt.generator_lag_us_p99", quantile(lag_us, 0.99), "us"},
        };
        return result;
    }

private:
    struct Steps {
        std::uint64_t attempted = 0;
        std::uint64_t landed = 0;
        std::uint64_t declined = 0;
        std::uint64_t exceptions = 0;
        std::uint64_t resize_only = 0;
        /// A landed swap whose first frame has not been delivered yet.
        bool pending = false;
        std::int64_t decision_ns = 0, landed_ns = 0;
        std::vector<core::ScheduleRequest> requests;
        std::vector<double> solve_us, diff_us, swap_us, apply_us, warm_solve_us, compile_us;
    };

    [[nodiscard]] std::int64_t due_ns(std::uint64_t seq) const noexcept
    {
        return base_ns_ + static_cast<std::int64_t>(seq - first_seq_) * interval_ns_;
    }

    /// Spans of one delivered frame: its tasks, its stage handoffs, the drain.
    void trace_frame(Tracer& tracer, std::uint64_t seq, std::int64_t now, std::vector<double>& handoff_us)
    {
        const int n = chain_.size();
        for (int t = 1; t <= n; ++t)
            tracer.record("task", "task", log_->started(seq, t), log_->ended(seq, t), seq);
        for (std::size_t s = 1; s < stage_first_.size(); ++s) {
            const std::int64_t from = log_->ended(seq, stage_first_[s] - 1);
            const std::int64_t to = log_->started(seq, stage_first_[s]);
            tracer.record("rt.handoff", "rt", from, to, seq);
            handoff_us.push_back(static_cast<double>(to - from) / 1e3);
        }
        tracer.record("rt.drain", "rt", log_->ended(seq, n), now, seq);
    }

    /// One step of the control loop: a resize decision to a random
    /// neighbour on the grid (one axis, one core), solved, diffed and swapped.
    void step(Steps& steps, Tracer* tracer)
    {
        core::Resources target = current_budget_;
        do {
            target = current_budget_;
            const bool big_axis = walk_rng_.bernoulli(0.5);
            const int delta_cores = walk_rng_.bernoulli(0.5) ? 1 : -1;
            (big_axis ? target.big : target.little) += delta_cores;
        } while (!in_grid(target, cap_));
        core::ScheduleRequest request{chain_, target, core::Strategy::herad};
        request.warm.frontier = frontier_;

        const std::int64_t decision = now_ns();
        ++steps.attempted;
        svc::PlannedSchedule planned;
        {
            Span span{tracer, "svc.solve_planned", "svc", steps.attempted};
            planned = service_->solve_planned(request);
        }
        const std::int64_t solved = now_ns();
        if (!planned.ok()) {
            ++steps.declined;
            return;
        }
        plan::PlanDelta delta;
        {
            Span span{tracer, "plan.diff", "plan", steps.attempted};
            delta = plan::diff(current_, *planned.plan);
        }
        const std::int64_t diffed = now_ns();
        steps.resize_only += delta.resize_only() ? 1 : 0;
        bool landed = false;
        {
            Span span{tracer, "rt.try_apply_delta_in_flight", "rt", steps.attempted};
            landed = pipeline_->try_apply_delta_in_flight(delta);
        }
        const std::int64_t swapped = now_ns();
        if (!landed) {
            ++steps.declined;
            return;
        }
        steps.pending = true;
        steps.decision_ns = decision;
        steps.landed_ns = swapped;
        {
            Span span{tracer, "plan.apply", "plan", steps.attempted};
            current_ = plan::apply(current_, delta);
        }
        steps.apply_us.push_back(static_cast<double>(now_ns() - swapped) / 1e3);
        steps.solve_us.push_back(static_cast<double>(solved - decision) / 1e3);
        steps.diff_us.push_back(static_cast<double>(diffed - solved) / 1e3);
        steps.swap_us.push_back(static_cast<double>(swapped - diffed) / 1e3);
        steps.requests.push_back(std::move(request));
        ++steps.landed;
        current_budget_ = target;
    }

    core::TaskChain chain_;
    double worst_period_us_ = 0.0;
    int cap_ = 3; ///< most cores a budget on the walk may use
    std::shared_ptr<const core::HeradFrontier> frontier_;
    core::Resources current_budget_{};
    Rng walk_rng_{0};
    plan::ExecutionPlan current_;
    std::vector<int> stage_first_;
    std::int64_t base_ns_ = 0;
    std::uint64_t first_seq_ = 0;
    std::int64_t interval_ns_ = 1;
    std::vector<std::int64_t> lag_ns_;
    std::unique_ptr<svc::SolverService> service_;
    // Destruction order: the pipeline (declared last) joins its workers
    // before the tasks, log and emulators it uses go away.
    std::unique_ptr<FrameLog> log_;
    rt::TaskSequence<Frame> tasks_;
    rt::TaskSequence<Frame> sequence_;
    std::unique_ptr<rt::SlowdownEmulator> emulator_;
    std::unique_ptr<StampingEmulator> stamping_;
    std::unique_ptr<rt::Pipeline<Frame>> pipeline_;
};

} // namespace

std::unique_ptr<Phase> make_resize_churn() { return std::make_unique<ResizeChurn>(); }

} // namespace ampbench
