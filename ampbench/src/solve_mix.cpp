// solve_mix: closed-loop batch solving through svc::SolverService.
//
// One client thread submits solve_batch batches; each batch holds every
// strategy on freshly generated paper-generator chains (n in [20, 40],
// (b, l) up to (20, 20)), so every request is unique and the solution cache
// is bypassed on purpose: the work is core cold solves plus the svc worker
// pool. rt and plan do nothing here.

#include "bench.hpp"

#include "core/scheduler.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace ampbench {
namespace {

using namespace amp;

constexpr int kChainsPerBatch = 8;
constexpr int kMinTasks = 20;
constexpr int kMaxTasks = 40;
constexpr int kMaxCores = 20;

std::vector<core::ScheduleRequest> make_batch(Rng& rng)
{
    std::vector<core::ScheduleRequest> batch;
    batch.reserve(kChainsPerBatch * std::size(core::kAllStrategies));
    for (int c = 0; c < kChainsPerBatch; ++c) {
        sim::GeneratorConfig config;
        config.num_tasks = static_cast<int>(rng.uniform_int(kMinTasks, kMaxTasks));
        config.stateless_ratio = rng.uniform_real(0.2, 0.8);
        const core::TaskChain chain = sim::generate_chain(config, rng);
        const core::Resources resources{static_cast<int>(rng.uniform_int(1, kMaxCores)),
                                        static_cast<int>(rng.uniform_int(1, kMaxCores))};
        for (const core::Strategy strategy : core::kAllStrategies)
            batch.push_back(core::ScheduleRequest{chain, resources, strategy});
    }
    return batch;
}

/// Digest of what an answer must agree on with the direct solve: error
/// code, stages and period. Degraded or rejected answers never match.
std::uint64_t answer_digest(const core::ScheduleRequest& request, const core::ScheduleResult& result)
{
    if (result.degraded || result.error == core::ScheduleError::rejected)
        return 0;
    const auto error = static_cast<std::uint8_t>(result.error);
    std::uint64_t digest = fnv1a(&error, sizeof error);
    for (const core::Stage& stage : result.solution.stages()) {
        const std::int32_t fields[] = {stage.first, stage.last, stage.cores,
                                       static_cast<std::int32_t>(stage.type)};
        digest = fnv1a(fields, sizeof fields, digest);
    }
    if (result.ok()) {
        const double period = result.solution.period(request.chain);
        digest = fnv1a(&period, sizeof period, digest);
    }
    return digest | 1; // never 0
}

class SolveMix final : public Phase {
public:
    void setup(const PhaseOptions& options) override
    {
        service_.reset(); // join the previous pool before starting a new one
        workers_ = std::max(1, options.nproc - 1);
        svc::ServiceConfig config;
        config.workers = workers_;
        service_ = std::make_unique<svc::SolverService>(config);
        rng_ = Rng{options.seed};
    }

    PhaseResult run(const PhaseOptions& options) override
    {
        Tracer* tracer = options.tracer;
        // Only each batch's generator state is kept: the check regenerates
        // the requests, so memory does not grow with the work done.
        std::vector<Rng> batch_rng;
        // Answers are kept as digests, for the same reason.
        std::vector<std::uint64_t> answers;
        std::vector<double> batch_ms;
        std::uint64_t rejected = 0;
        const std::int64_t start = now_ns();
        const auto deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
        while (batch_ms.empty() || now_ns() < deadline) {
            batch_rng.push_back(rng_);
            const std::vector<core::ScheduleRequest> batch = make_batch(rng_);
            const std::int64_t t0 = now_ns();
            std::vector<core::ScheduleResult> served;
            {
                Span span{tracer, "svc.solve_batch", "svc", batch_ms.size()};
                served = service_->solve_batch(batch);
            }
            batch_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
            if (options.inject_fault != 0 && batch_ms.size() == 1 && served[0].ok()) {
                std::vector<core::Stage> stages = served[0].solution.stages();
                stages.front().cores += 1; // a corrupted solution: the check must see it
                served[0].solution = core::Solution{stages};
            }
            for (std::size_t r = 0; r < batch.size(); ++r) {
                answers.push_back(answer_digest(batch[r], served[r]));
                rejected += served[r].error == core::ScheduleError::rejected ? 1 : 0;
            }
        }
        const double window_s = static_cast<double>(now_ns() - start) / 1e9;

        // Check every answer against a direct core::schedule of the same
        // request, outside the timed window, on all cores.
        const std::size_t batches = batch_ms.size();
        const std::size_t per_batch = answers.size() / batches;
        std::vector<double> direct_us(batches * per_batch, 0.0);
        std::vector<std::uint8_t> wrong(batches * per_batch, 0);
        std::atomic<std::size_t> cursor{0};
        const auto check = [&] {
            for (std::size_t b = cursor.fetch_add(1); b < batches; b = cursor.fetch_add(1)) {
                Rng rng = batch_rng[b];
                const std::vector<core::ScheduleRequest> batch = make_batch(rng);
                for (std::size_t r = 0; r < batch.size(); ++r) {
                    const std::size_t i = b * per_batch + r;
                    const std::int64_t t0 = now_ns();
                    const core::ScheduleResult direct = [&] {
                        Span span{tracer, "core.schedule", "core", i};
                        return core::schedule(batch[r]);
                    }();
                    direct_us[i] = static_cast<double>(now_ns() - t0) / 1e3;
                    wrong[i] = answers[i] == answer_digest(batch[r], direct) ? 0 : 1;
                }
            }
        };
        {
            std::vector<std::thread> checkers;
            for (int t = 1; t < options.nproc; ++t)
                checkers.emplace_back(check);
            check();
            for (auto& thread : checkers)
                thread.join();
        }

        PhaseResult result;
        result.attempted = batches * per_batch;
        result.failed = static_cast<std::uint64_t>(std::count(wrong.begin(), wrong.end(), 1));
        // Per second of window (by batch count), combined with across_chunks.
        const int chunks = chunk_count(window_s);
        std::vector<double> chunk_rps;
        const auto k = std::min<std::size_t>(batches, static_cast<std::size_t>(chunks));
        for (std::size_t c = 0; c < k; ++c) {
            double ms = 0.0;
            for (std::size_t b = c * batches / k; b < (c + 1) * batches / k; ++b)
                ms += batch_ms[b];
            const auto served = static_cast<double>(((c + 1) * batches / k - c * batches / k) * per_batch);
            chunk_rps.push_back(served / ms * 1e3);
        }
        const double rps = across_chunks(chunk_rps, true);
        result.cost = rps > 0.0 ? 1.0 / rps : 0.0;
        result.end_to_end = {
            {"solve_rps", rps, "1/s"},
            {"batch_latency_p50_ms", chunked_quantile(batch_ms, chunks, 0.5), "ms"},
        };
        // The tail is reported per layer: a batch waits for its slowest
        // request, so its p90 follows the few heaviest 2CATAC solves a seed
        // draws and which worker each lands on.
        result.per_layer.push_back({"batch_latency_p90_ms", chunked_quantile(batch_ms, chunks, 0.9), "ms"});

        // Per-layer: direct core time per strategy (requests cycle through
        // kAllStrategies within a batch), and how much of the pool the
        // batches kept busy.
        std::vector<std::vector<double>> per_strategy(std::size(core::kAllStrategies));
        double core_ms = 0.0, wall_ms = 0.0;
        for (std::size_t b = 0; b < batches; ++b) {
            wall_ms += batch_ms[b];
            for (std::size_t r = 0; r < per_batch; ++r) {
                const double us = direct_us[b * per_batch + r];
                per_strategy[r % per_strategy.size()].push_back(us);
                core_ms += us / 1e3;
            }
        }
        for (const core::Strategy strategy : core::kAllStrategies) {
            const auto& samples = per_strategy[static_cast<std::size_t>(strategy)];
            const std::string key = core::to_key(strategy);
            result.per_layer.push_back({"core.solve_us_p50." + key, quantile(samples, 0.5), "us"});
            result.per_layer.push_back({"core.solve_us_p99." + key, quantile(samples, 0.99), "us"});
        }
        const int threads = workers_ + 1; // the submitter drains its own batch too
        result.per_layer.push_back({"svc.batch_parallel_efficiency",
                                    wall_ms > 0.0 ? core_ms / (wall_ms * threads) : 0.0,
                                    "ratio"});
        result.per_layer.push_back({"svc.rejected", static_cast<double>(rejected), "count"});
        result.per_layer.push_back(
            {"svc.solve_mix_cache_hit_ratio", service_->cache_stats().hit_rate(), "ratio"});
        return result;
    }

private:
    int workers_ = 1;
    std::unique_ptr<svc::SolverService> service_;
    Rng rng_{0};
};

} // namespace

std::unique_ptr<Phase> make_solve_mix() { return std::make_unique<SolveMix>(); }

} // namespace ampbench
