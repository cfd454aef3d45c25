// replay_sim: the virtual-time replays of dsim (and, through the
// multi-tenant replay, arb). A fixed replay set -- dsim::simulate over the
// four paper platform cases x five strategies, plus simulate_with_failures,
// simulate_autoscale (step and sine load) and simulate_multi_tenant -- runs
// repeatedly after one untimed warm-up set. Replays are deterministic, so
// every timed set must reproduce the warm-up set's results exactly. The
// solver service the replays use has its cache disabled, so every set does
// the same solver work.

#include "bench.hpp"

#include "core/scheduler.hpp"
#include "dsim/simulator.hpp"
#include "dvbs2/profiles.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace ampbench {
namespace {

using namespace amp;

constexpr std::uint64_t kSimFrames = 4000;
constexpr std::uint64_t kSimWarmup = 400;

/// Results of one replay call, flattened so sets compare with ==.
using Digest = std::vector<double>;

/// Bitwise equality: a deterministic replay reproduces every bit.
bool same(const Digest& a, const Digest& b)
{
    return a.size() == b.size()
        && (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void append(Digest& out, const dsim::SimulationResult& r)
{
    out.insert(out.end(), {r.fps, r.period_us, r.energy_per_frame});
    for (const dsim::StageStats& s : r.stages)
        out.insert(out.end(), {s.utilization, s.mean_service_us});
}

class ReplaySim final : public Phase {
public:
    void setup(const PhaseOptions& options) override
    {
        const std::uint64_t seed = options.seed;
        svc::ServiceConfig service_config;
        service_config.workers = 1;
        service_config.cache_capacity = 0; // every set re-solves: same work each time
        service_ = std::make_unique<svc::SolverService>(service_config);
        config_ = dsim::SimulationConfig{};
        config_.frames = kSimFrames;
        config_.warmup_frames = kSimWarmup;
        config_.overhead.seed = seed;

        cases_.clear();
        for (const dvbs2::PlatformProfile* profile :
             {&dvbs2::mac_studio_profile(), &dvbs2::x7ti_profile()})
            for (const core::Resources cores : {profile->cores_full, profile->cores_half}) {
                const core::TaskChain chain = dvbs2::profile_chain(*profile);
                for (const core::Strategy strategy : core::kAllStrategies) {
                    const core::ScheduleResult solved =
                        core::schedule(core::ScheduleRequest{chain, cores, strategy});
                    if (solved.ok())
                        cases_.push_back({chain, solved.solution, cores});
                }
            }

        const Case& base = cases_.front(); // Mac Studio, all cores, HeRAD
        failures_ = dsim::FailureModel{};
        failures_.failures = dsim::random_failures(seed, 2, kSimWarmup, kSimFrames,
                                                   base.solution.stage_count());
        failures_.policy.service = service_.get();

        Rng rng{seed};
        sim::GeneratorConfig generator;
        generator.num_tasks = 12;
        const core::TaskChain scale_chain = sim::generate_chain(generator, rng);
        const double fps = 1e6 / core::schedule(core::Strategy::herad, scale_chain, {1, 2}).period(scale_chain);
        autoscale_.clear();
        for (const bool sine : {false, true}) {
            dsim::AutoscaleScenario scenario;
            scenario.chain = scale_chain;
            scenario.initial = {1, 2};
            scenario.policy.patience = 3;
            scenario.policy.cooldown_ns = 50'000'000;
            scenario.policy.min_pool = {0, 1};
            scenario.policy.max_pool = {4, 4};
            scenario.horizon_us = 1'000'000;
            scenario.sample_period_us = 5'000;
            scenario.service = service_.get();
            if (!sine) {
                scenario.load = {{0, 0.3 * fps}, {300'000, 3.0 * fps}, {700'000, 0.2 * fps}};
            } else {
                for (int i = 0; i < 100; ++i)
                    scenario.load.push_back(
                        {i * 10'000, fps * (1.2 + std::sin(2.0 * 3.14159265358979 * i / 100.0))});
            }
            autoscale_.push_back(std::move(scenario));
        }

        tenants_ = dsim::MultiTenantScenario{};
        tenants_.pool = {8, 6};
        tenants_.horizon_us = 1'000'000;
        tenants_.service = service_.get();
        for (int t = 0; t < 5; ++t) {
            dsim::SimTenant tenant;
            sim::GeneratorConfig config;
            config.num_tasks = static_cast<int>(rng.uniform_int(6, 12));
            tenant.spec.name = "tenant" + std::to_string(t);
            tenant.spec.chain = sim::generate_chain(config, rng);
            tenant.spec.weight = static_cast<double>(rng.uniform_int(1, 4));
            tenant.demand_fps = 0.0;
            tenants_.tenants.push_back(std::move(tenant));
            tenants_.events.push_back({t == 3 ? 250'000 : 0, dsim::TenantEventKind::join,
                                       static_cast<std::size_t>(t)});
        }
        tenants_.events.push_back({600'000, dsim::TenantEventKind::leave, 1});
        tenants_.events.push_back({800'000, dsim::TenantEventKind::set_weight, 0, 6.0});
        std::stable_sort(tenants_.events.begin(), tenants_.events.end(),
                         [](const auto& a, const auto& b) { return a.at_us < b.at_us; });

        expected_.clear();
        Timings ignored;
        expected_ = replay_set(nullptr, ignored); // the untimed warm-up set
    }

    PhaseResult run(const PhaseOptions& options) override
    {
        const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
        std::vector<double> set_ms;
        Timings timings;
        PhaseResult result;
        for (int s = 0; s == 0 || now_ns() < deadline; ++s) {
            const std::int64_t t0 = now_ns();
            std::vector<Digest> got = replay_set(options.tracer, timings);
            set_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
            if (options.inject_fault != 0 && s == 0)
                got.back().front() += 1.0; // a perturbed replay result
            result.attempted += got.size();
            for (std::size_t i = 0; i < got.size(); ++i)
                result.failed += same(got[i], expected_[i]) ? 0 : 1;
        }
        const double window_s = std::accumulate(set_ms.begin(), set_ms.end(), 0.0) / 1e3;
        result.cost = chunked_quantile(set_ms, chunk_count(window_s), 0.5);
        // Reported per layer, not end to end: the replays run on one thread,
        // and on a shared host one thread's speed follows the CPU it lands
        // on and the neighbours' load, so identical sets differ by up to
        // 1.5x between runs.
        result.per_layer = {
            {"replay_set_p50_ms", result.cost, "ms"},
            {"dsim.simulate_us_p50", median(timings.simulate_us), "us"},
            {"dsim.failures_us_p50", median(timings.failures_us), "us"},
            {"dsim.autoscale_us_p50", median(timings.autoscale_us), "us"},
            {"dsim.multi_tenant_us_p50", median(timings.multi_tenant_us), "us"},
            {"dsim.sim_frames_per_s",
             timings.simulate_s > 0.0 ? timings.simulated_frames / timings.simulate_s : 0.0, "1/s"},
        };
        return result;
    }

private:
    struct Case {
        core::TaskChain chain;
        core::Solution solution;
        core::Resources cores;
    };
    struct Timings {
        std::vector<double> simulate_us, failures_us, autoscale_us, multi_tenant_us;
        double simulated_frames = 0.0;
        double simulate_s = 0.0;
    };

    /// Runs the whole replay set once; a replay that throws propagates.
    std::vector<Digest> replay_set(Tracer* tracer, Timings& timings)
    {
        std::vector<Digest> out;
        for (const Case& c : cases_) {
            const std::int64_t t0 = now_ns();
            dsim::SimulationResult r;
            {
                Span span{tracer, "dsim.simulate", "dsim"};
                r = dsim::simulate(c.chain, c.solution, config_);
            }
            const auto ns = static_cast<double>(now_ns() - t0);
            timings.simulate_us.push_back(ns / 1e3);
            timings.simulate_s += ns / 1e9;
            timings.simulated_frames += static_cast<double>(config_.frames);
            out.emplace_back();
            append(out.back(), r);
        }
        {
            const Case& base = cases_.front();
            const std::int64_t t0 = now_ns();
            dsim::FailureSimulationResult r;
            {
                Span span{tracer, "dsim.simulate_with_failures", "dsim"};
                r = dsim::simulate_with_failures(base.chain, base.solution, base.cores, config_, failures_);
            }
            timings.failures_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            Digest d;
            append(d, r.overall);
            d.insert(d.end(), {static_cast<double>(r.recoveries.size()),
                               static_cast<double>(r.frames_dropped), r.schedulable ? 1.0 : 0.0});
            for (const dsim::RecoveryRecord& rec : r.recoveries)
                d.insert(d.end(), {static_cast<double>(rec.frame), rec.downtime_us,
                                   static_cast<double>(rec.new_solution.stage_count())});
            out.push_back(std::move(d));
        }
        for (const dsim::AutoscaleScenario& scenario : autoscale_) {
            const std::int64_t t0 = now_ns();
            dsim::AutoscaleSimResult r;
            {
                Span span{tracer, "dsim.simulate_autoscale", "dsim"};
                r = dsim::simulate_autoscale(scenario);
            }
            timings.autoscale_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            Digest d{static_cast<double>(r.grows), static_cast<double>(r.shrinks),
                     static_cast<double>(r.samples), r.mean_tracking_error, r.final_period_us};
            for (const dsim::AutoscaleEventRecord& e : r.events)
                d.insert(d.end(), {static_cast<double>(e.at_us), e.period_us,
                                   static_cast<double>(e.after.big), static_cast<double>(e.after.little)});
            out.push_back(std::move(d));
        }
        {
            const std::int64_t t0 = now_ns();
            dsim::MultiTenantResult r;
            {
                Span span{tracer, "dsim.simulate_multi_tenant", "dsim"};
                r = dsim::simulate_multi_tenant(tenants_);
            }
            timings.multi_tenant_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            Digest d{r.aggregate_goodput_fps, r.jain_weighted, static_cast<double>(r.rearbitrations),
                     static_cast<double>(r.probes)};
            for (const dsim::ArbEventRecord& e : r.trace)
                for (std::size_t i = 0; i < e.budgets.size(); ++i)
                    d.insert(d.end(), {static_cast<double>(e.budgets[i].big),
                                       static_cast<double>(e.budgets[i].little), e.periods_us[i]});
            out.push_back(std::move(d));
        }
        return out;
    }

    std::unique_ptr<svc::SolverService> service_;
    dsim::SimulationConfig config_;
    std::vector<Case> cases_;
    dsim::FailureModel failures_;
    std::vector<dsim::AutoscaleScenario> autoscale_;
    dsim::MultiTenantScenario tenants_;
    std::vector<Digest> expected_;
};

} // namespace

std::unique_ptr<Phase> make_replay_sim() { return std::make_unique<ReplaySim>(); }

} // namespace ampbench
