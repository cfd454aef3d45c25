// Google-benchmark microbenchmarks of the scheduling strategies (a
// statistically robust complement to the Fig. 3/4 sweeps) and of the hot
// support routines (ComputeStage, interval queries).

#include "core/scheduler.hpp"
#include "sim/generator.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace amp;

core::TaskChain chain_for(int tasks, double sr, std::uint64_t seed)
{
    Rng rng{seed};
    sim::GeneratorConfig config;
    config.num_tasks = tasks;
    config.stateless_ratio = sr;
    return sim::generate_chain(config, rng);
}

void BM_Fertac(benchmark::State& state)
{
    const auto chain = chain_for(static_cast<int>(state.range(0)), 0.5, 0xb1);
    const core::Resources resources{20, 20};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::schedule(core::ScheduleRequest{chain, resources, core::Strategy::fertac}));
}
BENCHMARK(BM_Fertac)->Arg(20)->Arg(80)->Arg(160);

void BM_Twocatac(benchmark::State& state)
{
    const auto chain = chain_for(static_cast<int>(state.range(0)), 0.5, 0xb2);
    const core::Resources resources{20, 20};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::schedule(core::ScheduleRequest{chain, resources, core::Strategy::twocatac}));
}
BENCHMARK(BM_Twocatac)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_Herad(benchmark::State& state)
{
    const auto chain = chain_for(static_cast<int>(state.range(0)), 0.5, 0xb3);
    const core::Resources resources{20, 20};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::schedule(core::ScheduleRequest{chain, resources, core::Strategy::herad}));
}
BENCHMARK(BM_Herad)->Arg(20)->Arg(40)->Arg(80);

void BM_OtacBig(benchmark::State& state)
{
    const auto chain = chain_for(static_cast<int>(state.range(0)), 0.5, 0xb4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::schedule(core::ScheduleRequest{chain, {20, 0}, core::Strategy::otac_big}));
}
BENCHMARK(BM_OtacBig)->Arg(20)->Arg(80)->Arg(160);

void BM_ComputeStage(benchmark::State& state)
{
    const auto chain = chain_for(160, 0.8, 0xb5);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compute_stage(chain, 1, 20, core::CoreType::big, 200.0));
}
BENCHMARK(BM_ComputeStage);

void BM_StageWeightQuery(benchmark::State& state)
{
    const auto chain = chain_for(160, 0.5, 0xb6);
    int i = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.stage_weight(i, 140 + (i % 20), 3, core::CoreType::big));
        i = i % 100 + 1;
    }
}
BENCHMARK(BM_StageWeightQuery);

} // namespace

BENCHMARK_MAIN();
