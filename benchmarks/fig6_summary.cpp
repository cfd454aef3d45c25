// Reproduces Fig. 6: the qualitative strategy summary, computed from the
// actual experiments instead of transcribed by hand:
//   * schedule optimality: % of minimal periods over the simulation grid,
//   * number of cores: average extra cores vs HeRAD,
//   * execution time: measured times on a reference instance + complexity,
//   * real throughput distance to the best theoretical (from the DES runs).
//
// Flags: --chains=N per scenario (default 200).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "sim/timing.hpp"
#include "support/campaign.hpp"
#include "support/dvbs2_eval.hpp"

#include <cstdio>
#include <map>

int main(int argc, char** argv)
{
    using namespace amp;
    const ArgParse args(argc, argv);
    const int chains = static_cast<int>(args.get_int("chains", 200));

    // Optimality + extra cores over the 9-scenario simulation grid.
    std::map<core::Strategy, double> pct_optimal;
    std::map<core::Strategy, double> extra_cores;
    int scenarios = 0;
    for (const auto& scenario : bench::paper_scenarios(chains, 0xf19)) {
        const auto result = bench::run_scenario(scenario);
        double herad_big = 0.0;
        double herad_little = 0.0;
        for (const auto& usage : result.herad_usages) {
            herad_big += usage.big;
            herad_little += usage.little;
        }
        herad_big /= static_cast<double>(result.herad_usages.size());
        herad_little /= static_cast<double>(result.herad_usages.size());
        for (const auto& [strategy, outcome] : result.outcomes) {
            pct_optimal[strategy] += outcome.summary.pct_optimal;
            extra_cores[strategy] +=
                (outcome.avg_big_used - herad_big) + (outcome.avg_little_used - herad_little);
        }
        ++scenarios;
    }

    // Execution time on the paper's base instance (20 tasks, R = (10, 10)).
    std::map<core::Strategy, double> exec_time;
    {
        Rng rng{0xf19};
        sim::GeneratorConfig generator;
        for (int r = 0; r < 20; ++r) {
            const auto chain = sim::generate_chain(generator, rng);
            for (const core::Strategy strategy : core::kAllStrategies)
                exec_time[strategy] += sim::time_once_us(
                    [&] {
                        (void)core::schedule(core::ScheduleRequest{chain, {10, 10}, strategy});
                    });
        }
    }

    // Real-vs-best-theoretical throughput over the four platform cases.
    std::map<core::Strategy, double> throughput_distance;
    int cases = 0;
    for (const auto& platform_case : bench::paper_platform_cases()) {
        const auto evaluations =
            bench::evaluate_platform(*platform_case.profile, platform_case.resources);
        double best_expected = 0.0;
        for (const auto& eval : evaluations)
            best_expected = std::max(best_expected, eval.expected_mbps);
        for (const auto& eval : evaluations)
            if (!eval.solution.empty())
                throughput_distance[eval.strategy] +=
                    (best_expected - eval.real_mbps) / best_expected;
        ++cases;
    }

    const std::map<core::Strategy, const char*> complexity = {
        {core::Strategy::herad, "O(n^2 b l (b+l))"},
        {core::Strategy::twocatac, "O(n b l log(n) log(w(b+l)))"},
        {core::Strategy::fertac, "O(n log(w(b+l)) + n)"},
        {core::Strategy::otac_big, "O(n log(w b))"},
        {core::Strategy::otac_little, "O(n log(w l))"},
    };

    std::printf("== Fig. 6: strategy summary (computed from this repository's runs) ==\n\n");
    TextTable table({"Strategy", "Optimality (avg % min periods)", "Extra cores vs HeRAD",
                     "Time on 20 tasks (us)", "Complexity", "Dist. to best real Mb/s"});
    for (const core::Strategy strategy : core::kAllStrategies) {
        table.add_row({core::to_string(strategy),
                       fmt_pct(pct_optimal[strategy] / scenarios, 1),
                       fmt(extra_cores[strategy] / scenarios, 2),
                       fmt(exec_time[strategy] / 20.0, 1), complexity.at(strategy),
                       fmt_pct(throughput_distance[strategy] / cases, 1)});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}
