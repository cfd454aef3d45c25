// Reproduces Fig. 3: average strategy execution times (microseconds) as a
// function of the number of tasks, for fixed resources R = (20, 20) (a) and
// R = (100, 100) (b), with SR in {0.2, 0.5, 0.8}.
//
// The paper averages 50 chains per point; on a small machine that is slow
// for HeRAD at the largest sizes, so the default is --reps=5 with HeRAD
// capped at 100 tasks for R = (100, 100). Pass --full for paper scale.
//
// The whole sweep is submitted to a svc::SolverService as one batch:
// per-request timing comes back in ScheduleResult::solve_ns, and --workers
// controls how many solver threads the grid spreads over. Every chain is
// freshly generated, so the timings below are genuine cold solves, not
// cache hits.

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <cstdio>
#include <vector>

namespace {

using namespace amp;

struct GridPoint {
    core::Strategy strategy;
    std::size_t first = 0; ///< index of the point's first request in the batch
    int reps = 0;
};

/// Appends `reps` fresh (chain, strategy) requests for one table cell. The
/// RNG re-seeds per cell exactly like the pre-service code did, so every
/// strategy column sees the same chain sequence for a given (tasks, R, SR).
GridPoint add_point(std::vector<core::ScheduleRequest>& requests, core::Strategy strategy,
                    int tasks, core::Resources resources, double sr, int reps,
                    std::uint64_t seed)
{
    Rng rng{seed ^ static_cast<std::uint64_t>(tasks * 131 + resources.big)};
    sim::GeneratorConfig generator;
    generator.num_tasks = tasks;
    generator.stateless_ratio = sr;
    GridPoint point{strategy, requests.size(), reps};
    for (int r = 0; r < reps; ++r)
        requests.push_back(
            core::ScheduleRequest{sim::generate_chain(generator, rng), resources, strategy});
    return point;
}

double mean_time_us(const std::vector<core::ScheduleResult>& results, const GridPoint& point)
{
    double total_ns = 0.0;
    for (int r = 0; r < point.reps; ++r) {
        const core::ScheduleResult& result = results[point.first + static_cast<std::size_t>(r)];
        if (!result.ok())
            std::fprintf(stderr, "warning: %s\n", core::to_string(result.error));
        total_ns += static_cast<double>(result.solve_ns);
    }
    return total_ns / (1000.0 * point.reps);
}

} // namespace

int main(int argc, char** argv)
{
    const ArgParse args(argc, argv);
    const bool full = args.get_bool("full");
    const int reps = static_cast<int>(args.get_int("reps", full ? 50 : 5));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0xf16));
    const int max_tasks = static_cast<int>(args.get_int("max-tasks", 160));
    const int workers = static_cast<int>(args.get_int("workers", 0));

    svc::ServiceConfig config;
    config.workers = workers;
    config.cache_capacity = 0; // timing bench: never serve a cached solution
    svc::SolverService service{config};

    // Pass 1: lay out the whole figure as one request batch.
    std::vector<core::ScheduleRequest> requests;
    std::vector<GridPoint> points;
    for (const core::Resources resources : {core::Resources{20, 20}, core::Resources{100, 100}}) {
        for (const double sr : {0.2, 0.5, 0.8}) {
            for (int tasks = 20; tasks <= max_tasks; tasks += 20) {
                points.push_back(add_point(requests, core::Strategy::otac_big, tasks, resources,
                                           sr, reps, seed));
                points.push_back(add_point(requests, core::Strategy::fertac, tasks, resources, sr,
                                           reps, seed));
                // The paper stops 2CATAC at 60 tasks (its recursion is
                // exponential); the memoized one covers every size.
                points.push_back(add_point(requests, core::Strategy::twocatac, tasks, resources,
                                           sr, reps, seed));
                const bool herad_feasible = full || resources.big <= 20 || tasks <= 100;
                if (herad_feasible)
                    points.push_back(add_point(requests, core::Strategy::herad, tasks, resources,
                                               sr, reps, seed));
            }
        }
    }
    const std::vector<core::ScheduleResult> results = service.solve_batch(requests);

    // Pass 2: walk the grid in the same order and print the tables.
    std::size_t cursor = 0;
    auto next_cell = [&](core::Strategy expected) {
        const GridPoint& point = points[cursor++];
        (void)expected;
        return fmt(mean_time_us(results, point), 1);
    };
    for (const core::Resources resources : {core::Resources{20, 20}, core::Resources{100, 100}}) {
        std::printf("== Fig. 3%s: strategy times (us) vs #tasks, R = (%d, %d), %d reps, "
                    "%d solver workers ==\n\n",
                    resources.big == 20 ? "a" : "b", resources.big, resources.little, reps,
                    service.workers());
        for (const double sr : {0.2, 0.5, 0.8}) {
            std::printf("SR = %.1f\n", sr);
            TextTable table({"tasks", "OTAC (B)", "FERTAC", "2CATAC", "HeRAD"});
            for (int tasks = 20; tasks <= max_tasks; tasks += 20) {
                std::vector<std::string> row{std::to_string(tasks)};
                row.push_back(next_cell(core::Strategy::otac_big));
                row.push_back(next_cell(core::Strategy::fertac));
                row.push_back(next_cell(core::Strategy::twocatac));
                const bool herad_feasible = full || resources.big <= 20 || tasks <= 100;
                row.push_back(herad_feasible ? next_cell(core::Strategy::herad)
                                             : std::string{"(--full)"});
                table.add_row(std::move(row));
            }
            std::printf("%s\n", table.str().c_str());
        }
    }
    return 0;
}
