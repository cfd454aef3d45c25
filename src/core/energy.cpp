#include "core/energy.hpp"

#include "core/greedy_common.hpp"
#include "core/otac.hpp"

#include <cstdint>
#include <limits>
#include <vector>

namespace amp::core::detail {

namespace energy_impl {

constexpr double kInfiniteEnergy = std::numeric_limits<double>::infinity();

/// Minimum feasible core count of stage [s, e] on type v at target P, or 0
/// when no count within `available` makes the stage feasible. Mirrors the
/// greedy machinery: RequiredCores (with its relative tolerance) for
/// replicable intervals, a single core for intervals containing a
/// sequential task (extra cores cannot reduce their weight, Eq. 1).
inline int min_feasible_cores(const TaskChain& chain, int s, int e, CoreType v, double P,
                              int available)
{
    if (available < 1)
        return 0;
    if (chain.interval_replicable(s, e)) {
        const int u = required_cores(chain, s, e, v, P);
        return u <= available ? u : 0;
    }
    return chain.interval_sum(s, e, v) <= P ? 1 : 0;
}

/// Flat DP cube over (prefix length, big budget, little budget) plus the
/// choice tables the backwalk extracts the solution from.
struct Matrix {
    int n = 0;
    int b = 0;
    int l = 0;
    std::vector<double> energy;      ///< E(j, rb, rl); +inf = infeasible
    std::vector<std::int32_t> start; ///< chosen stage start s (0 = none)
    std::vector<std::uint8_t> type;  ///< chosen stage core type
    std::vector<std::int32_t> cores; ///< chosen stage core count

    Matrix(int tasks, Resources budget)
        : n(tasks)
        , b(budget.big)
        , l(budget.little)
    {
        const auto cells = static_cast<std::size_t>(n + 1)
            * static_cast<std::size_t>(b + 1) * static_cast<std::size_t>(l + 1);
        energy.assign(cells, kInfiniteEnergy);
        start.assign(cells, 0);
        type.assign(cells, 0);
        cores.assign(cells, 0);
    }

    [[nodiscard]] std::size_t idx(int j, int rb, int rl) const noexcept
    {
        return (static_cast<std::size_t>(j) * static_cast<std::size_t>(b + 1)
                + static_cast<std::size_t>(rb))
            * static_cast<std::size_t>(l + 1)
            + static_cast<std::size_t>(rl);
    }
};

} // namespace energy_impl

Solution energy_herad(const TaskChain& chain, Resources resources, double target_period,
                      const PowerModel& model, bool merge_stages)
{
    using namespace energy_impl;
    if (chain.empty() || resources.total() < 1 || !(target_period > 0.0))
        return Solution{};

    const int n = chain.size();
    Matrix m{n, resources};
    for (int rb = 0; rb <= m.b; ++rb)
        for (int rl = 0; rl <= m.l; ++rl)
            m.energy[m.idx(0, rb, rl)] = 0.0;

    for (int j = 1; j <= n; ++j) {
        for (int rb = 0; rb <= m.b; ++rb) {
            for (int rl = 0; rl <= m.l; ++rl) {
                const std::size_t here = m.idx(j, rb, rl);
                double best = kInfiniteEnergy;
                // Last stage [s, j]: shortest first. The interval weight
                // grows (and replicability can only be lost) as s decreases,
                // so once the stage is infeasible on BOTH types it stays
                // infeasible for every earlier start -- break.
                for (int s = j; s >= 1; --s) {
                    bool any_feasible = false;
                    for (const CoreType v : {CoreType::big, CoreType::little}) {
                        const int budget = v == CoreType::big ? rb : rl;
                        const int u = min_feasible_cores(chain, s, j, v, target_period, budget);
                        if (u < 1)
                            continue;
                        any_feasible = true;
                        const double prev = v == CoreType::big
                                                ? m.energy[m.idx(s - 1, rb - u, rl)]
                                                : m.energy[m.idx(s - 1, rb, rl - u)];
                        if (prev == kInfiniteEnergy)
                            continue;
                        const double cand =
                            prev + model.watts(v) * chain.energy_sum(s, j, v);
                        // Strict improvement only: the first-seen choice in
                        // the fixed (s desc, big-then-little) order wins
                        // energy ties, keeping extraction deterministic.
                        if (cand < best) {
                            best = cand;
                            m.start[here] = s;
                            m.type[here] = static_cast<std::uint8_t>(v);
                            m.cores[here] = u;
                        }
                    }
                    if (!any_feasible)
                        break;
                }
                m.energy[here] = best;
            }
        }
    }

    if (m.energy[m.idx(n, m.b, m.l)] == kInfiniteEnergy)
        return Solution{};

    Solution solution;
    int j = n;
    int rb = m.b;
    int rl = m.l;
    while (j > 0) {
        const std::size_t here = m.idx(j, rb, rl);
        const int s = m.start[here];
        const auto v = static_cast<CoreType>(m.type[here]);
        const int u = m.cores[here];
        solution.prepend(Stage{s, j, u, v});
        (v == CoreType::big ? rb : rl) -= u;
        j = s - 1;
    }
    if (merge_stages)
        solution.merge_replicable_stages(chain);
    return solution;
}

Solution energy_fertac(const TaskChain& chain, Resources resources, double target_period,
                       const PowerModel& model)
{
    if (chain.empty() || resources.total() < 1 || !(target_period > 0.0))
        return Solution{};

    const int n = chain.size();
    // Iterative FERTAC loop at the fixed target; the per-stage preference is
    // the core type with the cheaper energy rate for the stage's leading
    // task (ties go little: never more expensive under any sane model).
    Solution solution;
    Resources available = resources;
    int s = 1;
    while (s <= n) {
        const double big_rate = model.watts(CoreType::big) * chain.energy_sum(s, s, CoreType::big);
        const double little_rate =
            model.watts(CoreType::little) * chain.energy_sum(s, s, CoreType::little);
        const CoreType first = big_rate < little_rate ? CoreType::big : CoreType::little;
        const CoreType second = other(first);

        auto cut = compute_stage(chain, s, available.count(first), first, target_period);
        Stage stage{s, cut.end, cut.used, first};
        if (!stage_fits(chain, stage, available, target_period)) {
            cut = compute_stage(chain, s, available.count(second), second, target_period);
            stage = Stage{s, cut.end, cut.used, second};
            if (!stage_fits(chain, stage, available, target_period))
                return Solution{}; // no valid stage with either core type
        }
        available.count(stage.type) -= stage.cores;
        solution.append(stage);
        s = stage.last + 1;
    }
    return solution;
}

// energy_twocatac lives in twocatac.cpp: it shares 2CATAC's memo table and
// walk, with the energy choice rule in place of the core exchange.

Solution energy_otac(const TaskChain& chain, int cores, CoreType v, double target_period)
{
    if (chain.empty() || cores < 1 || !(target_period > 0.0))
        return Solution{};
    Solution solution = otac_compute_solution(chain, 1, cores, v, target_period);
    Resources budget;
    budget.count(v) = cores;
    if (!solution.is_valid(chain, budget, target_period))
        return Solution{};
    return solution;
}

} // namespace amp::core::detail
