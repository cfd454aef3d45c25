#include "core/twocatac.hpp"

#include "core/energy.hpp"
#include "core/power.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace amp::core {

namespace {

/// Algo 6's secondary objective between two valid candidates that use
/// `use_b` (big-rooted) and `use_l` (little-rooted) cores: true when the
/// big-rooted one wins. Ties go to the little-rooted candidate.
bool big_rooted_wins(Resources use_b, Resources use_l)
{
    if (use_b.little > use_l.little && use_b.big < use_l.big)
        return true; // big-rooted candidate exchanges big for little
    if (use_b.little < use_l.little && use_b.big > use_l.big)
        return false; // little-rooted candidate exchanges better
    return use_b.total() < use_l.total(); // fewer cores in total
}

/// 2CATAC's ComputeSolution (Algo 5) memoized over its states (s,
/// available.big, available.little). One dense table covers every state
/// reachable from the budget; each probe (target period) stamps the entries
/// it fills, so probes share the table without clearing it.
///
/// An entry keeps only what the recursion's choice reads: whether [s, n]
/// has a solution, the core type of its first stage, and the cores the
/// whole solution uses. A chosen candidate is valid against its own
/// `available` by construction (its first stage fits, the rest was valid
/// against the remainder), so no entry needs its period; the first stage
/// itself is ComputeStage of (s, available, type) and is rebuilt by the walk.
///
/// With `energy` set, the choice between two valid candidates is the
/// energy-aware variant's (lower energy_per_item, ties to little) instead
/// of Algo 6's core exchange. energy_per_item sums stages first to last, so
/// the walk rebuilds both candidates and the comparison calls it directly:
/// any other summation order could break equal-energy ties differently.
class Memo {
public:
    Memo(const TaskChain& chain, Resources budget, const PowerModel* energy = nullptr)
        : chain_(chain)
        , n_(chain.size())
        , big_(std::max(0, budget.big))
        , little_(std::max(0, budget.little))
        , energy_(energy)
        , table_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(big_ + 1)
                 * static_cast<std::size_t>(little_ + 1))
    {
    }

    /// ComputeSolution(s, available) at target P; `available` must lie
    /// within the table's budget. Empty when no valid solution exists.
    Solution solve(int s, Resources available, double P)
    {
        // Every solution uses >= 0 cores of each type, so none is valid
        // against a negative count.
        if (available.big < 0 || available.little < 0)
            return Solution{};
        period_ = P;
        if (++probe_ == 0) { // stamp wrapped: forget every entry once
            std::fill(table_.begin(), table_.end(), Entry{});
            probe_ = 1;
        }
        Solution solution;
        if (visit(s, available).valid)
            walk(s, available, solution);
        return solution;
    }

private:
    struct Entry {
        std::uint32_t probe = 0; ///< probe that filled the entry; 0 = none
        CoreType type = CoreType::big; ///< first stage's core type
        bool valid = false;      ///< [s, n] has a solution
        Resources used;          ///< cores used by the whole solution
    };
    static_assert(sizeof(Entry) <= 16);

    struct Candidate {
        Stage stage;
        bool valid = false;
        Resources used;
    };

    [[nodiscard]] std::size_t index(int s, Resources available) const noexcept
    {
        return (static_cast<std::size_t>(s - 1) * static_cast<std::size_t>(big_ + 1)
                + static_cast<std::size_t>(available.big))
            * static_cast<std::size_t>(little_ + 1)
            + static_cast<std::size_t>(available.little);
    }

    [[nodiscard]] Stage stage_at(int s, Resources available, CoreType v) const
    {
        const auto cut = compute_stage(chain_, s, available.count(v), v, period_);
        return Stage{s, cut.end, cut.used, v};
    }

    /// Solves state (s, available) and its reachable sub-states for the
    /// current probe. s == n + 1 is the empty remainder of a final stage.
    Entry visit(int s, Resources available)
    {
        if (s > n_)
            return Entry{probe_, CoreType::big, true, {}};
        Entry& entry = table_[index(s, available)];
        if (entry.probe == probe_)
            return entry;

        Candidate candidate[2];
        for (const CoreType v : {CoreType::big, CoreType::little}) {
            Candidate& out = candidate[v == CoreType::big ? 0 : 1];
            out.stage = stage_at(s, available, v);
            if (!stage_fits(chain_, out.stage, available, period_))
                continue; // no valid stage with this core type
            Resources remaining = available;
            remaining.count(v) -= out.stage.cores;
            const Entry rest = visit(out.stage.last + 1, remaining);
            if (!rest.valid)
                continue;
            out.valid = true;
            out.used = rest.used;
            out.used.count(v) += out.stage.cores;
        }

        const Candidate& big = candidate[0];
        const Candidate& little = candidate[1];
        const Candidate* chosen = nullptr;
        if (big.valid && little.valid)
            chosen = prefers_big(big, little, available) ? &big : &little;
        else if (big.valid)
            chosen = &big;
        else if (little.valid)
            chosen = &little;

        // `entry` still refers into table_: visit never resizes it.
        entry = chosen == nullptr ? Entry{probe_, CoreType::big, false, {}}
                                  : Entry{probe_, chosen->stage.type, true, chosen->used};
        return entry;
    }

    bool prefers_big(const Candidate& big, const Candidate& little, Resources available)
    {
        if (energy_ == nullptr)
            return big_rooted_wins(big.used, little.used);
        const double big_energy = energy_of(big, available);
        const double little_energy = energy_of(little, available);
        return !(little_energy <= big_energy);
    }

    /// energy_per_item of a valid candidate's whole solution.
    double energy_of(const Candidate& candidate, Resources available)
    {
        scratch_.clear();
        scratch_.append(candidate.stage);
        available.count(candidate.stage.type) -= candidate.stage.cores;
        walk(candidate.stage.last + 1, available, scratch_);
        return energy_per_item(chain_, scratch_, *energy_);
    }

    /// Appends the stages of the solution state (s, available) holds; every
    /// state on the path is valid and filled by the current probe.
    void walk(int s, Resources available, Solution& out) const
    {
        while (s <= n_) {
            const Stage stage = stage_at(s, available, table_[index(s, available)].type);
            out.append(stage);
            available.count(stage.type) -= stage.cores;
            s = stage.last + 1;
        }
    }

    const TaskChain& chain_;
    int n_;
    int big_;
    int little_;
    const PowerModel* energy_;
    std::vector<Entry> table_;
    std::uint32_t probe_ = 0;
    double period_ = 0.0;
    Solution scratch_; ///< candidate rebuilt for the energy comparison
};

} // namespace

Solution choose_best_solution(const TaskChain& chain, Solution big_rooted,
                              Solution little_rooted, const Resources& budget,
                              double target_period)
{
    const bool big_valid = big_rooted.is_valid(chain, budget, target_period);
    const bool little_valid = little_rooted.is_valid(chain, budget, target_period);
    if (big_valid && little_valid)
        return big_rooted_wins(big_rooted.used(), little_rooted.used()) ? big_rooted
                                                                         : little_rooted;
    if (big_valid)
        return big_rooted;
    if (little_valid)
        return little_rooted;
    return Solution{};
}

Solution twocatac_compute_solution(const TaskChain& chain, int s, Resources available,
                                   double target_period)
{
    return Memo{chain, available}.solve(s, available, target_period);
}

Solution detail::twocatac(const TaskChain& chain, Resources resources, ScheduleStats* stats)
{
    Memo memo{chain, resources};
    return schedule_with_binary_search(
        chain, resources,
        [&memo](const TaskChain&, int s, Resources avail, double period) {
            return memo.solve(s, avail, period);
        },
        stats);
}

Solution detail::energy_twocatac(const TaskChain& chain, Resources resources,
                                 double target_period, const PowerModel& model)
{
    if (chain.empty() || resources.total() < 1 || !(target_period > 0.0))
        return Solution{};
    return Memo{chain, resources, &model}.solve(1, resources, target_period);
}

} // namespace amp::core
