#include "opt/grid_search.hpp"

#include <limits>

#include "common/error.hpp"
#include "opt/checkpoint.hpp"

namespace qaoa::opt {

OptResult
gridSearch(const Objective &f, const std::vector<GridAxis> &axes)
{
    GridSearchState state;
    return gridSearchResume(f, axes, state);
}

OptResult
gridSearchResume(const Objective &f, const std::vector<GridAxis> &axes,
                 GridSearchState &state, const OptHooks &hooks)
{
    QAOA_CHECK(!axes.empty(), "grid search needs at least one axis");
    for (const GridAxis &a : axes)
        QAOA_CHECK(a.points >= 2 && a.hi >= a.lo,
                   "invalid grid axis [" << a.lo << ", " << a.hi << "] x "
                                         << a.points);

    const std::size_t dims = axes.size();
    if (state.cursor.empty() && state.evaluations == 0) {
        state.cursor.assign(dims, 0);
        state.best_value = std::numeric_limits<double>::infinity();
    }
    QAOA_CHECK(state.cursor.size() == dims,
               "resumed grid state has " << state.cursor.size()
                                         << " dims, expected " << dims);

    std::vector<double> x(dims);
    while (!state.done) {
        if (hooks.guard)
            hooks.guard->poll("grid-search point");
        for (std::size_t d = 0; d < dims; ++d) {
            const GridAxis &a = axes[d];
            x[d] = a.lo + (a.hi - a.lo) *
                              static_cast<double>(state.cursor[d]) /
                              static_cast<double>(a.points - 1);
        }
        double v = f(x);
        ++state.evaluations;
        if (v < state.best_value) {
            state.best_value = v;
            state.best_x = x;
        }
        // Odometer increment.
        std::size_t d = 0;
        while (d < dims) {
            if (++state.cursor[d] < axes[d].points)
                break;
            state.cursor[d] = 0;
            ++d;
        }
        state.done = (d == dims);
        if (hooks.on_progress)
            hooks.on_progress();
    }

    OptResult best;
    best.x = state.best_x;
    best.value = state.best_value;
    best.evaluations = state.evaluations;
    best.converged = true;
    return best;
}

OptResult
gridThenNelderMead(const Objective &f, const std::vector<GridAxis> &axes,
                   const NelderMeadOptions &nm)
{
    OptCheckpoint checkpoint;
    return gridThenNelderMeadResume(f, axes, nm, checkpoint);
}

} // namespace qaoa::opt
