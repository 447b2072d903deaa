/**
 * @file
 * Coarse grid search — seeding for the QAOA (γ, β) landscape.
 *
 * The p=1 landscape is periodic and can trap a purely local optimizer in
 * flat regions; a coarse grid pass followed by Nelder–Mead refinement
 * mirrors how QAOA parameters are found analytically/by sweep in the
 * paper's references [44], [45].
 */

#ifndef QAOA_OPT_GRID_SEARCH_HPP
#define QAOA_OPT_GRID_SEARCH_HPP

#include <vector>

#include "opt/nelder_mead.hpp"

namespace qaoa::opt {

/** One axis of the search box. */
struct GridAxis
{
    double lo = 0.0;   ///< Inclusive lower bound.
    double hi = 1.0;   ///< Inclusive upper bound.
    int points = 8;    ///< Samples along this axis (>= 2).
};

/**
 * Checkpointable grid-search state.
 *
 * A default-constructed state starts at the grid origin; a restored
 * one resumes at its odometer cursor.  Steps commit per evaluated grid
 * point, so a resumed sweep re-evaluates nothing and its result is
 * bit-identical to an uninterrupted one.
 */
struct GridSearchState
{
    std::vector<int> cursor;   ///< Odometer of the next point; empty =
                               ///< fresh start.
    std::vector<double> best_x;
    double best_value = 0.0;   ///< Valid once evaluations > 0.
    int evaluations = 0;
    bool done = false;
};

/**
 * Evaluates @p f on the Cartesian grid and returns the best point.
 */
OptResult gridSearch(const Objective &f, const std::vector<GridAxis> &axes);

/**
 * Resumable core of gridSearch(): continues the sweep from @p state
 * (fresh or checkpoint-restored) and leaves the final state in it.
 *
 * @throws run::CancelledError / run::TimedOutError from the hook
 *         guard; @p state then holds the last committed point and can
 *         be checkpointed or resumed directly.
 */
OptResult gridSearchResume(const Objective &f,
                           const std::vector<GridAxis> &axes,
                           GridSearchState &state,
                           const OptHooks &hooks = {});

/**
 * Grid seed + Nelder–Mead refinement: runs gridSearch(), then polishes
 * the winner with nelderMead() (opt/checkpoint's
 * gridThenNelderMeadResume() on a fresh checkpoint).
 */
OptResult gridThenNelderMead(const Objective &f,
                             const std::vector<GridAxis> &axes,
                             const NelderMeadOptions &nm = {});

} // namespace qaoa::opt

#endif // QAOA_OPT_GRID_SEARCH_HPP
