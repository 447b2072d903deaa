/**
 * @file
 * Optimizer checkpoints: crash-safe save/resume of a grid + Nelder–Mead
 * parameter search.
 *
 * A checkpoint captures everything optimizeP1Checkpointed() needs to
 * continue a killed run bit-identically: which phase it was in (grid
 * sweep, simplex refinement, or done), the phase's committed state, and
 * a problem hash so a checkpoint is never resumed against a different
 * instance.  Doubles are serialized as C99 hexfloats ("%a"), so every
 * bit of the mantissa round-trips and a resumed run's arithmetic is
 * exactly the uninterrupted run's.
 *
 * On-disk format is one flat JSON object with only string values, read
 * and written with the common/kv.hpp codec; vectors are flattened to
 * comma-joined fields (common/text.hpp).
 * Writes go through a temp file + atomic rename, so a kill mid-write
 * leaves the previous checkpoint intact.
 */

#ifndef QAOA_OPT_CHECKPOINT_HPP
#define QAOA_OPT_CHECKPOINT_HPP

#include <string>
#include <vector>

#include "opt/grid_search.hpp"
#include "opt/nelder_mead.hpp"

namespace qaoa::opt {

/** Search phase recorded in a checkpoint. */
enum class OptPhase {
    Grid, ///< Coarse grid sweep in progress.
    Nm,   ///< Nelder–Mead refinement in progress.
    Done, ///< Search finished; final_* fields hold the answer.
};

/** Phase name as stored in the JSON ("grid" / "nm" / "done"). */
[[nodiscard]] std::string optPhaseName(OptPhase phase);

/** Serializable snapshot of a grid + Nelder–Mead search. */
struct OptCheckpoint
{
    /**
     * Caller-supplied identity of the problem being optimized (e.g.
     * a hash of graph + device + seed).  loadCheckpointFile() callers
     * must reject a checkpoint whose hash differs from the problem at
     * hand; resuming someone else's state would silently corrupt the
     * search.
     */
    std::string problem_hash;

    OptPhase phase = OptPhase::Grid;
    GridSearchState grid;
    NelderMeadState nm;

    /** Serialized common/rng.hpp engine state ("" = none). */
    std::string rng_state;

    /** Final answer; valid when phase == OptPhase::Done. */
    std::vector<double> final_x;
    double final_value = 0.0;
    int final_evaluations = 0;
};

/**
 * Resumable core of gridThenNelderMead(): continues the grid sweep, the
 * Nelder–Mead refinement of its winner and the guard against a worse
 * refinement from @p checkpoint (fresh or restored), leaving it Done.
 * hooks.on_progress fires after every committed step and at each phase
 * change; saving there makes a killed run resume bit-identically.
 *
 * @throws run::CancelledError / run::TimedOutError from the hook guard;
 *         @p checkpoint then holds the last committed step.
 */
OptResult gridThenNelderMeadResume(const Objective &f,
                                   const std::vector<GridAxis> &axes,
                                   const NelderMeadOptions &nm,
                                   OptCheckpoint &checkpoint,
                                   const OptHooks &hooks = {});

/** Serializes to the flat-JSON checkpoint format. */
[[nodiscard]] std::string serializeCheckpoint(const OptCheckpoint &checkpoint);

/**
 * Parses a serializeCheckpoint() document.
 *
 * @throws std::runtime_error on malformed input, unknown keys, or a
 *         format-version mismatch.
 */
[[nodiscard]] OptCheckpoint parseCheckpoint(const std::string &json);

/**
 * Atomically writes the checkpoint to @p path (temp file + rename,
 * with a short retry ladder around the filesystem calls).
 *
 * @throws std::runtime_error when the write keeps failing.
 */
void saveCheckpointFile(const std::string &path,
                        const OptCheckpoint &checkpoint);

/**
 * Loads a checkpoint if @p path exists.
 *
 * @return true and fills @p out on success; false when the file does
 *         not exist.  A file that exists but does not parse throws —
 *         silently restarting a corrupt resume is worse than failing.
 */
[[nodiscard]] bool loadCheckpointFile(const std::string &path,
                                      OptCheckpoint &out);

/**
 * @name Circuit artifact sidecars
 *
 * A checkpoint records the *search* state; the circuit compiled from
 * its parameters is saved next to it as a qbin artifact document
 * (circuit/qbin.hpp) — binary and bit-exact, like the checkpoint's
 * hexfloat doubles.  These helpers only move opaque bytes, so opt/
 * stays independent of circuit/; producers encode with
 * circuit::qbin::encodeArtifact and consumers validate on decode.
 * @{
 */

/** Conventional sidecar path for @p checkpoint_path (appends ".qbin"). */
[[nodiscard]] std::string artifactPathFor(const std::string &checkpoint_path);

/** Atomically writes @p bytes to @p path (same temp-file + rename
 *  ladder as saveCheckpointFile); throws when the write keeps failing. */
void saveArtifactFile(const std::string &path, const std::string &bytes);

/** Loads @p path if it exists.
 *  @return true and fills @p out on success; false when missing. */
[[nodiscard]] bool loadArtifactFile(const std::string &path, std::string &out);

/** @} */

} // namespace qaoa::opt

#endif // QAOA_OPT_CHECKPOINT_HPP
