#include "opt/checkpoint.hpp"

#include <cerrno>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs.hpp"
#include "common/kv.hpp"
#include "common/text.hpp"

namespace qaoa::opt {

namespace {

constexpr const char *kFormat = "qaoa-opt-checkpoint-v1";

} // namespace

std::string
optPhaseName(OptPhase phase)
{
    switch (phase) {
      case OptPhase::Grid: return "grid";
      case OptPhase::Nm: return "nm";
      case OptPhase::Done: return "done";
    }
    QAOA_ASSERT(false, "unknown optimizer phase");
    return {};
}

OptResult
gridThenNelderMeadResume(const Objective &f,
                         const std::vector<GridAxis> &axes,
                         const NelderMeadOptions &nm,
                         OptCheckpoint &checkpoint, const OptHooks &hooks)
{
    if (checkpoint.phase == OptPhase::Grid) {
        gridSearchResume(f, axes, checkpoint.grid, hooks);
        checkpoint.phase = OptPhase::Nm;
        if (hooks.on_progress)
            hooks.on_progress();
    }
    const GridSearchState &seed = checkpoint.grid;
    if (checkpoint.phase == OptPhase::Nm) {
        OptResult refined =
            nelderMeadResume(f, seed.best_x, nm, checkpoint.nm, hooks);
        if (seed.best_value < refined.value) {
            // Guard against a pathological refinement step.
            refined.x = seed.best_x;
            refined.value = seed.best_value;
        }
        checkpoint.final_x = refined.x;
        checkpoint.final_value = refined.value;
        checkpoint.final_evaluations =
            refined.evaluations + seed.evaluations;
        checkpoint.phase = OptPhase::Done;
        if (hooks.on_progress)
            hooks.on_progress();
    }

    OptResult result;
    result.x = checkpoint.final_x;
    result.value = checkpoint.final_value;
    result.iterations = checkpoint.nm.iterations;
    result.evaluations = checkpoint.final_evaluations;
    result.converged = checkpoint.nm.converged;
    return result;
}

std::string
serializeCheckpoint(const OptCheckpoint &checkpoint)
{
    std::ostringstream os;
    bool first = true;
    auto field = [&](const char *key, const std::string &value) {
        os << (first ? "{\n" : ",\n") << "  \"" << key << "\": \""
           << value << "\"";
        first = false;
    };
    field("format", kFormat);
    field("problem_hash", checkpoint.problem_hash);
    field("phase", optPhaseName(checkpoint.phase));
    field("rng_state", checkpoint.rng_state);
    field("grid_cursor", text::joinInts(checkpoint.grid.cursor));
    field("grid_best_x", text::joinHexDoubles(checkpoint.grid.best_x));
    field("grid_best_value", text::formatHexDouble(checkpoint.grid.best_value));
    field("grid_evaluations",
          std::to_string(checkpoint.grid.evaluations));
    field("grid_done", checkpoint.grid.done ? "1" : "0");
    std::string simplex;
    for (std::size_t i = 0; i < checkpoint.nm.simplex.size(); ++i) {
        if (i)
            simplex += ';';
        simplex += text::joinHexDoubles(checkpoint.nm.simplex[i]);
    }
    field("nm_simplex", simplex);
    field("nm_values", text::joinHexDoubles(checkpoint.nm.values));
    field("nm_iterations", std::to_string(checkpoint.nm.iterations));
    field("nm_evaluations", std::to_string(checkpoint.nm.evaluations));
    field("nm_converged", checkpoint.nm.converged ? "1" : "0");
    field("nm_initialized", checkpoint.nm.initialized ? "1" : "0");
    field("final_x", text::joinHexDoubles(checkpoint.final_x));
    field("final_value", text::formatHexDouble(checkpoint.final_value));
    field("final_evaluations",
          std::to_string(checkpoint.final_evaluations));
    os << "\n}\n";
    return os.str();
}

OptCheckpoint
parseCheckpoint(const std::string &json)
{
    const kv::Record record = kv::parse(json);
    QAOA_CHECK(record.has("format"), "checkpoint: missing format field");
    OptCheckpoint cp;
    for (const auto &[key, value] : record.fields()) {
        const auto integer = [&] {
            return text::orThrow(text::parseInt(value), "checkpoint", key);
        };
        const auto real = [&] {
            return text::orThrow(text::parseHexDouble(value), "checkpoint",
                                 key);
        };
        const auto reals = [&](const std::string &list) {
            return text::orThrow(text::parseHexDoubleList(list),
                                 "checkpoint", key);
        };
        const auto flag = [&] {
            QAOA_CHECK(value == "0" || value == "1",
                       "checkpoint: " << key << ": boolean must be 0 or 1, "
                                      << "got: " << value);
            return value == "1";
        };
        if (key == "format") {
            QAOA_CHECK(value == kFormat,
                       "checkpoint: unsupported format \"" << value
                                                           << "\"");
        } else if (key == "problem_hash") {
            cp.problem_hash = value;
        } else if (key == "phase") {
            if (value == "grid")
                cp.phase = OptPhase::Grid;
            else if (value == "nm")
                cp.phase = OptPhase::Nm;
            else if (value == "done")
                cp.phase = OptPhase::Done;
            else
                QAOA_CHECK(false,
                           "checkpoint: unknown phase \"" << value
                                                          << "\"");
        } else if (key == "rng_state") {
            cp.rng_state = value;
        } else if (key == "grid_cursor") {
            cp.grid.cursor =
                text::orThrow(text::parseIntList(value), "checkpoint", key);
        } else if (key == "grid_best_x") {
            cp.grid.best_x = reals(value);
        } else if (key == "grid_best_value") {
            cp.grid.best_value = real();
        } else if (key == "grid_evaluations") {
            cp.grid.evaluations = integer();
        } else if (key == "grid_done") {
            cp.grid.done = flag();
        } else if (key == "nm_simplex") {
            cp.nm.simplex.clear();
            for (const std::string &row : text::split(value, ';'))
                cp.nm.simplex.push_back(reals(row));
        } else if (key == "nm_values") {
            cp.nm.values = reals(value);
        } else if (key == "nm_iterations") {
            cp.nm.iterations = integer();
        } else if (key == "nm_evaluations") {
            cp.nm.evaluations = integer();
        } else if (key == "nm_converged") {
            cp.nm.converged = flag();
        } else if (key == "nm_initialized") {
            cp.nm.initialized = flag();
        } else if (key == "final_x") {
            cp.final_x = reals(value);
        } else if (key == "final_value") {
            cp.final_value = real();
        } else if (key == "final_evaluations") {
            cp.final_evaluations = integer();
        } else {
            QAOA_CHECK(false,
                       "checkpoint: unknown key \"" << key << "\"");
        }
    }
    return cp;
}

void
saveCheckpointFile(const std::string &path,
                   const OptCheckpoint &checkpoint)
{
    // fs::atomicWriteFile owns the crash-safety story (unique temp
    // name + rename, retry ladder) and reports OS-level detail —
    // "rename failed: No space left on device" instead of a bare
    // "write failed".  Every persistence write in this file routes
    // through it — the QS002 invariant (scripts/check_invariants.py)
    // rejects a direct write-open here, and the unique temp names
    // mean two concurrent savers need no lock: last rename wins with
    // both candidates complete.
    if (const auto fp = failpoint::poll("checkpoint.save"); fp.fires()) {
        errno = fp.error_number != 0 ? fp.error_number : EIO;
        throw std::runtime_error(
            fs::errnoDetail("checkpoint: injected save fault for " + path));
    }
    fs::atomicWriteFile(path, serializeCheckpoint(checkpoint));
}

bool
loadCheckpointFile(const std::string &path, OptCheckpoint &out)
{
    if (const auto fp = failpoint::poll("checkpoint.load"); fp.fires()) {
        errno = fp.error_number != 0 ? fp.error_number : EIO;
        throw std::runtime_error(
            fs::errnoDetail("checkpoint: injected load fault for " + path));
    }
    std::string body;
    // fs::readFile keeps ENOENT (resume with no checkpoint: false) a
    // different outcome from a transient read fault (throws) — a
    // flaky disk must not silently restart an optimization from
    // scratch and discard converged progress.
    if (!fs::readFile(path, body))
        return false;
    out = parseCheckpoint(body);
    return true;
}

std::string
artifactPathFor(const std::string &checkpoint_path)
{
    return checkpoint_path + ".qbin";
}

void
saveArtifactFile(const std::string &path, const std::string &bytes)
{
    fs::atomicWriteFile(path, bytes);
}

bool
loadArtifactFile(const std::string &path, std::string &out)
{
    return fs::readFile(path, out);
}

} // namespace qaoa::opt
