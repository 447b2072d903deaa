/**
 * @file
 * Flat key/value codec: one JSON object whose values are all strings.
 *
 * One dependency-free grammar for every flat record in the tree: wire
 * messages (serve/protocol.hpp), compile-cache entry metadata
 * (serve/cache.hpp) and optimizer checkpoints (opt/checkpoint.hpp) are
 * each one flat object.  The codec supports the JSON string escapes
 * \\n \\r \\t \\" \\\\ so QASM bodies and human-readable diagnostics
 * embed losslessly.  (Quality budgets hold bare JSON numbers and keep
 * their own reader in analysis/budget.cpp.)
 *
 * Keys keep their insertion order on serialize (stable output for
 * golden tests); duplicate keys are a parse error.
 */

#ifndef QAOA_COMMON_KV_HPP
#define QAOA_COMMON_KV_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qaoa::kv {

/** Ordered string map with last-one-wins lookup helpers. */
class Record
{
  public:
    /** Appends a field; duplicate keys are a programming error. */
    void set(const std::string &key, const std::string &value);

    /** True when @p key is present. */
    [[nodiscard]] bool has(const std::string &key) const;

    /** Value of @p key; throws std::runtime_error when absent. */
    [[nodiscard]] const std::string &get(const std::string &key) const;

    /** Value of @p key, or @p fallback when absent. */
    [[nodiscard]] std::string get(const std::string &key,
                                  const std::string &fallback) const;

    /** All fields in insertion order. */
    const std::vector<std::pair<std::string, std::string>> &
    fields() const
    {
        return fields_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Serializes @p record as a flat JSON object (escaped, one line). */
[[nodiscard]] std::string serialize(const Record &record);

/**
 * Parses a serialize()d document.
 *
 * @throws qaoa::Error (code Malformed/Unsupported, byte offset set) on
 *         malformed input, non-string values, unsupported escapes,
 *         duplicate keys, or trailing garbage.
 */
[[nodiscard]] Record parse(const std::string &text);

/**
 * Non-throwing parse for untrusted wire input: the Status carries the
 * diagnostic code and the byte offset of the first malformed byte.
 */
[[nodiscard]] StatusOr<Record> tryParse(const std::string &text);

/** Escapes \\n \\r \\t \\" \\\\ for embedding in a JSON string. */
[[nodiscard]] std::string escape(const std::string &raw);

} // namespace qaoa::kv

#endif // QAOA_COMMON_KV_HPP
