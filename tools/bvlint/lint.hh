/**
 * @file
 * bvlint: the project linter enforcing conventions the compiler cannot
 * (docs/static_analysis.md). The engine is a plain text scanner — no
 * libclang dependency — tuned to this codebase's idioms:
 *
 *   BV002  nondeterministic primitive (rand/srand/time/random_device)
 *   BV003  `default:` label in a switch over a project enum class
 *   BV004  bare assert() in model code (use panic/panicIf)
 *   BV005  include-guard name does not match the header path
 *   BV006  std::endl flush (write '\n', flush explicitly if wanted)
 *   BV007  value-returning parse/read/verify function declared in a
 *          header without [[nodiscard]]
 *   BV008  raw `.get()` unwrap of a smart pointer (`*p.get()`,
 *          `p.get()->`, `p.get() == nullptr`); strong-type `.get()`
 *          and `dynamic_cast<T *>(p.get())` stay clean
 *   BV009  raw `std::mutex`/`std::shared_mutex` data member — declare
 *          a `bvc::AnnotatedMutex` (util/thread_annotations.hh) so the
 *          locking contract is visible to -Wthread-safety; lock
 *          holders (`std::unique_lock<std::mutex>` etc.) stay clean
 *   BV010  public data member in a header without a doc comment
 *          (trailing `//!<` or a comment line directly above)
 *
 * Any finding can be waived with a `// bvlint-allow(BVxxx)` comment on
 * the offending line or the line directly above it; whole files can be
 * waived per rule with a suppression config (parseSuppressionConfig).
 */

#ifndef BVC_TOOLS_BVLINT_LINT_HH_
#define BVC_TOOLS_BVLINT_LINT_HH_

#include <cstddef>
#include <string>
#include <vector>

namespace bvlint
{

/** One linted translation unit: display path plus full contents. */
struct SourceFile
{
    std::string path; //!< display path, as given on the command line
    std::string text; //!< full file contents
};

/** One rule violation, ready to print as `file:line: id: message`. */
struct Finding
{
    std::string file;     //!< path as scanned
    std::size_t line = 0; //!< 1-based
    std::string rule;     //!< machine-readable id, e.g. "BV003"
    std::string message;  //!< human-readable explanation
};

/** Static description of a rule for --list-rules and the docs. */
struct Rule
{
    const char *id;          //!< "BVxxx"
    const char *name;        //!< short kebab-case label
    const char *description; //!< one-paragraph rationale
};

/** One suppression-config entry: waive `rules` in matching files. */
struct FileSuppression
{
    /** Path pattern; `*` matches any run of characters (incl. '/'). */
    std::string pattern;
    /** Rule ids to waive, or the single entry "*" for every rule. */
    std::vector<std::string> rules;
};

/** Knobs applied on top of the per-line bvlint-allow markers. */
struct LintOptions
{
    std::vector<FileSuppression> suppressions; //!< first match wins
};

/** The rule table, in id order. */
const std::vector<Rule> &ruleTable();

/**
 * Lint a set of files as one project. The whole set is passed at once
 * because BV003 first collects every `enum class` name across the set,
 * then flags `default:` labels in switches over those enums.
 */
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files);
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files,
                               const LintOptions &options);

/** True when `pattern` (with `*` wildcards) matches all of `path`. */
[[nodiscard]] bool matchesPattern(const std::string &pattern,
                                  const std::string &path);

/**
 * Parse a suppression config: one `<pattern> <rule>[,<rule>...]` entry
 * per line, `#` comments and blank lines ignored, rules either BVxxx
 * ids or `*`. Returns false (with `error` set) on a malformed line.
 */
[[nodiscard]] bool
parseSuppressionConfig(const std::string &text,
                       std::vector<FileSuppression> &out,
                       std::string &error);

/**
 * Extract every "file" entry from a compile_commands.json database.
 * Deliberately a minimal scan (strings + key positions) rather than a
 * full JSON parser: the schema is fixed and bvlint links nothing.
 * Returns false (with `error` set) when `text` is not a JSON array or
 * a string is malformed.
 */
[[nodiscard]] bool parseCompileCommands(const std::string &text,
                                        std::vector<std::string> &out,
                                        std::string &error);

/**
 * Findings as a stable JSON document (`{"findings": [...]}`, sorted
 * the way lintFiles returns them) for --json and the baseline ratchet
 * (scripts/check_lint_baseline.py).
 */
std::string findingsToJson(const std::vector<Finding> &findings);

/**
 * The include guard BV005 expects for `path`: the path relative to the
 * repo root, uppercased, punctuation mapped to '_', wrapped as
 * `BVC_..._`; the leading `src/` component is dropped (matching the
 * existing headers), while `tests/`, `tools/`, `bench/` and
 * `examples/` are kept.
 */
std::string expectedGuard(const std::string &path);

} // namespace bvlint

#endif // BVC_TOOLS_BVLINT_LINT_HH_
