#include "bvlint/lint.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <regex>
#include <unordered_set>

namespace bvlint
{
namespace
{

/**
 * A file split into lines twice: `raw` keeps the text verbatim (the
 * suppression comments live there), `code` has comments removed and
 * string/char literal contents blanked (delimiters kept, so patterns
 * like `assert(` match a call but never a comment or a string).
 */
struct FileView
{
    std::vector<std::string> raw;
    std::vector<std::string> code;
};

FileView
makeView(const std::string &text)
{
    FileView view;
    enum class State { Normal, InString, InChar, LineComment, BlockComment };
    State state = State::Normal;
    std::string raw;
    std::string code;

    const std::size_t n = text.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = text[i];
        const char next = i + 1 < n ? text[i + 1] : '\0';
        if (c == '\r')
            continue;
        if (c == '\n') {
            view.raw.push_back(std::move(raw));
            view.code.push_back(std::move(code));
            raw.clear();
            code.clear();
            // Unterminated strings only happen in broken input; resync.
            if (state != State::BlockComment)
                state = State::Normal;
            continue;
        }
        raw += c;
        switch (state) {
          case State::Normal:
            if (c == '/' && next == '/') {
                state = State::LineComment;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                raw += next;
                ++i;
            } else if (c == '"') {
                state = State::InString;
                code += c;
            } else if (c == '\'') {
                state = State::InChar;
                code += c;
            } else {
                code += c;
            }
            break;
          case State::InString:
            if (c == '\\' && i + 1 < n) {
                raw += next;
                ++i;
            } else if (c == '"') {
                state = State::Normal;
                code += c;
            }
            break;
          case State::InChar:
            if (c == '\\' && i + 1 < n) {
                raw += next;
                ++i;
            } else if (c == '\'') {
                state = State::Normal;
                code += c;
            }
            break;
          case State::LineComment:
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Normal;
                raw += next;
                ++i;
            }
            break;
        }
    }
    if (!raw.empty() || !code.empty()) {
        view.raw.push_back(std::move(raw));
        view.code.push_back(std::move(code));
    }
    return view;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** `// bvlint-allow(BVxxx)` on the finding line or the line above. */
bool
suppressed(const FileView &view, std::size_t line, const std::string &rule)
{
    const std::string marker = "bvlint-allow(" + rule + ")";
    const auto hasMarker = [&](std::size_t ln) {
        return ln >= 1 && ln <= view.raw.size() &&
               view.raw[ln - 1].find(marker) != std::string::npos;
    };
    return hasMarker(line) || hasMarker(line - 1);
}

void
report(std::vector<Finding> &out, const FileView &view,
       const std::string &file, std::size_t line, const char *rule,
       std::string message)
{
    if (!suppressed(view, line, rule))
        out.push_back({file, line, rule, std::move(message)});
}

// ---------------------------------------------------------------- BV002

const std::regex kNondet(
    R"(\b(rand|srand|time)\s*\(|\brandom_device\b)");

void
lintNondeterminism(std::vector<Finding> &out, const SourceFile &src,
                   const FileView &view)
{
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        std::smatch m;
        if (std::regex_search(view.code[i], m, kNondet))
            report(out, view, src.path, i + 1, "BV002",
                   "nondeterministic primitive '" + m.str() +
                       "'; use the seeded bvc::Rng so runs replay "
                       "bit-identically");
    }
}

// ---------------------------------------------------------------- BV003

const std::regex kEnumClassDecl(R"(\benum\s+(class|struct)\s+(\w+))");
const std::regex kSwitchKeyword(R"(\bswitch\b)");
const std::regex kCaseLabel(R"(\bcase\s+(\w+)\s*::)");
const std::regex kDefaultLabel(R"(\bdefault\s*:)");

void
collectEnumNames(const FileView &view,
                 std::unordered_set<std::string> &names)
{
    for (const std::string &line : view.code) {
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          kEnumClassDecl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.insert((*it)[2].str());
    }
}

/**
 * Flag `default:` labels inside switch blocks that also contain a
 * `case EnumName::` label for a known project enum class. Plain-enum
 * and integer switches (FPC prefixes, char escapes) are untouched; an
 * exhaustive enum-class switch with a default silently swallows newly
 * added enumerators that -Wswitch would otherwise catch.
 */
void
lintEnumSwitchDefault(std::vector<Finding> &out, const SourceFile &src,
                      const FileView &view,
                      const std::unordered_set<std::string> &enums)
{
    struct SwitchCtx
    {
        bool opened = false;
        int blockDepth = 0;
        bool enumCase = false;
        std::vector<std::size_t> defaults;
    };
    std::vector<SwitchCtx> stack;
    int depth = 0;

    const auto flush = [&](const SwitchCtx &ctx) {
        if (!ctx.enumCase)
            return;
        for (const std::size_t line : ctx.defaults)
            report(out, view, src.path, line, "BV003",
                   "'default:' in a switch over a project enum class; "
                   "enumerate every case so -Wswitch flags additions");
    };

    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string &line = view.code[i];
        if (std::regex_search(line, kSwitchKeyword))
            stack.push_back({});
        for (const char c : line) {
            if (c == '{') {
                ++depth;
                if (!stack.empty() && !stack.back().opened) {
                    stack.back().opened = true;
                    stack.back().blockDepth = depth;
                }
            } else if (c == '}') {
                if (!stack.empty() && stack.back().opened &&
                    depth == stack.back().blockDepth) {
                    flush(stack.back());
                    stack.pop_back();
                }
                --depth;
            }
        }
        if (stack.empty() || !stack.back().opened)
            continue;
        auto begin =
            std::sregex_iterator(line.begin(), line.end(), kCaseLabel);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            if (enums.count((*it)[1].str()))
                stack.back().enumCase = true;
        }
        if (std::regex_search(line, kDefaultLabel))
            stack.back().defaults.push_back(i + 1);
    }
    // Broken input can leave contexts open; still report what we saw.
    for (const SwitchCtx &ctx : stack)
        flush(ctx);
}

// ---------------------------------------------------------------- BV004

const std::regex kBareAssert(R"(\bassert\s*\()");

void
lintBareAssert(std::vector<Finding> &out, const SourceFile &src,
               const FileView &view)
{
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        // \b keeps static_assert out ('_' is a word character).
        if (std::regex_search(view.code[i], kBareAssert))
            report(out, view, src.path, i + 1, "BV004",
                   "bare assert() compiles out under NDEBUG; use "
                   "panic()/panicIf() so invariants hold in release "
                   "builds");
    }
}

// ---------------------------------------------------------------- BV006

const std::regex kStdEndl(R"(\bstd\s*::\s*endl\b)");

/**
 * std::endl is '\n' plus a stream flush; in per-access or per-job
 * output paths the hidden flush turns buffered I/O into a syscall per
 * line. The project writes '\n' and flushes explicitly where a flush
 * is actually wanted.
 */
void
lintStdEndl(std::vector<Finding> &out, const SourceFile &src,
            const FileView &view)
{
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        if (std::regex_search(view.code[i], kStdEndl))
            report(out, view, src.path, i + 1, "BV006",
                   "std::endl flushes the stream on every line; "
                   "write '\\n' (and flush explicitly if needed)");
    }
}

// ---------------------------------------------------------------- BV005

const std::regex kIfndef(R"(^\s*#\s*ifndef\s+(\w+))");
const std::regex kDefine(R"(^\s*#\s*define\s+(\w+))");
const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");

void
lintIncludeGuard(std::vector<Finding> &out, const SourceFile &src,
                 const FileView &view)
{
    if (!endsWith(src.path, ".hh"))
        return;
    const std::string expected = expectedGuard(src.path);
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string &line = view.code[i];
        if (std::regex_search(line, kPragmaOnce)) {
            report(out, view, src.path, i + 1, "BV005",
                   "'#pragma once' is not used here; guard with "
                   "#ifndef " + expected);
            return;
        }
        std::smatch m;
        if (!std::regex_search(line, m, kIfndef))
            continue;
        if (m[1].str() != expected) {
            report(out, view, src.path, i + 1, "BV005",
                   "include guard '" + m[1].str() +
                       "' does not match the path (expected '" +
                       expected + "')");
            return;
        }
        // The guard must be defined right below the #ifndef.
        for (std::size_t j = i + 1; j < view.code.size(); ++j) {
            if (view.code[j].find_first_not_of(" \t") ==
                std::string::npos)
                continue;
            std::smatch d;
            if (!std::regex_search(view.code[j], d, kDefine) ||
                d[1].str() != expected)
                report(out, view, src.path, j + 1, "BV005",
                       "#ifndef " + expected +
                           " is not followed by its #define");
            return;
        }
        return;
    }
    report(out, view, src.path, 1, "BV005",
           "missing include guard (expected '#ifndef " + expected +
               "')");
}

// ---------------------------------------------------------------- BV007

const std::regex kValueFnCandidate(
    R"((?:^|[^\w])((?:parse|read|verify)\w*)\s*\()");
const std::regex kVoidReturn(R"(\bvoid\b(?!\s*[*&]))");

std::string
rtrimmed(const std::string &s)
{
    const std::size_t end = s.find_last_not_of(" \t");
    return end == std::string::npos ? std::string()
                                    : s.substr(0, end + 1);
}

/**
 * True when `text` plausibly ends a declaration's return type: it ends
 * in an identifier, template close, pointer or reference — not in an
 * operator or a keyword that introduces an expression, so call sites
 * like `return readFoo(x)` or `ok && readFoo(x)` stay clean.
 */
bool
endsLikeReturnType(const std::string &text)
{
    if (text.empty())
        return false;
    const std::size_t first = text.find_first_not_of(" \t");
    if (first != std::string::npos && text[first] == '#')
        return false;
    const char last = text.back();
    const bool typeChar =
        std::isalnum(static_cast<unsigned char>(last)) != 0 ||
        last == '_' || last == '>' || last == '&' || last == '*';
    if (!typeChar)
        return false;
    if (endsWith(text, "&&") || endsWith(text, "||") ||
        endsWith(text, "->"))
        return false;
    std::size_t wordBegin = text.size();
    while (wordBegin > 0 &&
           (std::isalnum(static_cast<unsigned char>(
                text[wordBegin - 1])) != 0 ||
            text[wordBegin - 1] == '_'))
        --wordBegin;
    static const std::unordered_set<std::string> kExprKeywords = {
        "return", "co_return", "co_yield", "co_await", "throw",
        "case",   "goto",      "new",      "delete",   "else",
        "do",     "and",       "or",       "not",      "operator"};
    return kExprKeywords.count(text.substr(wordBegin)) == 0;
}

/**
 * Value-returning parse/read/verify functions declared in a header
 * without [[nodiscard]]. These functions report failure — or the
 * parsed value itself — through their return, so a discarded result
 * is almost always a missed error check. Headers only: the .cc
 * definition inherits the attribute from the declaration. Handles
 * both the one-line form (`bool parseFoo(...)`) and the project's
 * two-line form with the return type on the line above the name.
 */
void
lintMissingNodiscard(std::vector<Finding> &out, const SourceFile &src,
                     const FileView &view)
{
    if (!endsWith(src.path, ".hh"))
        return;
    const auto hasNodiscard = [&](std::size_t idx) {
        return idx < view.code.size() &&
               view.code[idx].find("[[nodiscard]]") !=
                   std::string::npos;
    };
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string &line = view.code[i];
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          kValueFnCandidate);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string prefix =
                rtrimmed(line.substr(
                    0, static_cast<std::size_t>(it->position(1))));
            std::size_t typeLine = i;
            if (prefix.empty()) {
                // Two-line style: the return type sits directly above.
                if (i == 0)
                    continue;
                typeLine = i - 1;
                const std::string ret = rtrimmed(view.code[typeLine]);
                if (!endsLikeReturnType(ret) ||
                    std::regex_search(ret, kVoidReturn))
                    continue;
            } else {
                if (!endsLikeReturnType(prefix) ||
                    std::regex_search(prefix, kVoidReturn))
                    continue;
            }
            if (hasNodiscard(i) || hasNodiscard(typeLine) ||
                (typeLine > 0 && hasNodiscard(typeLine - 1)))
                continue;
            // The waiver may sit above the whole declaration, i.e.
            // above the return-type line of the two-line form.
            if (suppressed(view, typeLine + 1, "BV007"))
                continue;
            report(out, view, src.path, i + 1, "BV007",
                   "value-returning '" + (*it)[1].str() +
                       "' is not [[nodiscard]]; a discarded result "
                       "drops an error or a parsed value");
        }
    }
}

// ---------------------------------------------------------------- BV008

const std::regex kGetArrow(R"(\.\s*get\s*\(\s*\)\s*->)");
const std::regex kGetNullCompare(
    R"(\.\s*get\s*\(\s*\)\s*[=!]=\s*nullptr|nullptr\s*[=!]=\s*[\w.>\[\]:-]+\.\s*get\s*\(\s*\))");
const std::regex kGetDeref(
    R"(\*\s*[A-Za-z_][\w.]*(?:->[\w.]*)*\.\s*get\s*\(\s*\))");

/**
 * True when the `*` at `starPos` reads as a dereference rather than a
 * multiplication: nothing before it on the line, an
 * expression-introducing character (`(`, `=`, `,`, ...), or an
 * expression keyword like `return`. Strong-type arithmetic such as
 * `ways_ * way.get()` has an operand before the star and stays clean.
 */
bool
starIsDeref(const std::string &line, std::size_t starPos)
{
    std::size_t i = starPos;
    while (i > 0 && (line[i - 1] == ' ' || line[i - 1] == '\t'))
        --i;
    if (i == 0)
        return true;
    const char prev = line[i - 1];
    if (std::isalnum(static_cast<unsigned char>(prev)) != 0 ||
        prev == '_') {
        std::size_t b = i;
        while (b > 0 &&
               (std::isalnum(static_cast<unsigned char>(
                    line[b - 1])) != 0 ||
                line[b - 1] == '_'))
            --b;
        static const std::unordered_set<std::string> kDerefKeywords = {
            "return", "co_return", "co_yield", "co_await", "throw",
            "case",   "else",      "do",       "and",      "or",
            "not"};
        return kDerefKeywords.count(line.substr(b, i - b)) != 0;
    }
    // `)` and `]` also end operands (`f(x) * y.get()`); every other
    // punctuator introduces an expression, so the star dereferences.
    return prev != ')' && prev != ']';
}

/**
 * Raw `.get()` unwraps of a smart pointer: `*p.get()`, `p.get()->`,
 * and `p.get() ==/!= nullptr` all have a direct form on the pointer
 * itself (`*p`, `p->`, `p != nullptr`). Only those three shapes are
 * flagged, so the two legitimate `.get()` classes stay clean by
 * construction: strong-type unwraps at array-index boundaries
 * (`row[way.get()]`, `set.get() * ways_` — util/strong_types.hh) and
 * raw-handle escapes like `dynamic_cast<T *>(p.get())`.
 */
void
lintGetUnwrap(std::vector<Finding> &out, const SourceFile &src,
              const FileView &view)
{
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string &line = view.code[i];
        if (line.find("get") == std::string::npos)
            continue;
        if (std::regex_search(line, kGetArrow)) {
            report(out, view, src.path, i + 1, "BV008",
                   "'.get()->' unwraps the smart pointer; call "
                   "through its own operator-> instead");
            continue;
        }
        if (std::regex_search(line, kGetNullCompare)) {
            report(out, view, src.path, i + 1, "BV008",
                   "'.get()' nullptr compare; test the smart pointer "
                   "directly, it converts to bool");
            continue;
        }
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          kGetDeref);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            if (!starIsDeref(line,
                             static_cast<std::size_t>(it->position(0))))
                continue;
            report(out, view, src.path, i + 1, "BV008",
                   "'*p.get()' dereferences through .get(); "
                   "dereference the smart pointer itself");
            break;
        }
    }
}

// ---------------------------------------------------------------- BV009

const std::regex kRawMutexType(R"(\bstd\s*::\s*(?:shared_)?mutex\b)");

/**
 * Identifier immediately before the `<` that encloses position `pos`,
 * or "" when `pos` is not directly inside a template argument list.
 * Only looks one level back — enough to tell `unique_lock<std::mutex>`
 * (a lock holder, fine) from `vector<std::mutex>` (a raw mutex array,
 * flagged).
 */
std::string
templateHolder(const std::string &line, std::size_t pos)
{
    std::size_t i = pos;
    while (i > 0 && (line[i - 1] == ' ' || line[i - 1] == '\t'))
        --i;
    if (i == 0 || line[i - 1] != '<')
        return {};
    --i;
    std::size_t end = i;
    while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\t'))
        --end;
    std::size_t begin = end;
    while (begin > 0 &&
           (std::isalnum(static_cast<unsigned char>(line[begin - 1])) !=
                0 ||
            line[begin - 1] == '_'))
        --begin;
    return line.substr(begin, end - begin);
}

/**
 * Raw std::mutex / std::shared_mutex declarations. Lock-holder
 * template uses (`std::unique_lock<std::mutex>` and friends) are the
 * ONLY pass: a mutex inside any other template (`std::vector<
 * std::mutex>`) is still an unannotated lock array. Only declaration
 * lines (carrying a `;`) are flagged, so mentions in comments/strings
 * are already gone and expressions never name the type.
 */
void
lintRawMutex(std::vector<Finding> &out, const SourceFile &src,
             const FileView &view)
{
    static const std::unordered_set<std::string> kLockHolders = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
    for (std::size_t i = 0; i < view.code.size(); ++i) {
        const std::string &line = view.code[i];
        if (line.find("mutex") == std::string::npos ||
            line.find(';') == std::string::npos)
            continue;
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          kRawMutexType);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string holder = templateHolder(
                line, static_cast<std::size_t>(it->position(0)));
            if (kLockHolders.count(holder) != 0)
                continue;
            report(out, view, src.path, i + 1, "BV009",
                   "raw '" + it->str() + "' declaration; use "
                   "bvc::AnnotatedMutex (util/thread_annotations.hh) "
                   "so -Wthread-safety can check the locking contract");
            break;
        }
    }
}

// ---------------------------------------------------------------- BV010

const std::regex kRecordKeyword(R"(\b(class|struct|union)\b)");
const std::regex kEnumOpen(R"(\benum\b)");
const std::regex kAccessLabel(R"(^\s*(public|private|protected)\s*:)");
const std::regex kTemplateIntro(R"(\btemplate\s*<[^<>]*>)");

/** Leading keyword of a trimmed code line ("" when none). */
std::string
leadingWord(const std::string &line)
{
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos)
        return {};
    std::size_t j = i;
    while (j < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[j])) != 0 ||
            line[j] == '_'))
        ++j;
    return line.substr(i, j - i);
}

/** True when the raw line above `line` carries any comment text. */
bool
documentedAbove(const FileView &view, std::size_t lineIdx)
{
    if (lineIdx == 0)
        return false;
    const std::string &above = view.raw[lineIdx - 1];
    const std::size_t first = above.find_first_not_of(" \t");
    if (first == std::string::npos)
        return false;
    // `//` and `/*` starts, `*/` ends, and the ` * ` continuation
    // lines of a block comment all count.
    if (above.compare(first, 2, "//") == 0 ||
        above.compare(first, 2, "/*") == 0 || above[first] == '*')
        return true;
    return above.find("*/") != std::string::npos;
}

/**
 * Public data members in headers must carry a doc comment: either a
 * trailing `//!<` on the declaration line or a comment line directly
 * above. Tracks class/struct/enum/union nesting with access labels
 * (struct/union default public, class private); function declarations
 * and macro-annotated members are recognized by their parentheses and
 * skipped — the annotation macros all take arguments, so annotated
 * members are documented at the API-comment level instead. Parentheses
 * are counted across lines, so the continuation lines of a declaration
 * split over several lines (`std::uint8_t *out) const override;`) are
 * skipped too.
 */
void
lintMemberDocs(std::vector<Finding> &out, const SourceFile &src,
               const FileView &view)
{
    if (!endsWith(src.path, ".hh"))
        return;

    struct Scope
    {
        enum class Kind { Record, Enum, Other };
        Kind kind = Kind::Other;
        bool publicAccess = false;
    };
    std::vector<Scope> stack;
    bool pendingRecord = false;
    bool pendingPublic = false;
    bool pendingEnum = false;
    // Parentheses still open at the start of the current line.
    long openParens = 0;

    static const std::unordered_set<std::string> kNonMemberIntro = {
        "using",  "typedef", "friend",  "static_assert", "public",
        "private", "protected", "template", "namespace", "return",
        "if",     "else",    "for",     "while",         "switch",
        "case",   "default", "goto",    "extern",        "operator"};

    for (std::size_t i = 0; i < view.code.size(); ++i) {
        // Template parameter lists contain the `class` keyword without
        // opening a record scope; drop them before keyword detection.
        const std::string line =
            std::regex_replace(view.code[i], kTemplateIntro, "");

        std::smatch access;
        if (!stack.empty() &&
            stack.back().kind == Scope::Kind::Record &&
            std::regex_search(line, access, kAccessLabel))
            stack.back().publicAccess = access[1].str() == "public";

        const bool inPublicRecord =
            !stack.empty() && stack.back().kind == Scope::Kind::Record &&
            stack.back().publicAccess;
        const bool scopeKeyword =
            std::regex_search(line, kRecordKeyword) ||
            std::regex_search(line, kEnumOpen);

        const bool continuation = openParens > 0;
        openParens = std::max<long>(
            0, openParens + std::count(line.begin(), line.end(), '(') -
                   std::count(line.begin(), line.end(), ')'));

        if (inPublicRecord && !scopeKeyword && !continuation &&
            line.find('{') == std::string::npos &&
            line.find('}') == std::string::npos) {
            const std::string trimmed = rtrimmed(line);
            const std::string intro = leadingWord(line);
            if (!trimmed.empty() && trimmed.back() == ';' &&
                !intro.empty() && intro != "BVC" &&
                kNonMemberIntro.count(intro) == 0 &&
                line.find('(') == std::string::npos) {
                // Two identifiers minimum (type + name) so stray `;`
                // and label-like lines stay clean.
                static const std::regex kTwoTokens(
                    R"([A-Za-z_]\w*[\s>&*\]]+[A-Za-z_]\w*\s*[;={[])");
                if (std::regex_search(line, kTwoTokens) &&
                    view.raw[i].find("//!<") == std::string::npos &&
                    !documentedAbove(view, i))
                    report(out, view, src.path, i + 1, "BV010",
                           "public data member without a doc comment; "
                           "add a trailing //!< note or a comment line "
                           "above");
            }
        }

        // Scope bookkeeping after the member check: a positional
        // sweep where a record/enum keyword arms the NEXT `{`, a `;`
        // before that brace disarms it (forward declaration), and
        // braces push/pop for the following lines.
        struct Marker
        {
            std::size_t pos;
            bool isEnum;
            bool defaultPublic;
        };
        std::vector<Marker> markers;
        auto records = std::sregex_iterator(line.begin(), line.end(),
                                            kRecordKeyword);
        for (auto it = records; it != std::sregex_iterator(); ++it)
            markers.push_back({static_cast<std::size_t>(it->position(0)),
                               false, (*it)[1].str() != "class"});
        auto enums = std::sregex_iterator(line.begin(), line.end(),
                                          kEnumOpen);
        for (auto it = enums; it != std::sregex_iterator(); ++it)
            markers.push_back(
                {static_cast<std::size_t>(it->position(0)), true,
                 false});
        std::sort(markers.begin(), markers.end(),
                  [](const Marker &a, const Marker &b) {
                      return a.pos < b.pos;
                  });
        std::size_t nextMarker = 0;
        for (std::size_t p = 0; p < line.size(); ++p) {
            while (nextMarker < markers.size() &&
                   markers[nextMarker].pos == p) {
                // `enum class` arms enum (it matches both regexes).
                if (!pendingEnum) {
                    pendingEnum = markers[nextMarker].isEnum;
                    pendingRecord = !markers[nextMarker].isEnum;
                    pendingPublic = markers[nextMarker].defaultPublic;
                }
                ++nextMarker;
            }
            const char c = line[p];
            if (c == ';') {
                pendingRecord = pendingPublic = pendingEnum = false;
            } else if (c == '{') {
                Scope scope;
                if (pendingEnum) {
                    scope.kind = Scope::Kind::Enum;
                } else if (pendingRecord) {
                    scope.kind = Scope::Kind::Record;
                    scope.publicAccess = pendingPublic;
                }
                stack.push_back(scope);
                pendingRecord = pendingPublic = pendingEnum = false;
            } else if (c == '}') {
                if (!stack.empty())
                    stack.pop_back();
            }
        }
    }
}

bool
lintableSource(const std::string &path)
{
    return endsWith(path, ".cc") || endsWith(path, ".hh");
}

} // namespace

const std::vector<Rule> &
ruleTable()
{
    static const std::vector<Rule> kRules = {
        {"BV002", "nondeterminism",
         "No rand()/srand()/time()/std::random_device; use the seeded "
         "bvc::Rng."},
        {"BV003", "enum-switch-default",
         "No 'default:' in switches over project enum classes; "
         "enumerate every case."},
        {"BV004", "bare-assert",
         "No bare assert() in model code; use panic()/panicIf()."},
        {"BV005", "include-guard",
         "Header guards must be BVC_<PATH>_HH_ derived from the file "
         "path."},
        {"BV006", "endl-flush",
         "No std::endl; write '\\n' and flush explicitly where a "
         "flush is intended."},
        {"BV007", "missing-nodiscard",
         "Value-returning parse*/read*/verify* functions declared in "
         "headers must be [[nodiscard]]."},
        {"BV008", "get-unwrap",
         "No *p.get(), p.get()->, or p.get() ==/!= nullptr; use the "
         "smart pointer directly. Strong-type .get() and "
         "dynamic_cast<T *>(p.get()) are fine."},
        {"BV009", "raw-mutex",
         "No raw std::mutex/std::shared_mutex declarations; use "
         "bvc::AnnotatedMutex so -Wthread-safety checks the locking "
         "contract. Lock holders (std::unique_lock<std::mutex>) are "
         "fine."},
        {"BV010", "member-doc",
         "Public data members in headers need a doc comment: a "
         "trailing //!< note or a comment line directly above."},
    };
    return kRules;
}

std::string
expectedGuard(const std::string &path)
{
    // Split into components, dropping "." and empty pieces.
    std::vector<std::string> parts;
    std::string part;
    for (const char c : path + "/") {
        if (c == '/' || c == '\\') {
            if (!part.empty() && part != ".")
                parts.push_back(part);
            part.clear();
        } else {
            part += c;
        }
    }

    // Anchor at the last known root component so absolute paths and
    // repo-relative paths produce the same guard. `src/` is dropped
    // (matching the existing headers); the other roots are kept.
    static const std::vector<std::string> kRoots = {
        "src", "tests", "tools", "bench", "examples"};
    std::size_t begin = parts.empty() ? 0 : parts.size() - 1;
    for (std::size_t i = parts.size(); i-- > 0;) {
        if (std::find(kRoots.begin(), kRoots.end(), parts[i]) !=
            kRoots.end()) {
            begin = parts[i] == "src" ? i + 1 : i;
            break;
        }
    }

    std::string guard = "BVC";
    for (std::size_t i = begin; i < parts.size(); ++i) {
        guard += '_';
        for (const char c : parts[i])
            guard += std::isalnum(static_cast<unsigned char>(c))
                         ? static_cast<char>(
                               std::toupper(static_cast<unsigned char>(c)))
                         : '_';
    }
    return guard + '_';
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files)
{
    return lintFiles(files, LintOptions{});
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files,
          const LintOptions &options)
{
    std::vector<FileView> views;
    views.reserve(files.size());
    std::unordered_set<std::string> enums;
    for (const SourceFile &src : files) {
        views.push_back(makeView(src.text));
        if (lintableSource(src.path))
            collectEnumNames(views.back(), enums);
    }

    std::vector<Finding> findings;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (!lintableSource(files[i].path))
            continue;
        lintNondeterminism(findings, files[i], views[i]);
        lintEnumSwitchDefault(findings, files[i], views[i], enums);
        lintBareAssert(findings, files[i], views[i]);
        lintIncludeGuard(findings, files[i], views[i]);
        lintStdEndl(findings, files[i], views[i]);
        lintMissingNodiscard(findings, files[i], views[i]);
        lintGetUnwrap(findings, files[i], views[i]);
        lintRawMutex(findings, files[i], views[i]);
        lintMemberDocs(findings, files[i], views[i]);
    }

    if (!options.suppressions.empty()) {
        const auto waived = [&](const Finding &f) {
            for (const FileSuppression &s : options.suppressions) {
                if (!matchesPattern(s.pattern, f.file))
                    continue;
                for (const std::string &rule : s.rules)
                    if (rule == "*" || rule == f.rule)
                        return true;
            }
            return false;
        };
        findings.erase(std::remove_if(findings.begin(), findings.end(),
                                      waived),
                       findings.end());
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

bool
matchesPattern(const std::string &pattern, const std::string &path)
{
    // Iterative wildcard match: `*` matches any run (incl. '/').
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() &&
            (pattern[p] == path[s] || pattern[p] == '?')) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool
parseSuppressionConfig(const std::string &text,
                       std::vector<FileSuppression> &out,
                       std::string &error)
{
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        std::string line = text.substr(
            pos, eol == std::string::npos ? std::string::npos
                                          : eol - pos);
        ++lineNo;
        pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        // Tokenize on whitespace and commas.
        std::vector<std::string> tokens;
        std::string token;
        for (const char c : line + " ") {
            if (c == ' ' || c == '\t' || c == ',' || c == '\r') {
                if (!token.empty())
                    tokens.push_back(token);
                token.clear();
            } else {
                token += c;
            }
        }
        if (tokens.empty())
            continue;
        if (tokens.size() < 2) {
            error = "suppression line " + std::to_string(lineNo) +
                    ": expected '<pattern> <rule>[,<rule>...]'";
            return false;
        }
        FileSuppression entry;
        entry.pattern = tokens.front();
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const std::string &rule = tokens[i];
            const bool id = rule.size() == 5 &&
                            rule.compare(0, 2, "BV") == 0 &&
                            std::isdigit(static_cast<unsigned char>(
                                rule[2])) != 0 &&
                            std::isdigit(static_cast<unsigned char>(
                                rule[3])) != 0 &&
                            std::isdigit(static_cast<unsigned char>(
                                rule[4])) != 0;
            if (!id && rule != "*") {
                error = "suppression line " + std::to_string(lineNo) +
                        ": '" + rule +
                        "' is not a BVxxx rule id or '*'";
                return false;
            }
            entry.rules.push_back(rule);
        }
        out.push_back(std::move(entry));
    }
    return true;
}

namespace
{

/** Parse the JSON string whose opening quote is at `pos`; advances
 *  `pos` past the closing quote. */
bool
parseJsonString(const std::string &text, std::size_t &pos,
                std::string &out)
{
    out.clear();
    if (pos >= text.size() || text[pos] != '"')
        return false;
    ++pos;
    while (pos < text.size()) {
        const char c = text[pos];
        if (c == '"') {
            ++pos;
            return true;
        }
        if (c == '\\') {
            if (pos + 1 >= text.size())
                return false;
            const char esc = text[pos + 1];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              default:
                // \uXXXX never appears in compile_commands paths this
                // project generates; refuse rather than mis-decode.
                return false;
            }
            pos += 2;
            continue;
        }
        out += c;
        ++pos;
    }
    return false;
}

std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

bool
parseCompileCommands(const std::string &text,
                     std::vector<std::string> &out, std::string &error)
{
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || text[first] != '[') {
        error = "compile_commands: not a JSON array";
        return false;
    }
    // Minimal scan: walk every string; one followed by ':' is a key,
    // and a "file" key's value string is a TU path. Nothing else in
    // the database matters to TU selection.
    std::size_t pos = first + 1;
    while (pos < text.size()) {
        const char c = text[pos];
        if (c != '"') {
            ++pos;
            continue;
        }
        std::string key;
        if (!parseJsonString(text, pos, key)) {
            error = "compile_commands: malformed string at byte " +
                    std::to_string(pos);
            return false;
        }
        std::size_t after = text.find_first_not_of(" \t\r\n", pos);
        if (after == std::string::npos || text[after] != ':')
            continue; // a value string, not a key
        if (key != "file") {
            pos = after + 1;
            continue;
        }
        pos = text.find_first_not_of(" \t\r\n", after + 1);
        if (pos == std::string::npos || text[pos] != '"') {
            error = "compile_commands: \"file\" value is not a string";
            return false;
        }
        std::string value;
        if (!parseJsonString(text, pos, value)) {
            error = "compile_commands: malformed string at byte " +
                    std::to_string(pos);
            return false;
        }
        out.push_back(std::move(value));
    }
    return true;
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    std::string out = "{\"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i > 0)
            out += ',';
        out += "\n  {\"file\": \"" + jsonEscaped(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"" + jsonEscaped(f.rule) +
               "\", \"message\": \"" + jsonEscaped(f.message) + "\"}";
    }
    out += findings.empty() ? "]}\n" : "\n]}\n";
    return out;
}

} // namespace bvlint
