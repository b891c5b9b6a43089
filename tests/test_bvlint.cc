/**
 * @file
 * Tests for the bvlint project linter (tools/bvlint/,
 * docs/static_analysis.md): each known-bad fixture in
 * tests/lint_fixtures/ must trip exactly its rule, suppressions must
 * silence findings, and clean idiomatic code must produce none.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bvlint/lint.hh"

namespace
{

using bvlint::Finding;
using bvlint::SourceFile;

std::string
fixturePath(const std::string &name)
{
    return std::string(BVC_LINT_FIXTURE_DIR) + "/" + name;
}

SourceFile
loadFixture(const std::string &name)
{
    const std::string path = fixturePath(name);
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return {path, ss.str()};
}

/** Lint one fixture and return the set of rule ids it trips. */
std::set<std::string>
rulesTripped(const std::string &name, std::size_t &count)
{
    const std::vector<Finding> findings =
        bvlint::lintFiles({loadFixture(name)});
    count = findings.size();
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    return rules;
}

TEST(BvlintRules, TableListsNineUniqueIds)
{
    const auto &rules = bvlint::ruleTable();
    ASSERT_EQ(rules.size(), 9u);
    std::set<std::string> ids;
    for (const auto &rule : rules)
        ids.insert(rule.id);
    EXPECT_EQ(ids.size(), rules.size());
    // BV001 is retired, and its number is not reused.
    EXPECT_FALSE(ids.count("BV001"));
    EXPECT_TRUE(ids.count("BV002"));
    EXPECT_TRUE(ids.count("BV009"));
    EXPECT_TRUE(ids.count("BV010"));
}

TEST(BvlintFixtures, EachBadFixtureTripsExactlyItsRule)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"bad_rand.cc", "BV002"},
        {"bad_default.cc", "BV003"},
        {"bad_assert.cc", "BV004"},
        {"bad_include_guard.hh", "BV005"},
        {"bad_endl.cc", "BV006"},
        {"bad_nodiscard.hh", "BV007"},
        {"bad_get_unwrap.cc", "BV008"},
        {"bad_raw_mutex.cc", "BV009"},
        {"bad_member_doc.hh", "BV010"},
        {"bad_member_doc_continuation.hh", "BV010"},
    };
    for (const auto &[fixture, rule] : cases) {
        std::size_t count = 0;
        const std::set<std::string> tripped =
            rulesTripped(fixture, count);
        EXPECT_EQ(tripped, std::set<std::string>{rule})
            << fixture << " tripped the wrong rule set";
        EXPECT_GE(count, 1u) << fixture;
    }
}

TEST(BvlintFixtures, SuppressionCommentsSilenceEveryRule)
{
    std::size_t count = 0;
    const std::set<std::string> tripped =
        rulesTripped("suppressed.cc", count);
    EXPECT_TRUE(tripped.empty())
        << "unsuppressed rule: " << *tripped.begin();
    EXPECT_EQ(count, 0u);
}

TEST(BvlintSwitch, NonEnumSwitchWithDefaultIsAllowed)
{
    // Switches over chars or decoded integer prefixes keep their
    // defaults (runner/report.cc, compress/fpc.cc).
    const SourceFile src{"src/runner/demo.cc",
                         "int classify(char c) {\n"
                         "    switch (c) {\n"
                         "      case 'a': return 1;\n"
                         "      default: return 0;\n"
                         "    }\n"
                         "}\n"};
    EXPECT_TRUE(bvlint::lintFiles({src}).empty());
}

TEST(BvlintSwitch, EnumDeclaredInAnotherFileStillCounts)
{
    // BV003 collects enum class names across the whole file set, the
    // way enums in headers are switched over in .cc files.
    const SourceFile header{"src/util/kinds.hh",
                            "#ifndef BVC_UTIL_KINDS_HH_\n"
                            "#define BVC_UTIL_KINDS_HH_\n"
                            "enum class Kind { A, B };\n"
                            "#endif // BVC_UTIL_KINDS_HH_\n"};
    const SourceFile user{"src/util/use.cc",
                          "int f(Kind k) {\n"
                          "    switch (k) {\n"
                          "      case Kind::A: return 0;\n"
                          "      default: return 1;\n"
                          "    }\n"
                          "}\n"};
    const auto findings = bvlint::lintFiles({header, user});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "BV003");
    EXPECT_EQ(findings[0].file, "src/util/use.cc");
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(BvlintAssert, StaticAssertAndCommentsAreNotFlagged)
{
    const SourceFile src{"src/util/demo.cc",
                         "// assert() is banned; this comment is not.\n"
                         "static_assert(sizeof(int) == 4);\n"
                         "const char *s = \"assert(x)\";\n"};
    EXPECT_TRUE(bvlint::lintFiles({src}).empty());
}

TEST(BvlintNodiscard, CallSitesAreNotDeclarations)
{
    // Call sites of parse/read/verify functions — including the
    // wrapped form that puts the callee at the start of a line — must
    // not be mistaken for declarations.
    const SourceFile src{"src/util/demo.hh",
                         "#ifndef BVC_UTIL_DEMO_HH_\n"
                         "#define BVC_UTIL_DEMO_HH_\n"
                         "[[nodiscard]] bool readFlag(int fd);\n"
                         "inline bool check(int fd) {\n"
                         "    if (!readFlag(fd))\n"
                         "        return false;\n"
                         "    const bool other =\n"
                         "        readFlag(fd + 1);\n"
                         "    return other && readFlag(fd + 2);\n"
                         "}\n"
                         "#endif // BVC_UTIL_DEMO_HH_\n"};
    EXPECT_TRUE(bvlint::lintFiles({src}).empty());
}

TEST(BvlintNodiscard, VoidReturnsAndSourceFilesStayClean)
{
    // void-returning readers have nothing to discard, and .cc files
    // are out of scope (the declaration in the header carries the
    // attribute for both).
    const SourceFile header{"src/util/clean.hh",
                            "#ifndef BVC_UTIL_CLEAN_HH_\n"
                            "#define BVC_UTIL_CLEAN_HH_\n"
                            "void readAll(int fd, char *out);\n"
                            "#endif // BVC_UTIL_CLEAN_HH_\n"};
    const SourceFile source{"src/util/clean.cc",
                            "bool\n"
                            "parseLine(const char *text)\n"
                            "{\n"
                            "    return text != nullptr;\n"
                            "}\n"};
    EXPECT_TRUE(bvlint::lintFiles({header, source}).empty());
}

TEST(BvlintNodiscard, TwoLineDeclarationIsFlaggedAndSuppressible)
{
    const std::string body = "#ifndef BVC_UTIL_TWO_HH_\n"
                             "#define BVC_UTIL_TWO_HH_\n"
                             "inline unsigned long\n"
                             "parseCount(const char *text)\n"
                             "{\n"
                             "    return text ? 1 : 0;\n"
                             "}\n"
                             "#endif // BVC_UTIL_TWO_HH_\n";
    const SourceFile bad{"src/util/two.hh", body};
    const auto findings = bvlint::lintFiles({bad});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "BV007");
    EXPECT_EQ(findings[0].line, 4u);

    std::string waived = body;
    waived.insert(waived.find("inline unsigned long"),
                  "// bvlint-allow(BV007)\n");
    EXPECT_TRUE(bvlint::lintFiles({{"src/util/two.hh", waived}})
                    .empty());
}

TEST(BvlintGetUnwrap, FlagsEveryRawUnwrapShape)
{
    std::size_t count = 0;
    const std::set<std::string> tripped =
        rulesTripped("bad_get_unwrap.cc", count);
    EXPECT_EQ(tripped, std::set<std::string>{"BV008"});
    // Two derefs, two nullptr compares, one arrow — one finding per
    // offending line.
    EXPECT_EQ(count, 5u);
}

TEST(BvlintGetUnwrap, StrongTypeAndDynamicCastGetsStayClean)
{
    // Strong-type .get() at the array-index boundary (the
    // util/strong_types.hh idiom, including multiplication) and the
    // raw-handle escape into dynamic_cast are the two blessed .get()
    // classes.
    const SourceFile src{
        "src/cache/demo.cc",
        "int pick(SetIdx set, WayIdx way) {\n"
        "    return base_[set.get() * ways_ + way.get()];\n"
        "}\n"
        "int scale(SegCount segs) { return ways_ * segs.get(); }\n"
        "BaseVictimLlc *downcast(std::unique_ptr<Llc> &p) {\n"
        "    return dynamic_cast<BaseVictimLlc *>(p.get());\n"
        "}\n"
        "void pass(std::unique_ptr<Tracker> &t) { use(t.get()); }\n"};
    EXPECT_TRUE(bvlint::lintFiles({src}).empty());
}

TEST(BvlintGuard, ExpectedGuardMatchesRepoConvention)
{
    EXPECT_EQ(bvlint::expectedGuard("src/util/types.hh"),
              "BVC_UTIL_TYPES_HH_");
    EXPECT_EQ(bvlint::expectedGuard("/root/repo/src/cache/cache.hh"),
              "BVC_CACHE_CACHE_HH_");
    EXPECT_EQ(bvlint::expectedGuard("tests/test_lines.hh"),
              "BVC_TESTS_TEST_LINES_HH_");
    EXPECT_EQ(bvlint::expectedGuard("tools/bvlint/lint.hh"),
              "BVC_TOOLS_BVLINT_LINT_HH_");
}

TEST(BvlintGuard, MissingGuardAndSuppressionOnIfndefLine)
{
    const SourceFile missing{"src/util/a.hh", "namespace bvc {}\n"};
    auto findings = bvlint::lintFiles({missing});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "BV005");

    const SourceFile waived{
        "src/util/a.hh",
        "#ifndef LEGACY_GUARD_ // bvlint-allow(BV005)\n"
        "#define LEGACY_GUARD_\n"
        "#endif\n"};
    EXPECT_TRUE(bvlint::lintFiles({waived}).empty());
}

TEST(BvlintRawMutex, HoldersAndAnnotatedMutexStayClean)
{
    // The AnnotatedMutex member is the rule's target replacement, and
    // lock-holder templates are the one legitimate raw spelling.
    const SourceFile src{
        "src/util/demo.cc",
        "struct Pool {\n"
        "    bvc::AnnotatedMutex mutex_;\n"
        "    void drain() {\n"
        "        std::unique_lock<std::mutex> lock(raw_);\n"
        "        std::lock_guard<std::shared_mutex> g(rw_);\n"
        "    }\n"
        "};\n"};
    EXPECT_TRUE(bvlint::lintFiles({src}).empty());
}

TEST(BvlintRawMutex, VectorOfMutexesIsStillFlagged)
{
    const SourceFile src{"src/core/demo.hh",
                         "#ifndef BVC_CORE_DEMO_HH_\n"
                         "#define BVC_CORE_DEMO_HH_\n"
                         "struct Banks {\n"
                         "    /** One lock per bank. */\n"
                         "    mutable std::vector<std::mutex> locks_;\n"
                         "};\n"
                         "#endif // BVC_CORE_DEMO_HH_\n"};
    const auto findings = bvlint::lintFiles({src});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "BV009");
    EXPECT_EQ(findings[0].line, 5u);
}

TEST(BvlintMemberDoc, TrailingAndAboveCommentsBothCount)
{
    std::size_t count = 0;
    const std::set<std::string> tripped =
        rulesTripped("bad_member_doc.hh", count);
    EXPECT_EQ(tripped, std::set<std::string>{"BV010"});
    // Exactly the three undocumented members; the documented ones,
    // the function, the private member and the enumerators are clean.
    EXPECT_EQ(count, 3u);
}

TEST(BvlintMemberDoc, ContinuationLineIsNotAMember)
{
    // `std::uint8_t *out) const;` ends a declaration opened on the line
    // above; only the undocumented member after it is a finding.
    const std::vector<Finding> findings = bvlint::lintFiles(
        {loadFixture("bad_member_doc_continuation.hh")});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "BV010");
    EXPECT_EQ(findings[0].line, 16u);
}

TEST(BvlintMemberDoc, MacroAnnotatedMembersAndSourcesAreExempt)
{
    // Parenthesized annotation macros read as function-ish and are
    // deliberately skipped, and .cc files are out of scope entirely.
    const SourceFile header{
        "src/util/demo.hh",
        "#ifndef BVC_UTIL_DEMO_HH_\n"
        "#define BVC_UTIL_DEMO_HH_\n"
        "struct State {\n"
        "    std::size_t inFlight BVC_GUARDED_BY(mutex_) = 0;\n"
        "};\n"
        "#endif // BVC_UTIL_DEMO_HH_\n"};
    const SourceFile source{"src/util/demo.cc",
                            "struct Local {\n"
                            "    int scratch = 0;\n"
                            "};\n"};
    EXPECT_TRUE(bvlint::lintFiles({header, source}).empty());
}

TEST(BvlintSuppressions, ConfigWaivesMatchingFilesOnly)
{
    const std::string body = "long stamp() { return time(nullptr); }\n";
    const SourceFile gen{"src/gen/schema_gen.cc", body};
    const SourceFile handWritten{"src/util/clock.cc", body};

    bvlint::LintOptions options;
    std::string error;
    ASSERT_TRUE(bvlint::parseSuppressionConfig(
        "# generated code is exempt\n"
        "src/gen/* BV002\n",
        options.suppressions, error))
        << error;

    const auto findings =
        bvlint::lintFiles({gen, handWritten}, options);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/util/clock.cc");
    EXPECT_EQ(findings[0].rule, "BV002");
}

TEST(BvlintSuppressions, StarRuleWaivesEverythingAndBadLinesError)
{
    bvlint::LintOptions options;
    std::string error;
    ASSERT_TRUE(bvlint::parseSuppressionConfig(
        "legacy/* *\n", options.suppressions, error));
    const SourceFile legacy{"legacy/old.cc",
                            "void f() { (void)rand(); }\n"};
    EXPECT_TRUE(bvlint::lintFiles({legacy}, options).empty());

    std::vector<bvlint::FileSuppression> bad;
    EXPECT_FALSE(
        bvlint::parseSuppressionConfig("pattern-without-rules\n", bad,
                                       error));
    EXPECT_FALSE(
        bvlint::parseSuppressionConfig("src/* NOTARULE\n", bad,
                                       error));
}

TEST(BvlintSuppressions, PatternMatchingSemantics)
{
    EXPECT_TRUE(bvlint::matchesPattern("src/gen/*",
                                       "src/gen/deep/file.cc"));
    EXPECT_TRUE(bvlint::matchesPattern("*/format.hh",
                                       "src/tracefile/format.hh"));
    EXPECT_TRUE(bvlint::matchesPattern("src/a.cc", "src/a.cc"));
    EXPECT_FALSE(bvlint::matchesPattern("src/gen/*", "src/util/a.cc"));
    EXPECT_FALSE(bvlint::matchesPattern("src/a.cc", "src/a.cc.bak"));
}

TEST(BvlintJson, FindingsRoundTripThroughJson)
{
    const SourceFile src{"src/util/demo.cc",
                         "void f() { (void)rand(); }\n"
                         "const char *quote = \"he said \\\"hi\\\"\";\n"
                         "void g() { (void)rand(); }\n"};
    const auto findings = bvlint::lintFiles({src});
    ASSERT_EQ(findings.size(), 2u);
    const std::string doc = bvlint::findingsToJson(findings);

    // The document must be parseable by the same minimal scanner the
    // compile_commands reader uses — "file" keys extract cleanly.
    std::vector<std::string> files;
    std::string error;
    std::string asArray = "[" + doc + "]";
    ASSERT_TRUE(bvlint::parseCompileCommands(asArray, files, error))
        << error;
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "src/util/demo.cc");

    // Structure and content spot checks.
    EXPECT_NE(doc.find("\"findings\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"rule\": \"BV002\""), std::string::npos);
    EXPECT_NE(doc.find("\"line\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"line\": 3"), std::string::npos);

    EXPECT_EQ(bvlint::findingsToJson({}), "{\"findings\": []}\n");
}

TEST(BvlintJson, EscapesEmbeddedQuotesAndBackslashes)
{
    const bvlint::Finding f{"src/we\\ird\".cc", 7, "BV002", "msg"};
    const std::string doc = bvlint::findingsToJson({f});
    EXPECT_NE(doc.find(R"(src/we\\ird\".cc)"), std::string::npos);
}

TEST(BvlintCompileCommands, ExtractsFileEntries)
{
    const std::string db = R"([
      {
        "directory": "/root/repo/build",
        "command": "g++ -c ../src/cache/cache.cc -o cache.o",
        "file": "/root/repo/src/cache/cache.cc"
      },
      {
        "directory": "/root/repo/build",
        "command": "g++ -DNAME=\"file\" -c ../tools/bvsim.cc",
        "file": "/root/repo/tools/bvsim.cc"
      }
    ])";
    std::vector<std::string> files;
    std::string error;
    ASSERT_TRUE(bvlint::parseCompileCommands(db, files, error))
        << error;
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "/root/repo/src/cache/cache.cc");
    EXPECT_EQ(files[1], "/root/repo/tools/bvsim.cc");
}

TEST(BvlintCompileCommands, RejectsNonArrayInput)
{
    std::vector<std::string> files;
    std::string error;
    EXPECT_FALSE(
        bvlint::parseCompileCommands("{\"file\": \"x.cc\"}", files,
                                     error));
    EXPECT_FALSE(error.empty());
}

} // namespace
