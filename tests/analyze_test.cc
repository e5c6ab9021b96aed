// varuna_analyze battery: every seeded fixture defect is caught by its pass,
// the false-positive traps stay silent, and the real tree is clean.
//
// Fixtures live in tests/analyze_fixtures/ (never compiled — they are data
// for the analyzer). VARUNA_REPO_ROOT / VARUNA_ANALYZE_FIXTURES are injected
// by tests/CMakeLists.txt.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze/analyzer.h"
#include "tools/analyze/lexer.h"

namespace varuna {
namespace analyze {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Lexes a fixture file, using `rel` as its pretended repo-relative path.
LexedFile LexFixture(const std::string& fixture_rel, const std::string& rel) {
  const std::string path = std::string(VARUNA_ANALYZE_FIXTURES) + "/" + fixture_rel;
  return Lex(path, rel, ReadFileOrDie(path));
}

LayeringSpec RealLayeringSpec() {
  LayeringSpec spec;
  std::string error;
  const std::string path = std::string(VARUNA_REPO_ROOT) + "/tools/analyze/layering.txt";
  EXPECT_TRUE(ParseLayeringSpec(ReadFileOrDie(path), &spec, &error)) << error;
  return spec;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += FormatFinding(f) + "\n";
  return out;
}

// --- Lexer -----------------------------------------------------------------

TEST(Lexer, DigitSeparatorsAreNotCharLiterals) {
  const LexedFile f = Lex("m", "m.cc", "uint64_t x = 1'000'003;");
  ASSERT_EQ(f.tokens.size(), 5u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(f.tokens[3].text, "1'000'003");
}

TEST(Lexer, RawStringSwallowsHazardText) {
  const LexedFile f =
      Lex("m", "m.cc", "auto s = R\"(line one\n\"quoted\" rand()\n)\";\nint y = 2;");
  int raw = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kRawString) ++raw;
    EXPECT_NE(t.text, "rand") << "raw-string body leaked into the token stream";
    if (t.text == "y") {
      EXPECT_EQ(t.line, 4) << "line tracking lost across the raw string";
    }
  }
  EXPECT_EQ(raw, 1);
}

TEST(Lexer, CustomDelimiterRawString) {
  const LexedFile f = Lex("m", "m.cc", "auto s = R\"doc(x )\" still inside)doc\"; int z;");
  ASSERT_GE(f.tokens.size(), 4u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kRawString);
  bool saw_z = false;
  for (const Token& t : f.tokens) saw_z = saw_z || t.text == "z";
  EXPECT_TRUE(saw_z);
}

TEST(Lexer, LineContinuationSplicesTokens) {
  const LexedFile f = Lex("m", "m.cc", "int a\\\nb = 2;");
  ASSERT_GE(f.tokens.size(), 2u);
  EXPECT_EQ(f.tokens[1].text, "ab");
  EXPECT_EQ(f.tokens[1].line, 1);
}

TEST(Lexer, BlockCommentRetainedWithLineTracking) {
  const LexedFile f = Lex("m", "m.cc", "/* one\ntwo */ int z;");
  ASSERT_GE(f.tokens.size(), 3u);
  EXPECT_EQ(f.tokens[0].kind, TokKind::kComment);
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[1].text, "int");
  EXPECT_EQ(f.tokens[1].line, 2);
}

TEST(Lexer, HeaderNameAfterInclude) {
  const LexedFile f = Lex("m", "m.cc", "#include <chrono>\nbool lt = a < b;");
  ASSERT_GE(f.tokens.size(), 3u);
  EXPECT_EQ(f.tokens[2].kind, TokKind::kHeader);
  EXPECT_EQ(f.tokens[2].text, "<chrono>");
  // The `<` in `a < b` must stay ordinary punctuation.
  int headers = 0;
  for (const Token& t : f.tokens) headers += t.kind == TokKind::kHeader ? 1 : 0;
  EXPECT_EQ(headers, 1);
}

TEST(Lexer, CommentAllowsParsesRuleNames) {
  EXPECT_TRUE(CommentAllows("// varuna-analyze: allow(layering)", "layering"));
  EXPECT_TRUE(CommentAllows("// text varuna-analyze: allow(rng-copy)", "rng-copy"));
  EXPECT_FALSE(CommentAllows("// varuna-analyze: allow(layering)", "rng-copy"));
  EXPECT_FALSE(CommentAllows("// varuna-lint: allow(layering)", "layering"));
}

// --- Layering spec ----------------------------------------------------------

TEST(LayeringSpec, ParsesRealSpecBottomUp) {
  const LayeringSpec spec = RealLayeringSpec();
  ASSERT_FALSE(spec.layers.empty());
  EXPECT_EQ(spec.layers.front().front(), "common");
  EXPECT_LT(spec.layer_of.at("sim"), spec.layer_of.at("manager"));
  EXPECT_LT(spec.layer_of.at("manager"), spec.layer_of.at("varuna"));
  EXPECT_LT(spec.layer_of.at("varuna"), spec.layer_of.at("chaos"));
}

TEST(LayeringSpec, RejectsDuplicateModule) {
  LayeringSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayeringSpec("common\nsim common\n", &spec, &error));
  EXPECT_NE(error.find("common"), std::string::npos);
}

TEST(LayeringSpec, RejectsEmptySpec) {
  LayeringSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayeringSpec("# comments only\n", &spec, &error));
}

// --- Pass 1: include graph ---------------------------------------------------

TEST(IncludeGraph, FixtureBatteryCatchesEverySeededDefect) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(LexFixture("layering/src/sim/bad_engine.h", "src/sim/bad_engine.h"));
  files.push_back(LexFixture("layering/src/common/cycle_a.h", "src/common/cycle_a.h"));
  files.push_back(LexFixture("layering/src/common/cycle_b.h", "src/common/cycle_b.h"));
  files.push_back(LexFixture("layering/src/widgets/rogue.h", "src/widgets/rogue.h"));

  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);

  // One sim->manager back-edge (the suppressed manager include stays quiet),
  // one unlisted module, one cycle.
  EXPECT_EQ(CountRule(findings, "layering"), 2) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "include-cycle"), 1) << Dump(findings);

  bool saw_backedge = false;
  bool saw_unlisted = false;
  for (const Finding& f : findings) {
    if (f.rule == "layering" && f.rel == "src/sim/bad_engine.h") {
      saw_backedge = true;
      EXPECT_NE(f.message.find("src/manager"), std::string::npos) << f.message;
    }
    if (f.rule == "layering" && f.message.find("widgets") != std::string::npos) {
      saw_unlisted = true;
    }
    if (f.rule == "include-cycle") {
      EXPECT_NE(f.message.find("cycle_a.h"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("cycle_b.h"), std::string::npos) << f.message;
    }
  }
  EXPECT_TRUE(saw_backedge) << Dump(findings);
  EXPECT_TRUE(saw_unlisted) << Dump(findings);
}

TEST(IncludeGraph, SameLayerPeersMayNotIncludeEachOther) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(
      Lex("mem", "src/tensor/x.h", "#include \"src/model/op_graph.h\"\n"));
  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);
  EXPECT_EQ(CountRule(findings, "layering"), 1) << Dump(findings);
}

TEST(IncludeGraph, DownwardIncludeIsClean) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(Lex("mem", "src/manager/x.h",
                      "#include \"src/sim/engine.h\"\n#include \"src/common/rng.h\"\n"));
  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// --- Pass 2: Rng discipline --------------------------------------------------

std::vector<Finding> RngFindings(const std::string& fixture) {
  const LexedFile file = LexFixture("rng/" + fixture, "src/fixture/" + fixture);
  std::vector<Finding> findings;
  CheckRngDiscipline(file, &findings);
  return findings;
}

TEST(RngDiscipline, ByValueParamDrawsAreForks) {
  const std::vector<Finding> findings = RngFindings("bad_value_param.cc");
  EXPECT_EQ(CountRule(findings, "rng-value-param"), 2) << Dump(findings);
  EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(RngDiscipline, CopiesOutsideForkAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_copy.cc");
  EXPECT_EQ(CountRule(findings, "rng-copy"), 2) << Dump(findings);
  EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(RngDiscipline, TemporaryDrawsAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_temp.cc");
  EXPECT_EQ(CountRule(findings, "rng-temp"), 1) << Dump(findings);
  EXPECT_EQ(findings.size(), 1u) << Dump(findings);
}

TEST(RngDiscipline, RawStringsCommentsAndSinksStayClean) {
  const std::vector<Finding> findings = RngFindings("clean.cc");
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// The liveput predictor contract (src/morph/liveput.h): policy code draws no
// randomness. The seeded-defect fixture shows one instance of each way a
// predictor might sneak a draw in; its disciplined counterpart (pure
// function of the observation stream) must stay clean.
TEST(RngDiscipline, JitteredPredictorPolicyDrawsAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_predictor.cc");
  EXPECT_EQ(CountRule(findings, "rng-value-param"), 1) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "rng-temp"), 1) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "rng-copy"), 1) << Dump(findings);
  EXPECT_EQ(findings.size(), 3u) << Dump(findings);
}

TEST(RngDiscipline, ObservationDrivenPredictorIsClean) {
  const std::vector<Finding> findings = RngFindings("clean_predictor.cc");
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// --- Pass 3: fingerprint coverage -------------------------------------------

TEST(FingerprintCoverage, BadPairYieldsEveryDefectClass) {
  const LexedFile header = LexFixture("stats/bad_stats.h", "src/manager/bad_stats.h");
  const LexedFile serializer =
      LexFixture("stats/bad_serializer.cc", "src/varuna/bad_serializer.cc");
  std::vector<Finding> findings;
  CheckFingerprintCoverage(header, serializer, &findings);

  EXPECT_EQ(findings.size(), 5u) << Dump(findings);
  auto has = [&](const std::string& needle) {
    return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
      return f.rule == "fingerprint-coverage" &&
             f.message.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has("examples_processed")) << Dump(findings);  // fingerprint, unserialized
  EXPECT_TRUE(has("stutters")) << Dump(findings);            // observability, serialized
  EXPECT_TRUE(has("orphan_counter")) << Dump(findings);      // unclassified
  EXPECT_TRUE(has("confused")) << Dump(findings);            // conflicting tags
  EXPECT_TRUE(has("zombie_field")) << Dump(findings);        // stale serialization
  EXPECT_FALSE(has("waved_through")) << Dump(findings);      // suppressed
  EXPECT_FALSE(has("minibatches_done")) << Dump(findings);   // consistent
}

TEST(FingerprintCoverage, GoodPairIsClean) {
  const LexedFile header = LexFixture("stats/good_stats.h", "src/manager/good_stats.h");
  const LexedFile serializer =
      LexFixture("stats/good_serializer.cc", "src/varuna/good_serializer.cc");
  std::vector<Finding> findings;
  CheckFingerprintCoverage(header, serializer, &findings);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(FingerprintCoverage, MissingStructIsAFinding) {
  const LexedFile header = Lex("mem", "src/manager/empty.h", "namespace varuna {}\n");
  const LexedFile serializer = Lex("mem", "src/varuna/empty.cc", "\n");
  std::vector<Finding> findings;
  CheckFingerprintCoverage(header, serializer, &findings);
  EXPECT_EQ(findings.size(), 1u) << Dump(findings);
}

// --- Pass 4: tree rules ------------------------------------------------------

// One input per row: `text` lexed as if it lived at `rel`, and how many
// findings of `rule` it must yield (the first on `first_line`).
struct TreeRuleCase {
  const char* name;
  const char* rel;
  const char* rule;
  int flagged;
  int first_line;
  const char* text;
};

void PrintTo(const TreeRuleCase& c, std::ostream* os) { *os << c.name; }

class TreeRuleTest : public testing::TestWithParam<TreeRuleCase> {};

TEST_P(TreeRuleTest, FlagsExactlyTheSeededDefects) {
  const TreeRuleCase& c = GetParam();
  std::vector<Finding> findings;
  CheckTreeRules(Lex("mem", c.rel, c.text), &findings);
  std::vector<Finding> hits;
  for (const Finding& f : findings) {
    if (f.rule == c.rule) hits.push_back(f);
  }
  ASSERT_EQ(static_cast<int>(hits.size()), c.flagged) << Dump(findings);
  if (c.flagged > 0) {
    EXPECT_EQ(hits.front().line, c.first_line) << Dump(findings);
  }
}

constexpr TreeRuleCase kTreeRuleCases[] = {
    // determinism: one row per spelling of the C library calls.
    {"rand", "src/x.cc", "determinism", 1, 1, "int x = rand();"},
    {"srand", "src/x.cc", "determinism", 1, 1, "void f() { srand(42); }"},
    {"std_rand", "src/x.cc", "determinism", 1, 1, "int x = std::rand();"},
    {"global_rand", "src/x.cc", "determinism", 1, 1, "int x = ::rand();"},
    {"time_null", "src/x.cc", "determinism", 1, 1, "long t = time(NULL);"},
    {"std_time", "src/x.cc", "determinism", 1, 1, "long t = std::time(nullptr);"},
    {"global_time", "src/x.cc", "determinism", 1, 1, "long t = ::time(nullptr);"},
    {"clock", "src/x.cc", "determinism", 1, 1, "long c = clock();"},
    {"std_clock", "src/x.cc", "determinism", 1, 1, "long c = std::clock();"},
    {"ternary_branch_time", "src/x.cc", "determinism", 1, 1, "long t = a ? 0 : time(0);"},
    {"member_and_namespaced_calls", "src/x.cc", "determinism", 0, 0,
     "a = x.time(nullptr); b = p->clock(); c = sim::time(0); d = Gen<T>::rand();"},
    {"random_device", "src/x.cc", "determinism", 1, 1, "std::random_device rd;"},
    {"wall_clocks", "src/x.cc", "determinism", 3, 2,
     "using namespace std::chrono;\nauto a = steady_clock::now(); auto b = system_clock::now();"
     " auto c = high_resolution_clock::now();"},
    {"gettimeofday", "src/x.cc", "determinism", 1, 1, "gettimeofday(&tv, nullptr);"},
    {"random_and_chrono_includes", "src/x.cc", "determinism", 2, 1,
     "#include <random>\n#include <chrono>\n"},
    {"determinism_suppressed", "src/x.cc", "determinism", 0, 0,
     "int x = rand();  // varuna-analyze: allow(determinism)"},
    {"retired_suppression_syntax", "src/x.cc", "determinism", 1, 1,
     "int x = rand();  // varuna-lint: allow(determinism)"},
    {"determinism_covers_tests", "tests/t.cc", "determinism", 1, 1, "#include <chrono>\n"},
    {"determinism_covers_bench", "bench/b.cc", "determinism", 1, 1, "#include <chrono>\n"},
    {"determinism_covers_examples", "examples/e.cpp", "determinism", 1, 1, "#include <chrono>\n"},
    {"bench_util_timing_exception", "bench/bench_util.h", "determinism", 0, 0,
     "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n"},
    {"determinism_out_of_scope", "tools/x.cc", "determinism", 0, 0, "int x = rand();"},
    // determinism through the lexer: hazard text inside literals and
    // comments is not code, and real code right after them still is.
    {"string_and_line_comment", "src/x.cc", "determinism", 0, 0, "x = \"rand()\"; // rand()"},
    {"escaped_quote_inside_string", "src/x.cc", "determinism", 0, 0,
     "f(\"say \\\"rand()\\\" now\"); g();"},
    {"double_backslash_then_close_quote", "src/x.cc", "determinism", 1, 1,
     "f(\"tail\\\\\"); rand();"},
    {"raw_string_on_one_line", "src/x.cc", "determinism", 0, 0,
     "s = R\"(std::random_device \"x\" rand())\"; h();"},
    {"raw_string_custom_delimiter", "src/x.cc", "determinism", 0, 0,
     "s = R\"doc(a )\" rand() b)doc\"; h();"},
    {"raw_string_prefixes", "src/x.cc", "determinism", 0, 0,
     "a = u8R\"(rand())\"; b = uR\"(rand())\"; c = UR\"(rand())\"; d = LR\"(rand())\";"},
    {"identifier_ending_in_r_is_not_raw_prefix", "src/x.cc", "determinism", 1, 1,
     "auto x = matcher\"(abc)\"; rand();"},
    {"raw_string_spanning_lines", "src/x.cc", "determinism", 1, 3,
     "s = R\"(first rand()\nstd::random_device mid\n)\" ; rand();"},
    {"string_continued_with_backslash_newline", "src/x.cc", "determinism", 1, 2,
     "s = \"begin \\\nstd::random_device end\"; rand();"},
    {"line_comment_continued_with_backslash", "src/x.cc", "determinism", 1, 4,
     "// comment continues \\\nrand(); still comment \\\nrand(); also comment\nrand();"},
    {"block_comment_spanning_lines", "src/x.cc", "determinism", 1, 3,
     "a(); /* rand()\nstd::random_device\n*/ rand();"},
    {"block_comment_marker_inside_string", "src/x.cc", "determinism", 1, 2,
     "s = \"/*\"; a();\nrand();"},
    {"char_literal", "src/x.cc", "determinism", 1, 1, "c = '\\''; rand();"},
    {"raw_string_hazard_text", "src/x.cc", "determinism", 0, 0,
     "const char* kDoc = R\"doc(\n  std::random_device rd;\n  srand(42); time(NULL);\n"
     "  #include <chrono>\n)doc\";\n"},
    {"continued_string_hazard_text", "src/x.cc", "determinism", 0, 0,
     "const char* s = \"part one \\\nstd::random_device part two\";\n"},
    {"real_violation_after_raw_string", "src/x.cc", "determinism", 1, 2,
     "const char* kDoc = R\"(text)\";\nint x = rand();\n"},
    // check-macro
    {"assert_in_src", "src/x.cc", "check-macro", 1, 1, "void f() { assert(1 == 1); }"},
    {"assert_in_tests", "tests/t.cc", "check-macro", 1, 1, "void f() { assert(1 == 1); }"},
    {"assert_in_bench", "bench/b.cc", "check-macro", 1, 1, "void f() { assert(1 == 1); }"},
    {"assert_in_examples", "examples/e.cpp", "check-macro", 1, 1, "void f() { assert(1 == 1); }"},
    {"static_assert_is_fine", "src/x.cc", "check-macro", 0, 0,
     "static_assert(sizeof(int) == 4); x.assert(ok);"},
    {"assert_suppressed", "src/x.cc", "check-macro", 0, 0,
     "assert(ok);  // varuna-analyze: allow(check-macro)"},
    // include-guard
    {"guard_wrong", "src/sim/foo.h", "include-guard", 1, 1,
     "#ifndef FOO_H\n#define FOO_H\n#endif\n"},
    {"guard_missing", "src/sim/foo.h", "include-guard", 1, 1, "#pragma once\nint x;\n"},
    {"guard_define_mismatch", "src/sim/foo.h", "include-guard", 1, 1,
     "#ifndef SRC_SIM_FOO_H_\n#define SRC_SIM_FOO_H\n#endif\n"},
    {"guard_in_comment_is_not_a_guard", "src/sim/foo.h", "include-guard", 1, 2,
     "// #ifndef SRC_SIM_FOO_H_\n#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"},
    {"guard_correct", "src/sim/foo.h", "include-guard", 0, 0,
     "#ifndef SRC_SIM_FOO_H_\n#define SRC_SIM_FOO_H_\n#endif\n"},
    {"guard_punctuation_in_path", "tests/my-dir/a.b.h", "include-guard", 0, 0,
     "#ifndef TESTS_MY_DIR_A_B_H_\n#define TESTS_MY_DIR_A_B_H_\n#endif\n"},
    {"guard_suppressed", "src/sim/foo.h", "include-guard", 0, 0,
     "#ifndef LEGACY_H  // varuna-analyze: allow(include-guard)\n#define LEGACY_H\n#endif\n"},
    {"guard_sources_exempt", "src/sim/foo.cc", "include-guard", 0, 0, "int x;\n"},
    // unit-suffix
    {"unit_time_param", "src/net/x.h", "unit-suffix", 1, 1, "void F(double delay);"},
    {"unit_time_member", "src/net/x.h", "unit-suffix", 1, 1, "struct S { double timeout = 0; };"},
    {"unit_private_members", "src/net/x.h", "unit-suffix", 1, 1,
     "double latency_; double latency_s_;"},
    {"unit_byte_names", "src/net/x.h", "unit-suffix", 1, 1,
     "void F(double payload, double chunk_bytes, double bytes, double rate_bps);"},
    {"unit_suffixed_names", "src/net/x.h", "unit-suffix", 0, 0,
     "void F(double latency_s, double stall_per_s, double link_bytes_per_s);"},
    {"unit_dimensionless_names", "src/net/x.h", "unit-suffix", 0, 0,
     "void F(double stall_probability, double delay_fraction, double time_slots);"},
    {"unit_cluster_headers", "src/cluster/x.h", "unit-suffix", 1, 1, "void F(double interval);"},
    {"unit_other_modules_exempt", "src/sim/x.h", "unit-suffix", 0, 0, "void F(double delay);"},
    {"unit_sources_exempt", "src/net/x.cc", "unit-suffix", 0, 0, "void F(double delay) {}"},
    {"unit_suppressed", "src/net/x.h", "unit-suffix", 0, 0,
     "void F(double delay);  // varuna-analyze: allow(unit-suffix)"},
    // threading: thread creation
    {"std_thread", "src/sim/x.cc", "threading", 1, 1, "std::thread t(f);"},
    {"jthread_and_async", "src/sim/x.cc", "threading", 2, 1,
     "std::jthread t(f); auto r = std::async(f);"},
    {"thread_and_future_includes", "src/sim/x.cc", "threading", 2, 1,
     "#include <thread>\n#include <future>\n"},
    {"this_thread_and_locks_are_fine", "src/sim/x.cc", "threading", 0, 0,
     "std::this_thread::yield(); std::mutex m; std::condition_variable cv;"},
    {"thread_pool_may_spawn", "src/common/thread_pool.cc", "threading", 0, 0,
     "#include <thread>\nstd::thread t(f);"},
    // threading: pool users
    {"pool_use_outside_allowlist", "src/sim/x.cc", "threading", 1, 1, "ThreadPool pool(4);"},
    {"pool_include_outside_allowlist", "src/net/x.cc", "threading", 1, 1,
     "#include \"src/common/thread_pool.h\"\n"},
    {"pool_user_allowlisted", "src/train/trainers.cc", "threading", 0, 0,
     "#include \"src/common/thread_pool.h\"\nThreadPool* pool;"},
    {"threading_src_only", "tests/t.cc", "threading", 0, 0, "std::thread t(f); ThreadPool p(2);"},
    {"threading_suppressed", "src/sim/x.cc", "threading", 0, 0,
     "ThreadPool pool(4);  // varuna-analyze: allow(threading)"},
    // hot-path
    {"hot_map_in_sim", "src/sim/x.h", "hot-path", 1, 1, "std::map<int, int> m;"},
    {"hot_node_containers_in_morph", "src/morph/x.cc", "hot-path", 3, 1,
     "std::unordered_map<int, int> m; std::set<int> s; std::unordered_set<int> u;"},
    {"hot_function_in_executor", "src/pipeline/executor.cc", "hot-path", 1, 1,
     "std::function<void()> f;"},
    {"hot_function_in_checkpoint", "src/manager/checkpoint.h", "hot-path", 1, 1,
     "std::function<void()> f;"},
    {"hot_includes", "src/morph/x.cc", "hot-path", 5, 1,
     "#include <map>\n#include <set>\n#include <unordered_map>\n#include <unordered_set>\n"
     "#include <functional>\n"},
    {"hot_calibration_exception", "src/morph/calibration.cc", "hot-path", 0, 0,
     "#include <map>\nstd::map<int, double> points;"},
    {"hot_off_path_module", "src/net/x.cc", "hot-path", 0, 0, "std::unordered_map<int, int> m;"},
    {"hot_suppressed", "src/sim/x.h", "hot-path", 0, 0,
     "std::map<int, int> m;  // varuna-analyze: allow(hot-path)"},
    // tensor-by-value
    {"tensor_by_value", "src/tensor/x.h", "tensor-by-value", 1, 1, "void F(Tensor t);"},
    {"const_tensor_by_value", "src/nn/x.cc", "tensor-by-value", 1, 1,
     "void F(const Tensor a, int n) {}"},
    {"tensor_refs_returns_members", "src/nn/x.h", "tensor-by-value", 0, 0,
     "Tensor F(const Tensor& a, Tensor* out); Tensor x_; std::vector<Tensor> v;"},
    {"tensor_src_only", "tests/t.cc", "tensor-by-value", 0, 0, "void F(Tensor t);"},
    {"tensor_suppressed", "src/nn/x.h", "tensor-by-value", 0, 0,
     "void F(Tensor t);  // varuna-analyze: allow(tensor-by-value)"},
};

INSTANTIATE_TEST_SUITE_P(Inputs, TreeRuleTest, testing::ValuesIn(kTreeRuleCases),
                         [](const testing::TestParamInfo<TreeRuleCase>& row) {
                           return std::string(row.param.name);
                         });

// The file lists are the reviewed gates of the tree rules: a stale entry
// would wave through a future file that happens to reuse its name.
TEST(TreeRules, FileListsNameExistingFiles) {
  const std::vector<std::string> files = TreeRuleFileLists();
  EXPECT_FALSE(files.empty());
  for (const std::string& rel : files) {
    EXPECT_TRUE(std::filesystem::is_regular_file(std::string(VARUNA_REPO_ROOT) + "/" + rel))
        << rel;
  }
}

// --- The real tree -----------------------------------------------------------

TEST(RealTree, FullAnalysisIsClean) {
  AnalyzerOptions options;
  options.root = VARUNA_REPO_ROOT;
  std::vector<Finding> findings;
  std::string error;
  const int status = RunAnalysis(options, &findings, &error);
  EXPECT_EQ(status, 0) << error << "\n" << Dump(findings);
}

}  // namespace
}  // namespace analyze
}  // namespace varuna
