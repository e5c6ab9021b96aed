// varuna-analyze passes: checks on the lexed token stream, each defending a
// piece of the bit-identical-replay contract or a house rule.
//
//   layering / include-cycle
//     The #include DAG over the src/ modules must match the checked-in
//     layering spec (tools/analyze/layering.txt): a module may include only
//     modules in strictly lower layers (and itself). Back-edges couple the
//     hot simulation path to policy layers; cycles are rejected outright.
//
//   rng-copy / rng-value-param / rng-temp
//     Every stochastic draw flows through one seeded varuna::Rng tree,
//     forked only via Rng::Fork(). A copied Rng silently duplicates a draw
//     stream: two sites replay identical "random" values and the caller's
//     stream stops advancing, which breaks replay the first time either
//     site changes. Flagged: copy-initialisation from an existing Rng
//     (rng-copy), draws on a by-value Rng parameter (rng-value-param;
//     passing Rng by value as a *sink* that only stores it is fine), and
//     draws on an unnamed Rng temporary (rng-temp). src/ only.
//
//   fingerprint-coverage
//     Every SessionStats field must be classified with a `// fingerprint`
//     or `// observability` comment, cross-checked against the serializer
//     (src/varuna/determinism.cc): fingerprint-tagged fields must be read
//     as `stats.<field>` there, observability-tagged fields must not, and
//     no serialized name may be unknown. State can never silently join or
//     leave the replay contract.
//
//   tree rules (CheckTreeRules), scoped by path:
//     determinism      no rand()/srand()/time()/clock() (unqualified, std:: or
//                      ::), std::random_device, std::chrono::*_clock,
//                      gettimeofday(), <random> or <chrono>: randomness flows
//                      through varuna::Rng and time through SimEngine::now().
//                      src/, tests/, bench/ and examples/, except the bench
//                      timing harness (bench/bench_util.h).
//     check-macro      VARUNA_CHECK instead of assert(): contract checks stay
//                      on in release builds. Same scope as determinism.
//     include-guard    header guards are the path uppercased:
//                      src/sim/engine.h -> SRC_SIM_ENGINE_H_. Every header.
//     unit-suffix      `double` parameters and members in src/net and
//                      src/cluster headers that read as times end in `_s`,
//                      byte counts in `_bytes`.
//     threading        no std::thread/std::jthread/std::async, <thread> or
//                      <future> in src/ outside src/common/thread_pool.*, and
//                      ThreadPool use only in the reviewed pool-user files.
//     hot-path         no std::function, node-based std containers or their
//                      headers in src/sim/, src/morph/, the executor, the
//                      schedule cache and the checkpoint store (calibration
//                      is the reviewed exception).
//     tensor-by-value  src/ functions take const Tensor& or Tensor*, never a
//                      by-value Tensor (it copies the element buffer).
//
// Any finding can be suppressed on its line with
// `// varuna-analyze: allow(<rule>)`.
#ifndef TOOLS_ANALYZE_ANALYZER_H_
#define TOOLS_ANALYZE_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "tools/analyze/lexer.h"

namespace varuna {
namespace analyze {

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string message;
};

std::string FormatFinding(const Finding& finding);

// Layering spec: one layer per line, lowest layer first, modules separated by
// whitespace; `#` starts a comment. A module may include modules in strictly
// lower layers and itself; everything under src/ must be listed.
struct LayeringSpec {
  std::vector<std::vector<std::string>> layers;
  std::map<std::string, int> layer_of;
};

bool ParseLayeringSpec(const std::string& text, LayeringSpec* spec, std::string* error);

// Module of a repo-relative path: "src/sim/engine.h" -> "sim"; empty when the
// path is not of the form src/<module>/...
std::string ModuleOf(const std::string& rel);

// Pass 1: layering conformance + file-level include-cycle detection over all
// `#include "src/..."` edges in `files`.
void CheckIncludeGraph(const std::vector<LexedFile>& files, const LayeringSpec& spec,
                       std::vector<Finding>* findings);

// Pass 2: Rng stream discipline within one file.
void CheckRngDiscipline(const LexedFile& file, std::vector<Finding>* findings);

// Pass 3: SessionStats classification vs. the serializer, as described above.
void CheckFingerprintCoverage(const LexedFile& stats_header, const LexedFile& serializer,
                              std::vector<Finding>* findings);

// Pass 4: the path-scoped tree rules listed above, within one file.
void CheckTreeRules(const LexedFile& file, std::vector<Finding>* findings);

// Every repo-relative file the tree rules name: the timing exception, the
// thread-pool and pool-user files, the hot-path files and their exceptions.
// A stale entry would wave through a future file that reuses its name.
std::vector<std::string> TreeRuleFileLists();

struct AnalyzerOptions {
  std::string root;  // repo root (absolute or cwd-relative)
  // Scan roots, relative to `root`; tests/analyze_fixtures is never scanned.
  std::vector<std::string> roots = {"src", "tests", "bench", "examples"};
  std::string layering_rel = "tools/analyze/layering.txt";
  std::string stats_header_rel = "src/manager/elastic_trainer.h";
  std::string serializer_rel = "src/varuna/determinism.cc";
};

// Runs every pass over the tree. Returns 0 clean, 1 findings, 2 on a
// configuration error (unreadable spec / missing contract files), with
// `error` set in the latter case.
int RunAnalysis(const AnalyzerOptions& options, std::vector<Finding>* findings,
                std::string* error);

}  // namespace analyze
}  // namespace varuna

#endif  // TOOLS_ANALYZE_ANALYZER_H_
