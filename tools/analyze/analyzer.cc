#include "tools/analyze/analyzer.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <set>
#include <sstream>
#include <string_view>

namespace varuna {
namespace analyze {
namespace {

// Comments indexed by physical line, for suppression lookups.
class SuppressionIndex {
 public:
  explicit SuppressionIndex(const LexedFile& file) {
    for (const Token& token : file.tokens) {
      if (token.kind == TokKind::kComment) comments_[token.line].push_back(&token.text);
    }
  }

  bool Allows(int line, const std::string& rule) const {
    auto it = comments_.find(line);
    if (it == comments_.end()) return false;
    for (const std::string* text : it->second) {
      if (CommentAllows(*text, rule)) return true;
    }
    return false;
  }

 private:
  std::map<int, std::vector<const std::string*>> comments_;
};

// The token stream with comments filtered out (suppressions and
// classification tags are read from the full stream separately).
std::vector<const Token*> CodeTokens(const LexedFile& file) {
  std::vector<const Token*> code;
  code.reserve(file.tokens.size());
  for (const Token& token : file.tokens) {
    if (token.kind != TokKind::kComment) code.push_back(&token);
  }
  return code;
}

bool IsPunct(const Token* t, const char* text) {
  return t->kind == TokKind::kPunct && t->text == text;
}
bool IsIdent(const Token* t, const char* text) {
  return t->kind == TokKind::kIdent && t->text == text;
}

void Report(std::vector<Finding>* findings, const std::string& rel, int line,
            const std::string& rule, const std::string& message) {
  findings->push_back(Finding{rel, line, rule, message});
}

// ---------------------------------------------------------------------------
// Pass 1: include graph
// ---------------------------------------------------------------------------

struct IncludeEdge {
  size_t file_index;
  int line;
  std::string target;  // repo-relative, e.g. "src/manager/elastic_trainer.h"
};

std::vector<IncludeEdge> ExtractIncludes(const std::vector<LexedFile>& files) {
  std::vector<IncludeEdge> edges;
  for (size_t f = 0; f < files.size(); ++f) {
    const std::vector<const Token*> code = CodeTokens(files[f]);
    for (size_t i = 0; i + 2 < code.size(); ++i) {
      if (!IsPunct(code[i], "#") || !IsIdent(code[i + 1], "include")) continue;
      const Token* target = code[i + 2];
      if (target->kind != TokKind::kString || target->text.size() < 2) continue;
      std::string path = target->text.substr(1, target->text.size() - 2);
      if (path.rfind("src/", 0) != 0) continue;
      edges.push_back(IncludeEdge{f, target->line, std::move(path)});
    }
  }
  return edges;
}

void CheckCycles(const std::vector<LexedFile>& files, const std::vector<IncludeEdge>& edges,
                 const std::vector<SuppressionIndex>& suppressions,
                 std::vector<Finding>* findings) {
  // File-level graph over repo-relative paths. Targets outside the analyzed
  // set become leaf nodes.
  std::map<std::string, std::vector<const IncludeEdge*>> graph;
  for (const IncludeEdge& edge : edges) {
    if (suppressions[edge.file_index].Allows(edge.line, "include-cycle")) continue;
    graph[files[edge.file_index].rel].push_back(&edge);
  }
  // Iterative DFS with tri-state marks; reports each back-edge once.
  std::map<std::string, int> state;  // 0 unseen / 1 on stack / 2 done
  std::vector<std::string> stack;
  struct Frame {
    std::string node;
    size_t next = 0;
  };
  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (state[start] != 0) continue;
    std::vector<Frame> frames{{start, 0}};
    state[start] = 1;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto it = graph.find(frame.node);
      const size_t degree = it == graph.end() ? 0 : it->second.size();
      if (frame.next >= degree) {
        state[frame.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const IncludeEdge* edge = it->second[frame.next++];
      const int mark = state[edge->target];
      if (mark == 1) {
        std::ostringstream path;
        const auto at = std::find(stack.begin(), stack.end(), edge->target);
        for (auto p = at; p != stack.end(); ++p) path << *p << " -> ";
        path << edge->target;
        Report(findings, files[edge->file_index].rel, edge->line, "include-cycle",
               "include cycle: " + path.str());
      } else if (mark == 0) {
        state[edge->target] = 1;
        stack.push_back(edge->target);
        frames.push_back(Frame{edge->target, 0});
      }
    }
  }
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.rel << ":" << finding.line << ": [" << finding.rule << "] " << finding.message;
  return out.str();
}

bool ParseLayeringSpec(const std::string& text, LayeringSpec* spec, std::string* error) {
  spec->layers.clear();
  spec->layer_of.clear();
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::vector<std::string> layer;
    std::string module;
    while (words >> module) {
      if (spec->layer_of.count(module) != 0) {
        *error = "layering spec: module '" + module + "' listed twice";
        return false;
      }
      spec->layer_of[module] = static_cast<int>(spec->layers.size());
      layer.push_back(module);
    }
    if (!layer.empty()) spec->layers.push_back(std::move(layer));
  }
  if (spec->layers.empty()) {
    *error = "layering spec: no layers defined";
    return false;
  }
  return true;
}

std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

void CheckIncludeGraph(const std::vector<LexedFile>& files, const LayeringSpec& spec,
                       std::vector<Finding>* findings) {
  std::vector<SuppressionIndex> suppressions;
  suppressions.reserve(files.size());
  for (const LexedFile& file : files) suppressions.emplace_back(file);

  const std::vector<IncludeEdge> edges = ExtractIncludes(files);
  std::set<std::string> unlisted_reported;
  for (const IncludeEdge& edge : edges) {
    const LexedFile& file = files[edge.file_index];
    if (suppressions[edge.file_index].Allows(edge.line, "layering")) continue;
    const std::string from = ModuleOf(file.rel);
    const std::string to = ModuleOf(edge.target);
    if (from.empty() || to.empty() || from == to) continue;
    const auto from_it = spec.layer_of.find(from);
    const auto to_it = spec.layer_of.find(to);
    if (from_it == spec.layer_of.end()) {
      if (unlisted_reported.insert(from).second) {
        Report(findings, file.rel, edge.line, "layering",
               "module 'src/" + from + "' is not in the layering spec; add it to "
               "tools/analyze/layering.txt deliberately");
      }
      continue;
    }
    if (to_it == spec.layer_of.end()) {
      if (unlisted_reported.insert(to).second) {
        Report(findings, file.rel, edge.line, "layering",
               "included module 'src/" + to + "' is not in the layering spec; add it to "
               "tools/analyze/layering.txt deliberately");
      }
      continue;
    }
    if (to_it->second >= from_it->second) {
      std::ostringstream msg;
      msg << "layering violation: src/" << from << " (layer " << from_it->second
          << ") must not include src/" << to << " (layer " << to_it->second
          << "); only strictly lower layers are visible";
      Report(findings, file.rel, edge.line, "layering", msg.str());
    }
  }
  CheckCycles(files, edges, suppressions, findings);
}

// ---------------------------------------------------------------------------
// Pass 2: Rng stream discipline
// ---------------------------------------------------------------------------

namespace {

bool IsDrawMethod(const std::string& name) {
  // Keep in sync with src/common/rng.h. Fork() counts: it advances the
  // stream, so calling it on a copy/temporary has the same hazard.
  static const std::set<std::string> kDraws = {
      "NextUint64", "NextDouble", "UniformInt",     "Uniform", "Gaussian",
      "Exponential", "Bernoulli", "LogNormalMedian", "Fork",
  };
  return kDraws.count(name) != 0;
}

// Finds the index of the matching close for the open bracket at `open`
// (code[open] must be "(" or "{"). Returns code.size() when unterminated.
size_t MatchForward(const std::vector<const Token*>& code, size_t open, const char* open_text,
                    const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], open_text)) ++depth;
    if (IsPunct(code[i], close_text) && --depth == 0) return i;
  }
  return code.size();
}

// `Rng name = <init> ;` where the initializer contains neither a call nor
// Fork: a plain copy of an existing stream.
void CheckRngCopies(const LexedFile& file, const std::vector<const Token*>& code,
                    const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng") || code[i + 1]->kind != TokKind::kIdent ||
        !IsPunct(code[i + 2], "=")) {
      continue;
    }
    bool has_call = false;
    bool has_fork = false;
    size_t j = i + 3;
    for (; j < code.size() && !IsPunct(code[j], ";"); ++j) {
      if (IsPunct(code[j], "(")) has_call = true;
      if (IsIdent(code[j], "Fork")) has_fork = true;
    }
    if (j == i + 3 || has_fork || has_call) continue;
    if (suppressions.Allows(code[i]->line, "rng-copy")) continue;
    Report(findings, file.rel, code[i]->line, "rng-copy",
           "'Rng " + code[i + 1]->text + " = ...' copies an existing draw stream; fork "
           "deliberately with .Fork() or seed a new Rng");
  }
}

// Draws on a by-value Rng parameter inside the function definition: the
// caller's stream does not advance, so the same values replay elsewhere.
void CheckRngValueParams(const LexedFile& file, const std::vector<const Token*>& code,
                         const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 1; i + 2 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng")) continue;
    if (!IsPunct(code[i - 1], "(") && !IsPunct(code[i - 1], ",")) continue;
    if (code[i + 1]->kind != TokKind::kIdent) continue;
    const Token* after = code[i + 2];
    if (!IsPunct(after, ",") && !IsPunct(after, ")") && !IsPunct(after, "=")) continue;
    const std::string& name = code[i + 1]->text;

    // Close of the parameter list: we are one level deep at the parameter.
    int depth = 1;
    size_t close = code.size();
    for (size_t j = i + 2; j < code.size(); ++j) {
      if (IsPunct(code[j], "(")) ++depth;
      if (IsPunct(code[j], ")") && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == code.size()) continue;

    // Definition? Scan past the init list / qualifiers for `{` before `;`.
    size_t body_open = code.size();
    int paren = 0;
    for (size_t j = close + 1; j < code.size(); ++j) {
      if (IsPunct(code[j], "(")) ++paren;
      if (IsPunct(code[j], ")")) --paren;
      if (paren > 0) continue;
      if (IsPunct(code[j], ";")) break;  // declaration only
      if (IsPunct(code[j], "{")) {
        body_open = j;
        break;
      }
    }
    if (body_open == code.size()) continue;
    const size_t body_close = MatchForward(code, body_open, "{", "}");

    // Draws anywhere from the parameter-list close (member-init lists
    // included) to the end of the body.
    for (size_t j = close + 1; j + 2 < body_close; ++j) {
      if (!IsIdent(code[j], name.c_str()) || !IsPunct(code[j + 1], ".")) continue;
      if (code[j + 2]->kind != TokKind::kIdent || !IsDrawMethod(code[j + 2]->text)) continue;
      if (suppressions.Allows(code[j]->line, "rng-value-param")) continue;
      Report(findings, file.rel, code[j]->line, "rng-value-param",
             "." + code[j + 2]->text + "() on by-value Rng parameter '" + name +
                 "' forks the stream (the caller's Rng does not advance); take Rng* "
                 "or store the Rng and draw from the stored copy");
    }
  }
}

// Draws chained onto an unnamed temporary: `Rng(seed).NextDouble()`. The
// stream lives for one expression, so its draws are position-dependent copies
// of whatever the seed expression happens to be.
void CheckRngTemporaries(const LexedFile& file, const std::vector<const Token*>& code,
                         const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng") || !IsPunct(code[i + 1], "(")) continue;
    const size_t close = MatchForward(code, i + 1, "(", ")");
    if (close + 2 >= code.size()) continue;
    if (!IsPunct(code[close + 1], ".")) continue;
    if (code[close + 2]->kind != TokKind::kIdent || !IsDrawMethod(code[close + 2]->text)) {
      continue;
    }
    if (suppressions.Allows(code[i]->line, "rng-temp")) continue;
    Report(findings, file.rel, code[i]->line, "rng-temp",
           "." + code[close + 2]->text + "() on an unnamed Rng temporary is a draw outside "
           "any seeded scope; name the Rng and thread it from the scenario seed");
  }
}

}  // namespace

void CheckRngDiscipline(const LexedFile& file, std::vector<Finding>* findings) {
  const SuppressionIndex suppressions(file);
  const std::vector<const Token*> code = CodeTokens(file);
  CheckRngCopies(file, code, suppressions, findings);
  CheckRngValueParams(file, code, suppressions, findings);
  CheckRngTemporaries(file, code, suppressions, findings);
}

// ---------------------------------------------------------------------------
// Pass 3: fingerprint coverage
// ---------------------------------------------------------------------------

namespace {

enum class StatsTag { kNone, kFingerprint, kObservability, kConflict };

// A comment classifies a field when, after the comment markers, it *starts*
// with the tag word — prose like "never fingerprinted" does not classify.
StatsTag TagOfComment(const std::string& comment) {
  size_t i = 0;
  if (comment.rfind("//", 0) == 0 || comment.rfind("/*", 0) == 0) i = 2;
  while (i < comment.size() && (comment[i] == ' ' || comment[i] == '-')) ++i;
  auto word_at = [&](const char* word) {
    const size_t n = std::string(word).size();
    if (comment.compare(i, n, word) != 0) return false;
    const char next = i + n < comment.size() ? comment[i + n] : ' ';
    return next == ' ' || next == ':' || next == '.' || next == ',' || next == '*';
  };
  if (word_at("fingerprint")) return StatsTag::kFingerprint;
  if (word_at("observability")) return StatsTag::kObservability;
  return StatsTag::kNone;
}

StatsTag Merge(StatsTag a, StatsTag b) {
  if (b == StatsTag::kNone) return a;
  if (a == StatsTag::kNone) return b;
  return a == b ? a : StatsTag::kConflict;
}

struct StatsField {
  std::string name;
  int line = 0;
  StatsTag tag = StatsTag::kNone;
};

// Parses `struct SessionStats { ... };` out of the full token stream
// (comments included — they carry the classifications). Returns false when
// the struct is missing.
bool ParseSessionStats(const LexedFile& file, std::vector<StatsField>* fields) {
  const std::vector<Token>& toks = file.tokens;
  size_t open = toks.size();
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "struct" &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 1].text == "SessionStats" &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "{") {
      open = i + 2;
      break;
    }
  }
  if (open == toks.size()) return false;

  int brace = 1;
  StatsTag pending = StatsTag::kNone;  // leading comment tag for the next decl
  int trailing_line = -1;              // line whose comments belong to the previous decl
  std::vector<const Token*> decl;
  for (size_t i = open + 1; i < toks.size() && brace > 0; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kComment) {
      if (t.line == trailing_line) continue;  // already consumed as a trailing tag
      pending = Merge(pending, TagOfComment(t.text));
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "{") ++brace;
    if (t.kind == TokKind::kPunct && t.text == "}") {
      --brace;
      if (brace == 0) break;
    }
    if (!(t.kind == TokKind::kPunct && t.text == ";") || brace > 1) {
      decl.push_back(&t);
      continue;
    }
    // End of a depth-1 declaration. Trailing tag comments live on the
    // semicolon's physical line, after it in the stream.
    StatsTag tag = pending;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kComment) break;
      if (toks[j].line != t.line) break;
      tag = Merge(tag, TagOfComment(toks[j].text));
    }
    pending = StatsTag::kNone;
    trailing_line = t.line;

    // Field name: last identifier before the first top-level `=` or `{`.
    bool is_function = false;
    const Token* name = nullptr;
    for (const Token* d : decl) {
      if (d->kind == TokKind::kPunct && (d->text == "=" || d->text == "{")) break;
      if (d->kind == TokKind::kPunct && d->text == "(") {
        is_function = true;
        break;
      }
      if (d->kind == TokKind::kIdent) name = d;
    }
    const bool is_alias = !decl.empty() && decl[0]->kind == TokKind::kIdent &&
                          (decl[0]->text == "using" || decl[0]->text == "typedef" ||
                           decl[0]->text == "static");
    if (name != nullptr && !is_function && !is_alias) {
      fields->push_back(StatsField{name->text, name->line, tag});
    }
    decl.clear();
  }
  return true;
}

}  // namespace

void CheckFingerprintCoverage(const LexedFile& stats_header, const LexedFile& serializer,
                              std::vector<Finding>* findings) {
  std::vector<StatsField> fields;
  if (!ParseSessionStats(stats_header, &fields)) {
    Report(findings, stats_header.rel, 1, "fingerprint-coverage",
           "no `struct SessionStats { ... }` found");
    return;
  }
  const SuppressionIndex header_suppressions(stats_header);
  const SuppressionIndex serializer_suppressions(serializer);

  // Every `stats.<field>` read in the serializer.
  std::map<std::string, int> serialized;  // field -> first line
  const std::vector<const Token*> code = CodeTokens(serializer);
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (!IsIdent(code[i], "stats") || !IsPunct(code[i + 1], ".")) continue;
    if (code[i + 2]->kind != TokKind::kIdent) continue;
    serialized.emplace(code[i + 2]->text, code[i + 2]->line);
  }

  std::set<std::string> known;
  for (const StatsField& field : fields) {
    known.insert(field.name);
    if (header_suppressions.Allows(field.line, "fingerprint-coverage")) continue;
    switch (field.tag) {
      case StatsTag::kNone:
        Report(findings, stats_header.rel, field.line, "fingerprint-coverage",
               "SessionStats field '" + field.name + "' is unclassified; tag it "
               "// fingerprint (replay contract) or // observability (reporting only)");
        break;
      case StatsTag::kConflict:
        Report(findings, stats_header.rel, field.line, "fingerprint-coverage",
               "SessionStats field '" + field.name + "' is tagged both fingerprint "
               "and observability");
        break;
      case StatsTag::kFingerprint:
        if (serialized.count(field.name) == 0) {
          Report(findings, stats_header.rel, field.line, "fingerprint-coverage",
                 "field '" + field.name + "' is tagged // fingerprint but " +
                     serializer.rel + " never reads stats." + field.name +
                     "; the replay contract would silently miss it");
        }
        break;
      case StatsTag::kObservability:
        if (serialized.count(field.name) != 0) {
          Report(findings, stats_header.rel, field.line, "fingerprint-coverage",
                 "field '" + field.name + "' is tagged // observability but " +
                     serializer.rel + " serializes stats." + field.name +
                     "; retag it // fingerprint or drop it from the trace");
        }
        break;
    }
  }
  for (const auto& [name, line] : serialized) {
    if (known.count(name) != 0) continue;
    if (serializer_suppressions.Allows(line, "fingerprint-coverage")) continue;
    Report(findings, serializer.rel, line, "fingerprint-coverage",
           "stats." + name + " is serialized but is not a SessionStats field "
           "(stale after a rename?)");
  }
}

// ---------------------------------------------------------------------------
// Pass 4: tree rules
// ---------------------------------------------------------------------------

namespace {

using Code = std::vector<const Token*>;

// The bench timing harness is the one reviewed determinism exception:
// measuring wall time is its whole job, and nothing it times feeds a
// simulation.
constexpr std::string_view kTimingAllowFiles[] = {"bench/bench_util.h"};
// The one place allowed to create threads.
constexpr std::string_view kThreadPoolFiles[] = {"src/common/thread_pool.h",
                                                 "src/common/thread_pool.cc"};
// Files allowed to use the pool. Deterministic fan-out requires
// pure-function-of-index work items with a fixed merge order, so every new
// user is a deliberate, reviewed addition to this list.
constexpr std::string_view kPoolUserFiles[] = {
    "src/morph/config_search.h",      // parallel candidate evaluation
    "src/manager/elastic_trainer.h",  // morph planning off the step loop
    "src/manager/elastic_trainer.cc",
    "src/train/trainers.h",  // pooled micro-batch execution
    "src/train/trainers.cc",
    "src/varuna/varuna.h",  // umbrella header re-export
};
// The per-event simulation hot path (src/sim/, the executor) and the
// morph-decision sweep (src/morph/, the schedule cache it leans on) stay free
// of node-based containers and std::function. The checkpoint store's flush
// events and chain scans fire on the DES hot path during every storm.
constexpr std::string_view kHotPathPrefixes[] = {"src/sim/", "src/morph/"};
constexpr std::string_view kHotPathFiles[] = {
    "src/pipeline/executor.h",       "src/pipeline/executor.cc",
    "src/pipeline/schedule_cache.h", "src/pipeline/schedule_cache.cc",
    "src/manager/checkpoint.h",      "src/manager/checkpoint.cc",
};
// Calibration is the one-time profiling step (§4.3): its std::map of profiled
// points is built once at job start and only read afterwards.
constexpr std::string_view kHotPathAllowFiles[] = {"src/morph/calibration.h",
                                                   "src/morph/calibration.cc"};

template <size_t N>
bool Listed(const std::string_view (&list)[N], const std::string& rel) {
  return std::find(std::begin(list), std::end(list), rel) != std::end(list);
}

bool IsOneOf(const Token* t, TokKind kind, std::initializer_list<std::string_view> texts) {
  return t->kind == kind && std::find(texts.begin(), texts.end(), t->text) != texts.end();
}
bool PunctAt(const Code& code, size_t i, const char* text) {
  return i < code.size() && IsPunct(code[i], text);
}
// code[i] is preceded by `std::`.
bool StdQualified(const Code& code, size_t i) {
  return i >= 3 && IsPunct(code[i - 1], ":") && IsPunct(code[i - 2], ":") &&
         IsIdent(code[i - 3], "std");
}
// code[i] is the callee of a call to the C library function of that name:
// unqualified, `std::` or `::`, but not a member (`x.time(`, `p->clock(`)
// nor another namespace's (`sim::time(`).
bool LibraryCall(const Code& code, size_t i) {
  if (!PunctAt(code, i + 1, "(")) return false;
  if (i == 0) return true;
  if (IsPunct(code[i - 1], ".")) return false;
  if (i >= 2 && IsPunct(code[i - 1], ">") && IsPunct(code[i - 2], "-")) return false;
  if (i >= 2 && IsPunct(code[i - 1], ":") && IsPunct(code[i - 2], ":")) {
    if (i == 2) return true;
    const Token* scope = code[i - 3];
    return IsIdent(scope, "std") || (scope->kind != TokKind::kIdent && !IsPunct(scope, ">"));
  }
  return true;
}

std::string MatchDeterminism(const Code& code, size_t i) {
  const Token* t = code[i];
  if (IsOneOf(t, TokKind::kIdent, {"rand", "srand", "time", "clock"}) && LibraryCall(code, i)) {
    return t->text + "()";
  }
  if (IsIdent(t, "gettimeofday") && PunctAt(code, i + 1, "(")) return "gettimeofday()";
  if (IsOneOf(t, TokKind::kIdent,
              {"random_device", "system_clock", "steady_clock", "high_resolution_clock"})) {
    return "std::" + t->text;
  }
  if (IsOneOf(t, TokKind::kHeader, {"<random>", "<chrono>"})) return "#include " + t->text;
  return "";
}

std::string MatchAssert(const Code& code, size_t i) {
  const bool call = IsIdent(code[i], "assert") && PunctAt(code, i + 1, "(") &&
                    !(i > 0 && IsPunct(code[i - 1], "."));
  return call ? "assert()" : "";
}

std::string MatchThreadCreation(const Code& code, size_t i) {
  const Token* t = code[i];
  if (IsOneOf(t, TokKind::kIdent, {"thread", "jthread", "async"}) && StdQualified(code, i)) {
    return "std::" + t->text;
  }
  if (IsOneOf(t, TokKind::kHeader, {"<thread>", "<future>"})) return "#include " + t->text;
  return "";
}

std::string MatchPoolUse(const Code& code, size_t i) {
  if (IsIdent(code[i], "ThreadPool")) return "ThreadPool";
  const bool include = i >= 2 && IsPunct(code[i - 2], "#") && IsIdent(code[i - 1], "include") &&
                       code[i]->text == "\"src/common/thread_pool.h\"";
  return include ? "#include " + code[i]->text : "";
}

std::string MatchHotPath(const Code& code, size_t i) {
  const Token* t = code[i];
  if (IsOneOf(t, TokKind::kIdent, {"function", "map", "set", "unordered_map", "unordered_set"}) &&
      StdQualified(code, i)) {
    return "std::" + t->text;
  }
  if (IsOneOf(t, TokKind::kHeader,
              {"<map>", "<set>", "<unordered_map>", "<unordered_set>", "<functional>"})) {
    return "#include " + t->text;
  }
  return "";
}

// `Tensor <name>` followed by `,` or `)` is a by-value parameter; references,
// pointers, return types, members and template arguments do not match.
std::string MatchTensorByValue(const Code& code, size_t i) {
  const bool param = IsIdent(code[i], "Tensor") && i + 2 < code.size() &&
                     code[i + 1]->kind == TokKind::kIdent &&
                     IsOneOf(code[i + 2], TokKind::kPunct, {",", ")"});
  return param ? "Tensor " + code[i + 1]->text : "";
}

// Time-like and byte-like `double` names need their unit: `_s` (or `_per_s`)
// and `_bytes` (or `_bytes_per_s`, `_bps`); private members carry a trailing
// underscore after the unit. A bare `bytes` is already a unit, and
// dimensionless names that merely mention a time word (stall_probability)
// are exempt.
std::string MatchUnitSuffix(const Code& code, size_t i) {
  if (!IsIdent(code[i], "double") || i + 2 >= code.size() ||
      code[i + 1]->kind != TokKind::kIdent ||
      !IsOneOf(code[i + 2], TokKind::kPunct, {",", ")", "=", ";", "{"})) {
    return "";
  }
  const std::string& name = code[i + 1]->text;
  for (std::string_view dimensionless :
       {"probability", "prob", "ratio", "fraction", "factor", "sigma", "count", "slot", "slots"}) {
    if (name.ends_with(dimensionless)) return "";
  }
  constexpr std::string_view kTimeWords[] = {"time",     "latency",  "delay",  "timeout",
                                             "interval", "duration", "deadline", "period",
                                             "stall",    "horizon"};
  constexpr std::string_view kByteWords[] = {"byte", "bytes", "payload"};
  bool time_word = false;
  bool byte_word = false;
  std::istringstream words(name);
  for (std::string word; std::getline(words, word, '_');) {
    time_word = time_word || Listed(kTimeWords, word);
    byte_word = byte_word || Listed(kByteWords, word);
  }
  std::string unit = name;
  if (unit.ends_with("_")) unit.pop_back();
  if (time_word) {
    return unit.ends_with("_s") ? "" : "double '" + name + "' reads as a time; suffix it with _s";
  }
  if (byte_word && name != "bytes" && !unit.ends_with("_bytes") &&
      !unit.ends_with("_bytes_per_s") && !unit.ends_with("_bps")) {
    return "double '" + name + "' reads as a byte count; suffix it with _bytes";
  }
  return "";
}

struct TokenRule {
  const char* rule;
  std::string (*match)(const Code& code, size_t i);
  const char* advice;  // appended to the match; empty when the match says it all
};

constexpr TokenRule kDeterminism = {
    "determinism", MatchDeterminism,
    " breaks the SimEngine determinism contract; route randomness through varuna::Rng "
    "and time through SimEngine::now()"};
constexpr TokenRule kCheckMacro = {
    "check-macro", MatchAssert, ": use VARUNA_CHECK (src/common/check.h) instead"};
constexpr TokenRule kThreadCreation = {
    "threading", MatchThreadCreation,
    ": spawn work through the deterministic pool in src/common/thread_pool.h, not ad-hoc "
    "threads"};
constexpr TokenRule kPoolUse = {
    "threading", MatchPoolUse,
    " outside the reviewed pool-user allowlist; pooled work items must be pure functions of "
    "their index, so add the file to kPoolUserFiles (tools/analyze/analyzer.cc) deliberately"};
constexpr TokenRule kHotPath = {
    "hot-path", MatchHotPath,
    " in a simulation hot-path file; use flat vectors / the SimEngine slot pool / "
    "SmallCallback (src/sim/callback.h), or add the file to kHotPathAllowFiles deliberately"};
constexpr TokenRule kTensorByValue = {
    "tensor-by-value", MatchTensorByValue,
    ": a by-value Tensor parameter copies the element buffer; take const Tensor& (input) "
    "or Tensor* (output)"};
constexpr TokenRule kUnitSuffix = {"unit-suffix", MatchUnitSuffix, ""};

void CheckIncludeGuard(const LexedFile& file, const Code& code,
                       const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  std::string expected = file.rel;
  for (char& c : expected) {
    const bool separator = c == '/' || c == '.' || c == '-';
    c = separator ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  expected += '_';
  const Token* ifndef = nullptr;
  const Token* define = nullptr;
  for (size_t i = 0; i + 2 < code.size() && define == nullptr; ++i) {
    if (!IsPunct(code[i], "#") || code[i + 2]->kind != TokKind::kIdent) continue;
    if (ifndef == nullptr && IsIdent(code[i + 1], "ifndef")) {
      ifndef = code[i + 2];
    } else if (ifndef != nullptr && IsIdent(code[i + 1], "define")) {
      define = code[i + 2];
    }
  }
  const int line = ifndef == nullptr ? 1 : ifndef->line;
  if (suppressions.Allows(line, "include-guard")) return;
  if (define == nullptr) {
    Report(findings, file.rel, line, "include-guard", "missing include guard " + expected);
  } else if (ifndef->text != expected || define->text != expected) {
    const std::string& got = ifndef->text != expected ? ifndef->text : define->text;
    Report(findings, file.rel, line, "include-guard", "guard is " + got + ", want " + expected);
  }
}

}  // namespace

void CheckTreeRules(const LexedFile& file, std::vector<Finding>* findings) {
  const std::string& rel = file.rel;
  const bool in_src = rel.starts_with("src/");
  const bool replay_checked = in_src || rel.starts_with("tests/") ||
                              rel.starts_with("bench/") || rel.starts_with("examples/");
  const bool hot_path = (std::any_of(std::begin(kHotPathPrefixes), std::end(kHotPathPrefixes),
                                     [&](std::string_view p) { return rel.starts_with(p); }) ||
                         Listed(kHotPathFiles, rel)) &&
                        !Listed(kHotPathAllowFiles, rel);
  const bool unit_scoped =
      (rel.starts_with("src/net/") || rel.starts_with("src/cluster/")) && rel.ends_with(".h");

  std::vector<const TokenRule*> rules;
  if (replay_checked && !Listed(kTimingAllowFiles, rel)) rules.push_back(&kDeterminism);
  if (replay_checked) rules.push_back(&kCheckMacro);
  if (in_src && !Listed(kThreadPoolFiles, rel)) rules.push_back(&kThreadCreation);
  if (in_src && !Listed(kThreadPoolFiles, rel) && !Listed(kPoolUserFiles, rel)) {
    rules.push_back(&kPoolUse);
  }
  if (hot_path) rules.push_back(&kHotPath);
  if (in_src) rules.push_back(&kTensorByValue);
  if (unit_scoped) rules.push_back(&kUnitSuffix);

  const SuppressionIndex suppressions(file);
  const Code code = CodeTokens(file);
  for (size_t i = 0; i < code.size(); ++i) {
    for (const TokenRule* rule : rules) {
      const std::string what = rule->match(code, i);
      if (what.empty() || suppressions.Allows(code[i]->line, rule->rule)) continue;
      Report(findings, rel, code[i]->line, rule->rule, what + rule->advice);
    }
  }
  if (rel.ends_with(".h")) CheckIncludeGuard(file, code, suppressions, findings);
}

std::vector<std::string> TreeRuleFileLists() {
  std::vector<std::string> files;
  const auto append = [&files](const auto& list) {
    files.insert(files.end(), std::begin(list), std::end(list));
  };
  append(kTimingAllowFiles);
  append(kThreadPoolFiles);
  append(kPoolUserFiles);
  append(kHotPathFiles);
  append(kHotPathAllowFiles);
  return files;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Deliberately defective inputs for this analyzer's own tests: data, not code.
constexpr std::string_view kFixturesRel = "tests/analyze_fixtures";

bool HasSourceExtension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

}  // namespace

int RunAnalysis(const AnalyzerOptions& options, std::vector<Finding>* findings,
                std::string* error) {
  namespace fs = std::filesystem;
  const fs::path root(options.root);

  std::string layering_text;
  if (!ReadFile((root / options.layering_rel).string(), &layering_text)) {
    *error = "cannot read layering spec: " + (root / options.layering_rel).string();
    return 2;
  }
  LayeringSpec spec;
  if (!ParseLayeringSpec(layering_text, &spec, error)) return 2;

  std::vector<std::string> rels;
  for (const std::string& scan : options.roots) {
    const fs::path base = root / scan;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      rels.push_back(fs::path(scan).generic_string());
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      *error = "no such scan root: " + base.string();
      return 2;
    }
    for (fs::recursive_directory_iterator it(base, ec), end; it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory() && (name.rfind("build", 0) == 0 || name[0] == '.' ||
                                 fs::relative(p, root).generic_string() == kFixturesRel)) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && HasSourceExtension(p)) {
        rels.push_back(fs::relative(p, root).generic_string());
      }
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

  std::vector<LexedFile> files;
  files.reserve(rels.size());
  for (const std::string& rel : rels) {
    std::string text;
    const std::string path = (root / rel).string();
    if (!ReadFile(path, &text)) {
      *error = "cannot read " + path;
      return 2;
    }
    files.push_back(Lex(path, rel, text));
  }

  CheckIncludeGraph(files, spec, findings);
  for (const LexedFile& file : files) {
    if (file.rel.rfind("src/", 0) == 0) CheckRngDiscipline(file, findings);
    CheckTreeRules(file, findings);
  }

  const LexedFile* stats_header = nullptr;
  const LexedFile* serializer = nullptr;
  for (const LexedFile& file : files) {
    if (file.rel == options.stats_header_rel) stats_header = &file;
    if (file.rel == options.serializer_rel) serializer = &file;
  }
  std::string text;
  std::vector<LexedFile> extra;  // contract files outside the scan roots
  extra.reserve(2);
  if (stats_header == nullptr) {
    const std::string path = (root / options.stats_header_rel).string();
    if (!ReadFile(path, &text)) {
      *error = "cannot read stats header: " + path;
      return 2;
    }
    extra.push_back(Lex(path, options.stats_header_rel, text));
    stats_header = &extra.back();
  }
  if (serializer == nullptr) {
    const std::string path = (root / options.serializer_rel).string();
    if (!ReadFile(path, &text)) {
      *error = "cannot read serializer: " + path;
      return 2;
    }
    extra.push_back(Lex(path, options.serializer_rel, text));
    serializer = &extra.back();
  }
  CheckFingerprintCoverage(*stats_header, *serializer, findings);

  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings->empty() ? 0 : 1;
}

}  // namespace analyze
}  // namespace varuna
