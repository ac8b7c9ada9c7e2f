// entk-lint: project-invariant checker for the EnTK C++ tree.
//
// A static checker that walks source roots (normally src/) and
// enforces the concurrency / hygiene invariants the toolkit relies
// on. It runs as a CTest test, so `ctest` fails whenever an invariant
// regresses. Since it sits on the token-aware lexer in
// analysis/cpp_lexer.hpp, tokens inside string literals, char
// literals and comments are never matched — a line like
//   log("do not use std::mutex here");
// is not a violation. Rules:
//
//   raw-mutex              No naked std::mutex / std::lock_guard /
//                          std::unique_lock / std::scoped_lock /
//                          std::condition_variable outside the wrapper
//                          header common/mutex.hpp. Everything must go
//                          through entk::Mutex so Clang thread-safety
//                          analysis sees it (docs/CORRECTNESS.md).
//   thread-detach          No std::thread::detach(): detached threads
//                          outlive their owners and race teardown.
//   sleep-in-runtime       No sleep_for/sleep_until inside core/ or
//                          pilot/ product code; runtime waits use
//                          condition variables, not timed polls.
//   raw-clock              No std::chrono::*_clock::now() outside the
//                          wrapper header common/clock.hpp. Runtime
//                          code stamps time through entk::Clock so the
//                          same code yields virtual seconds on the sim
//                          backend; raw reads silently desynchronise
//                          traces and profiles (docs/OBSERVABILITY.md).
//   raw-file-write         No bare std::ofstream / fopen() outside the
//                          crash-consistent helper common/atomic_file.*.
//                          Run artifacts (traces, profiles, metrics,
//                          bench JSON) must go through
//                          entk::write_file_atomic /
//                          entk::AtomicFileWriter so a mid-write kill
//                          never leaves a torn file; sandbox-local task
//                          outputs may allow(raw-file-write) with a
//                          justification (docs/RESILIENCE.md).
//   global-run-state       No new references to process-global mutable
//                          run state inside core/ or pilot/ runtime
//                          code: obs::Metrics::instance(),
//                          obs::TraceRecorder::instance(), bare
//                          next_uid() and the uid-counter resets.
//                          State a workload depends on must hang off
//                          core::Session / core::Runtime so N sessions
//                          can share one process without crossing
//                          wires. The audited pre-existing globals
//                          carry allow(global-run-state) with a
//                          justification (aggregate-by-design metrics,
//                          uid calls whose prefix is already a
//                          session-scoped family).
//   own-header-first       A foo.cpp with a sibling foo.hpp includes it
//                          first, proving the header is self-contained.
//   using-namespace-header No `using namespace` at any scope in a
//                          header; it leaks into every includer.
//
// Suppressions (always pair with a justification; the grammar is
// shared with entk-analyze — see analysis/suppressions.hpp):
//   // entk-lint: allow(<rule>)        trailing: suppress on this line;
//                                      standalone: suppress the whole
//                                      following statement
//   // entk-lint: allow-file(<rule>)   suppress <rule> for this file
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/cpp_lexer.hpp"
#include "analysis/suppressions.hpp"

namespace {

namespace fs = std::filesystem;
using entk::analysis::LexedFile;
using entk::analysis::SuppressionSet;
using entk::analysis::TokKind;
using entk::analysis::Token;

struct Violation {
  std::string file;
  std::size_t line = 0;  // 1-based; 0 for file-level findings
  std::string rule;
  std::string message;
};

struct FileReport {
  std::vector<Violation> violations;
  std::size_t suppressions_used = 0;
};

// The token tables are string literals, which the lexer keeps out of
// the identifier stream — so unlike the old line-based scanner, this
// file needs no allow-file markers for its own tables.
const std::set<std::string>& raw_mutex_names() {
  static const std::set<std::string> kNames = {
      "mutex",      "timed_mutex", "recursive_mutex",    "shared_mutex",
      "lock_guard", "unique_lock", "condition_variable", "scoped_lock"};
  return kNames;
}

const std::set<std::string>& raw_clock_names() {
  static const std::set<std::string> kNames = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  return kNames;
}

bool is_header(const fs::path& path) { return path.extension() == ".hpp"; }
bool is_source(const fs::path& path) { return path.extension() == ".cpp"; }

std::string generic(const fs::path& path) { return path.generic_string(); }

bool has_suffix(const fs::path& path, const std::string& suffix) {
  const std::string p = generic(path);
  return p.size() >= suffix.size() &&
         p.rfind(suffix) == p.size() - suffix.size();
}

/// True for the one file allowed to spell out raw std primitives.
bool is_wrapper_header(const fs::path& path) {
  return has_suffix(path, "common/mutex.hpp");
}

/// True for the one file allowed to read std::chrono clocks directly.
bool is_clock_header(const fs::path& path) {
  return has_suffix(path, "common/clock.hpp");
}

/// True for the crash-consistent write helper itself, the one place
/// allowed to open files for writing directly.
bool is_atomic_write_helper(const fs::path& path) {
  return has_suffix(path, "common/atomic_file.hpp") ||
         has_suffix(path, "common/atomic_file.cpp");
}

/// True when `path` (relative to the scanned root) lives in a runtime
/// directory where timed polling is banned.
bool in_runtime_dir(const fs::path& relative) {
  const std::string p = generic(relative);
  return p.rfind("core/", 0) == 0 || p.rfind("pilot/", 0) == 0 ||
         p.find("/core/") != std::string::npos ||
         p.find("/pilot/") != std::string::npos;
}

FileReport lint_file(const fs::path& path, const fs::path& relative) {
  FileReport report;
  auto lexed = entk::analysis::lex_file(generic(path));
  if (!lexed.ok()) {
    report.violations.push_back(
        {generic(path), 0, "io", "cannot open file for reading"});
    return report;
  }
  const LexedFile& file = lexed.value();
  const SuppressionSet suppressions =
      entk::analysis::scan_suppressions(file, "entk-lint");

  std::set<std::pair<std::string, int>> reported;  // one per rule+line
  auto add = [&](int line_number, const std::string& rule,
                 std::string message) {
    if (!reported.insert({rule, line_number}).second) return;
    if (suppressions.allows(rule, line_number)) {
      ++report.suppressions_used;
      return;
    }
    report.violations.push_back({generic(path),
                                 static_cast<std::size_t>(line_number),
                                 rule, std::move(message)});
  };

  const std::vector<Token>& tokens = file.tokens;
  auto text = [&](std::size_t i) -> const std::string& {
    static const std::string empty;
    return i < tokens.size() ? tokens[i].text : empty;
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;

    if (!is_wrapper_header(path) && t.text == "std" &&
        text(i + 1) == "::" &&
        raw_mutex_names().count(text(i + 2)) != 0) {
      add(t.line, "raw-mutex",
          "std::" + text(i + 2) +
              " is banned outside common/mutex.hpp; use entk::Mutex"
              " / entk::MutexLock / entk::CondVar");
      continue;
    }

    if (!is_clock_header(path) &&
        raw_clock_names().count(t.text) != 0 && text(i + 1) == "::" &&
        text(i + 2) == "now") {
      add(t.line, "raw-clock",
          t.text +
              "::now() is banned outside common/clock.hpp; stamp time "
              "through entk::Clock");
      continue;
    }

    if (!is_atomic_write_helper(path) && t.text == "std" &&
        text(i + 1) == "::" && text(i + 2) == "ofstream") {
      add(t.line, "raw-file-write",
          "std::ofstream is banned for run artifacts; write through "
          "entk::write_file_atomic / entk::AtomicFileWriter "
          "(common/atomic_file.hpp) so a mid-write kill never leaves a "
          "torn file");
      continue;
    }

    if (!is_atomic_write_helper(path) && t.text == "fopen" &&
        (text(i + 1) == "(" ||
         (i >= 2 && text(i - 1) == "::" && text(i - 2) == "std"))) {
      add(t.line, "raw-file-write",
          "fopen() is banned for run artifacts; write through "
          "entk::write_file_atomic / entk::AtomicFileWriter "
          "(common/atomic_file.hpp) so a mid-write kill never leaves a "
          "torn file");
      continue;
    }

    if (t.text == "detach" && i > 0 &&
        (text(i - 1) == "." || text(i - 1) == "->") &&
        text(i + 1) == "(") {
      add(t.line, "thread-detach",
          "detach() is banned: detached threads outlive their owner "
          "and race process teardown; join via the owning object");
      continue;
    }

    if (in_runtime_dir(relative) &&
        (t.text == "sleep_for" || t.text == "sleep_until")) {
      add(t.line, "sleep-in-runtime",
          "timed sleeps are banned in core/ and pilot/ runtime code; "
          "wait on an entk::CondVar instead");
      continue;
    }

    if (in_runtime_dir(relative)) {
      const bool global_singleton =
          (t.text == "Metrics" || t.text == "TraceRecorder") &&
          text(i + 1) == "::" && text(i + 2) == "instance";
      const bool global_uid =
          (t.text == "next_uid" && text(i + 1) == "(") ||
          t.text == "reset_uid_counters_for_testing" ||
          t.text == "reset_uid_counters_with_prefix";
      if (global_singleton || global_uid) {
        add(t.line, "global-run-state",
            t.text +
                (global_singleton ? "::instance()" : "()") +
                " is process-global mutable run state, banned in core/ "
                "and pilot/: hang workload state off core::Session / "
                "core::Runtime so concurrent sessions cannot cross "
                "wires, or justify with allow(global-run-state)");
        continue;
      }
    }

    if (is_header(path) && t.text == "using" &&
        text(i + 1) == "namespace") {
      add(t.line, "using-namespace-header",
          "`using namespace` in a header leaks into every includer; "
          "use explicit qualification or a namespace alias");
    }
  }

  // File-level rule: own header first.
  if (is_source(path)) {
    fs::path header = path;
    header.replace_extension(".hpp");
    if (fs::exists(header)) {
      const std::string expected = header.filename().string();
      const bool ok =
          !file.includes.empty() &&
          fs::path(file.includes.front().path).filename().string() ==
              expected;
      if (!ok) {
        add(file.includes.empty() ? 1 : file.includes.front().line,
            "own-header-first",
            "first include must be its own header \"" + expected +
                "\" (proves the header is self-contained)");
      }
    }
  }

  return report;
}

int usage() {
  std::fprintf(stderr,
               "usage: entk-lint <source-root> [<source-root>...]\n"
               "Lints .hpp/.cpp files recursively; exits non-zero on "
               "violations.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  std::vector<std::pair<fs::path, fs::path>> files;  // absolute, relative
  for (int i = 1; i < argc; ++i) {
    const fs::path root(argv[i]);
    if (fs::is_regular_file(root)) {
      files.emplace_back(root, root.filename());
      continue;
    }
    if (!fs::is_directory(root)) {
      std::fprintf(stderr, "entk-lint: no such file or directory: %s\n",
                   argv[i]);
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& path = entry.path();
      if (is_header(path) || is_source(path)) {
        files.emplace_back(path, fs::relative(path, root));
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Violation> violations;
  std::size_t suppressions = 0;
  for (const auto& [path, relative] : files) {
    FileReport report = lint_file(path, relative);
    suppressions += report.suppressions_used;
    violations.insert(violations.end(), report.violations.begin(),
                      report.violations.end());
  }

  for (const Violation& violation : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", violation.file.c_str(),
                 violation.line, violation.rule.c_str(),
                 violation.message.c_str());
  }
  std::printf("entk-lint: %zu files, %zu violations, %zu suppressions\n",
              files.size(), violations.size(), suppressions);
  return violations.empty() ? 0 : 1;
}
