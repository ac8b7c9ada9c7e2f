// Module-layering analysis over the #include graph.
//
// The repo declares its intended module DAG in tools/layering.toml (a
// small TOML subset, parsed here without external dependencies):
//
//   [modules]
//   common = []
//   obs    = ["common"]
//   pilot  = ["common", "obs", "sim"]
//
// A module is a top-level directory under src/; a file belongs to the
// module named by the first path component after the last "src/"
// segment of its path. analyze_layering() builds the quoted-#include
// graph of the scanned files and checks it against the declaration:
//
//   undeclared-module      a scanned file's module is missing from
//                          [modules] (every module must be declared);
//   undeclared-dependency  file in module A includes a file in module
//                          B, but B is not in A's declared list — the
//                          "downward or sideways edge" that erodes
//                          layering;
//   include-cycle          a cycle among the scanned files' quoted
//                          includes (reported once per cycle with the
//                          full file path around it);
//   config-cycle           the declared DAG itself is cyclic, so the
//                          declaration is meaningless.
//
// Only quoted includes that resolve to a scanned file participate;
// angled (system) includes are ignored. A standalone
// `// entk-analyze: allow(layering)` above an #include (or trailing on
// its line) exempts that single edge.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/cpp_lexer.hpp"
#include "common/status.hpp"

namespace entk::analysis {

struct LayeringConfig {
  /// Module name -> modules it may depend on (not including itself).
  std::map<std::string, std::vector<std::string>> modules;
};

/// Parses the TOML subset described above. Unknown sections are
/// ignored; malformed lines inside [modules] are errors.
Result<LayeringConfig> parse_layering_config(const std::string& text);

/// Reads and parses a layering config file.
Result<LayeringConfig> load_layering_config(const std::string& path);

struct LayerFinding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

struct LayerAnalysis {
  std::vector<LayerFinding> findings;
  std::size_t module_count = 0;  ///< Modules seen among the files.
  std::size_t edge_count = 0;    ///< Resolved file-level include edges.
};

LayerAnalysis analyze_layering(const std::vector<LexedFile>& files,
                               const LayeringConfig& config);

}  // namespace entk::analysis
