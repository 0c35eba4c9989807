// Pass 2: the cross-file rules R8 and R13, evaluated over the merged
// RepoIndex.
// Everything here is deterministic by construction: files arrive sorted by
// path, graph nodes are visited in sorted order, and every finding anchors
// at the first (path, line) site that exhibits the problem.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "lint/index.h"
#include "lint/lint.h"

namespace tamper::lint {

namespace {

[[nodiscard]] bool rule_enabled(const Config& config, std::string_view id) {
  if (config.rules.empty()) return true;
  return std::find(config.rules.begin(), config.rules.end(), id) != config.rules.end();
}

[[nodiscard]] bool suppressed_at(const FileIndex& file, int line,
                                 std::string_view rule) {
  const std::size_t line0 = line > 0 ? static_cast<std::size_t>(line - 1) : 0;
  if (line0 >= file.suppressed.size()) return false;
  const auto& rules = file.suppressed[line0];
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/// Deterministic strongly-connected components (Tarjan, iterative) over a
/// graph given as sorted node names + sorted adjacency. Returns the SCCs
/// that contain a cycle (size > 1, or a self-loop), each sorted, in
/// ascending order of their smallest member.
[[nodiscard]] std::vector<std::vector<std::string>> cyclic_sccs(
    const std::map<std::string, std::set<std::string>>& graph) {
  std::map<std::string, int> index, lowlink;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  int next_index = 0;

  struct Frame {
    const std::string* node;
    std::set<std::string>::const_iterator it;
  };
  for (const auto& [root, unused_] : graph) {
    (void)unused_;
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames;
    const auto push_node = [&](const std::string& n) {
      index[n] = lowlink[n] = next_index++;
      stack.push_back(n);
      on_stack.insert(n);
      frames.push_back({&graph.find(n)->first, graph.find(n)->second.begin()});
    };
    push_node(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::string& n = *f.node;
      const auto& adj = graph.find(n)->second;
      if (f.it != adj.end()) {
        const std::string& succ = *f.it;
        ++f.it;
        if (graph.count(succ) == 0) continue;  // edge out of the file set
        if (index.count(succ) == 0) {
          push_node(succ);
        } else if (on_stack.count(succ) != 0) {
          lowlink[n] = std::min(lowlink[n], index[succ]);
        }
      } else {
        if (lowlink[n] == index[n]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string m = stack.back();
            stack.pop_back();
            on_stack.erase(m);
            scc.push_back(m);
            if (m == n) break;
          }
          std::sort(scc.begin(), scc.end());
          const bool self_loop =
              scc.size() == 1 && graph.find(scc[0])->second.count(scc[0]) != 0;
          if (scc.size() > 1 || self_loop) sccs.push_back(std::move(scc));
        }
        frames.pop_back();
        if (!frames.empty()) {
          Frame& parent = frames.back();
          lowlink[*parent.node] = std::min(lowlink[*parent.node], lowlink[n]);
        }
      }
    }
  }
  std::sort(sccs.begin(), sccs.end());
  return sccs;
}

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep) {
  std::ostringstream out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out << sep;
    out << parts[i];
  }
  return out.str();
}

// ---------------------------------------------------------------- R8

void rule_lock_order(const RepoIndex& index, const Config& config,
                     std::vector<Finding>& out) {
  (void)config;
  struct Site {
    std::string path;
    int line;
  };
  // First acquisition site per ordered (from, to) pair; files are sorted so
  // "first" is deterministic.
  std::map<std::pair<std::string, std::string>, Site> edges;
  for (const FileIndex& file : index.files)
    for (const LockNesting& n : file.lock_nestings)
      edges.emplace(std::make_pair(n.from, n.to), Site{file.path, n.line});

  std::map<std::string, std::set<std::string>> graph;
  for (const auto& [edge, site] : edges) {
    (void)site;
    graph[edge.first].insert(edge.second);
    graph[edge.second];  // nodes with only incoming edges still exist
  }

  for (const auto& scc : cyclic_sccs(graph)) {
    const std::set<std::string> members(scc.begin(), scc.end());
    std::vector<std::string> described;
    const Site* anchor = nullptr;
    for (const auto& [edge, site] : edges) {
      if (members.count(edge.first) == 0 || members.count(edge.second) == 0)
        continue;
      if (anchor == nullptr) anchor = &site;
      described.push_back(edge.first + " -> " + edge.second + " (" + site.path +
                          ":" + std::to_string(site.line) + ")");
    }
    if (anchor == nullptr) continue;
    bool is_suppressed = false;
    for (const FileIndex& file : index.files)
      if (file.path == anchor->path)
        is_suppressed = suppressed_at(file, anchor->line, "R8");
    if (is_suppressed) continue;
    out.push_back({"R8", anchor->path, anchor->line,
                   "lock-order inversion: mutexes {" + join(scc, ", ") +
                       "} are acquired in conflicting orders — " +
                       join(described, "; ") +
                       "; pick one hierarchy (a cycle here is a deadlock "
                       "waiting for its interleaving)"});
  }
}

/// R13 — raw ID-taxonomy parameters in cross-module interfaces. A header
/// parameter named after one of the pipeline's identifier kinds (`pop`,
/// `asn`, `epoch`, ...) but typed as a raw int or string is exactly the
/// signature a swapped-argument bug slips through; common/ids.h has a
/// strong type for each. Serialization boundaries that genuinely traffic
/// in raw representations carry per-site suppressions.
void rule_raw_id_params(const RepoIndex& index, const Config& config,
                        std::vector<Finding>& out) {
  const auto strong_name = [](const std::string& word) {
    std::string t = word;
    t[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(t[0])));
    return t + "Id";
  };
  // The declared type minus cv-qualifiers and reference/pointer sigils:
  // "const std::string&" -> "std::string".
  const auto core_type = [](const std::string& type) {
    std::string core;
    std::string token;
    const auto flush = [&] {
      if (token.empty() || token == "const" || token == "volatile") {
        token.clear();
        return;
      }
      if (!core.empty()) core.push_back(' ');
      core += token;
      token.clear();
    };
    for (char c : type) {
      if (c == ' ' || c == '&' || c == '*') flush();
      else token.push_back(c);
    }
    flush();
    return core;
  };

  for (const FileIndex& file : index.files) {
    // Only src/ headers are cross-module interfaces; tools, tests, and
    // bench own their argument parsing and fixtures.
    if (file.path.rfind("src/", 0) != 0) continue;
    for (const FunctionDecl& fn : file.functions) {
      for (const ParamDecl& param : fn.params) {
        if (param.name.empty()) continue;
        std::string word;
        for (const std::string& w : config.id_taxonomy)
          if (param.name == w || param.name == w + "_id") {
            word = w;
            break;
          }
        if (word.empty()) continue;
        const std::string core = core_type(param.type);
        if (std::find(config.id_raw_types.begin(), config.id_raw_types.end(),
                      core) == config.id_raw_types.end())
          continue;
        // Declarations wrap: a suppression on (or above) the function name
        // covers every parameter line of that declaration.
        if (suppressed_at(file, param.line, "R13") ||
            suppressed_at(file, fn.line, "R13"))
          continue;
        out.push_back(
            {"R13", file.path, param.line,
             "parameter \"" + param.name + "\" of " + fn.name + "() has raw type \"" +
                 core + "\" — ID-taxonomy names take strong types (common/ids.h: " +
                 strong_name(word) +
                 ") so swapped identifier arguments cannot compile; wrap it, or "
                 "tamperlint-allow(R13) a genuine serialization boundary"});
      }
    }
  }
}

}  // namespace

std::vector<Finding> repo_rule_findings(const RepoIndex& index, const Config& config) {
  std::vector<Finding> out;
  if (rule_enabled(config, "R8")) rule_lock_order(index, config, out);
  if (rule_enabled(config, "R13")) rule_raw_id_params(index, config, out);
  return out;
}

}  // namespace tamper::lint
