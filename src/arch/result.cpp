#include "arch/result.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace archex {

std::size_t Architecture::num_used_nodes() const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(), [](const Node& n) { return n.used; }));
}

std::vector<NodeId> Architecture::used_nodes(const NodeFilter& f) const {
  std::vector<NodeId> out;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const Node& n = nodes[j];
    if (!n.used) continue;
    NodeSpec spec{n.name, n.type, n.subtype, n.tags};
    if (f.matches(spec)) out.push_back(static_cast<NodeId>(j));
  }
  return out;
}

bool Architecture::has_edge(NodeId from, NodeId to) const {
  return std::find(edges.begin(), edges.end(), std::make_pair(from, to)) != edges.end();
}

graph::Digraph Architecture::to_digraph() const {
  graph::Digraph g(nodes.size());
  for (const auto& [from, to] : edges) g.add_edge(from, to);
  return g;
}

std::vector<double> Architecture::node_fail_probs(const Library& lib) const {
  std::vector<double> p(nodes.size(), 0.0);
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].used && nodes[j].impl >= 0) p[j] = lib.at(nodes[j].impl).fail_prob();
  }
  return p;
}

double Architecture::in_flow(const std::string& commodity, NodeId v) const {
  const auto it = flows.find(commodity);
  if (it == flows.end()) return 0.0;
  double total = 0.0;
  for (const FlowEdge& e : it->second) {
    if (e.to == v) total += e.rate;
  }
  return total;
}

std::string Architecture::to_dot() const {
  std::ostringstream os;
  os << "digraph architecture {\n  rankdir=TB;\n  node [shape=box, style=filled];\n";
  // Group nodes of the same type on one rank, mirroring Fig. 2b / Fig. 4.
  std::map<std::string, std::vector<std::size_t>> by_type;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].used) by_type[nodes[j].type].push_back(j);
  }
  for (const auto& [type, ids] : by_type) {
    os << "  { rank=same;";
    for (std::size_t j : ids) os << " \"" << nodes[j].name << "\";";
    os << " }\n";
  }
  for (const Node& n : nodes) {
    if (!n.used) continue;
    const char* color = n.subtype == "HV"   ? "palegreen"
                        : n.subtype == "LV" ? "khaki"
                        : n.subtype == "AB" ? "lightcoral"
                                            : "lightblue";
    os << "  \"" << n.name << "\" [fillcolor=" << color << ", label=\"" << n.name;
    if (!n.impl_name.empty()) os << "\\n" << n.impl_name;
    os << "\"];\n";
  }
  for (const auto& [from, to] : edges) {
    os << "  \"" << nodes[static_cast<std::size_t>(from)].name << "\" -> \""
       << nodes[static_cast<std::size_t>(to)].name << "\";\n";
  }
  os << "}\n";
  return os.str();
}

std::string Architecture::to_json() const {
  using obs::json_number;
  using obs::json_quote;
  std::ostringstream os;
  os << "{\n  \"cost\": " << json_number(cost) << ",\n  \"nodes\": [\n";
  bool first = true;
  for (const Node& n : nodes) {
    if (!n.used) continue;
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": " << json_quote(n.name) << ", \"type\": " << json_quote(n.type);
    if (!n.subtype.empty()) os << ", \"subtype\": " << json_quote(n.subtype);
    os << ", \"impl\": " << json_quote(n.impl_name) << "}";
  }
  os << "\n  ],\n  \"edges\": [\n";
  first = true;
  for (const auto& [from, to] : edges) {
    if (!first) os << ",\n";
    first = false;
    os << "    [" << json_quote(nodes[static_cast<std::size_t>(from)].name) << ", "
       << json_quote(nodes[static_cast<std::size_t>(to)].name) << "]";
  }
  os << "\n  ],\n  \"flows\": {\n";
  first = true;
  for (const auto& [name, fl] : flows) {
    if (!first) os << ",\n";
    first = false;
    os << "    " << json_quote(name) << ": [";
    for (std::size_t i = 0; i < fl.size(); ++i) {
      if (i) os << ", ";
      os << "[" << json_quote(nodes[static_cast<std::size_t>(fl[i].from)].name) << ", "
         << json_quote(nodes[static_cast<std::size_t>(fl[i].to)].name) << ", "
         << json_number(fl[i].rate) << "]";
    }
    os << "]";
  }
  os << "\n  }\n}\n";
  return os.str();
}

void Architecture::print(std::ostream& os) const {
  os << "Architecture: " << num_used_nodes() << "/" << nodes.size() << " nodes, "
     << edges.size() << " edges, cost " << cost << "\n";
  std::map<std::string, std::vector<const Node*>> by_type;
  for (const Node& n : nodes) {
    if (n.used) by_type[n.type].push_back(&n);
  }
  for (const auto& [type, list] : by_type) {
    os << "  " << type << ":";
    for (const Node* n : list) {
      os << " " << n->name;
      if (!n->impl_name.empty() && n->impl_name != n->name) os << "=" << n->impl_name;
    }
    os << "\n";
  }
  os << "  edges:";
  for (const auto& [from, to] : edges) {
    os << " " << nodes[static_cast<std::size_t>(from)].name << "->"
       << nodes[static_cast<std::size_t>(to)].name;
  }
  os << "\n";
  for (const auto& [name, fl] : flows) {
    os << "  flow[" << name << "]:";
    for (const FlowEdge& e : fl) {
      os << " " << nodes[static_cast<std::size_t>(e.from)].name << "->"
         << nodes[static_cast<std::size_t>(e.to)].name << ":" << e.rate;
    }
    os << "\n";
  }
}

void ExplorationResult::print_degradation(std::ostream& os) const {
  if (!degraded()) return;
  os << "WARNING: degraded result ("
     << (solution.degraded ? "numerical recovery exhausted"
                           : std::string("stopped: ") +
                                 milp::to_string(solution.status))
     << "): cost " << solution.objective
     << " is feasible but not proven optimal; best bound "
     << solution.best_bound << ", gap "
     << std::abs(solution.objective - solution.best_bound);
  if (solution.degraded_nodes > 0) {
    os << ", " << solution.degraded_nodes << " abandoned subtree(s)";
  }
  os << "\n";
}

std::string ExplorationResult::degradation_json() const {
  obs::Json j;
  j["degraded"] = degraded();
  if (degraded_nodes() > 0) j["degraded_nodes"] = degraded_nodes();
  if (has_objective()) {
    j["bound"] = bound();
    j["gap"] = gap();
    j["objective"] = objective();
  }
  return j.dump();
}

void ExplorationResult::print_timing(std::ostream& os) const {
  std::ostringstream fmt;
  fmt.setf(std::ios::fixed);
  fmt.precision(3);
  auto line = [&](const char* label, double s) {
    fmt.str("");
    fmt.width(0);
    fmt << "  " << label;
    for (std::size_t i = std::string(label).size(); i < 10; ++i) fmt << ' ';
    fmt.width(9);
    fmt << s;
    os << fmt.str() << "s\n";
  };
  os << "timing:\n";
  line("encode", encode_seconds);
  line("formulate", formulation_seconds);
  line("solve", solver_seconds);
  line("extract", extract_seconds);
  const milp::SolvePhases& p = solution.phases;
  fmt.str("");
  fmt << "  solver phases: presolve " << p.presolve << "s, root LP " << p.root_lp
      << "s, heuristic " << p.heuristic << "s, tree " << p.tree << "s, extract "
      << p.extract << "s\n";
  os << fmt.str();
}

}  // namespace archex
