#include "domains/epn.hpp"

#include <algorithm>
#include <chrono>

#include "arch/patterns/connection.hpp"
#include "arch/patterns/general.hpp"
#include "arch/patterns/reliability_patterns.hpp"
#include "graph/digraph.hpp"
#include "reliability/reliability.hpp"

namespace archex::domains::epn {

namespace {

using patterns::CannotConnect;
using patterns::MaxFailprobViaHub;
using patterns::NConnections;

constexpr const char* kGen = "Generator";
constexpr const char* kAc = "ACBus";
constexpr const char* kRect = "Rectifier";
constexpr const char* kDc = "DCBus";
constexpr const char* kLoad = "Load";

/// Load demands per side, alternating voltage class; the first half of the
/// loads is critical, the second sheddable (HV demands from {7..20}, LV from
/// {1..5} as in Table 2).
struct LoadSpec {
  const char* subtype;
  double demand;
  bool critical;
};

std::vector<LoadSpec> load_specs(int loads_per_side) {
  static constexpr double kHv[] = {20, 15, 12, 10, 9, 8, 7};
  static constexpr double kLv[] = {5, 4, 3, 2, 1};
  std::vector<LoadSpec> out;
  int hv = 0;
  int lv = 0;
  for (int i = 0; i < loads_per_side; ++i) {
    const bool use_hv = (i % 2) == 0;
    const bool critical = i < (loads_per_side + 1) / 2;
    if (use_hv) out.push_back({"HV", kHv[hv++ % 7], critical});
    else out.push_back({"LV", kLv[lv++ % 5], critical});
  }
  return out;
}

}  // namespace

EpnConfig small_config() {
  EpnConfig cfg;
  cfg.gens_per_side = 1;
  cfg.apus = 1;
  cfg.ac_buses_per_side = 2;
  cfg.rectifiers_per_side = 2;
  cfg.dc_buses_per_side = 2;
  cfg.loads_per_side = 2;
  return cfg;
}

EpnConfig tiny_config() {
  EpnConfig cfg = small_config();
  // k = 1 regime: one disjoint generator path (p_path ~ 8e-4) satisfies both
  // thresholds, so the eager encoding stays small and the tree closes fast.
  cfg.critical_threshold = 5e-3;
  cfg.sheddable_threshold = 5e-2;
  return cfg;
}

std::optional<EpnConfig> scale_config(std::string_view scale) {
  if (scale == "tiny") return tiny_config();
  if (scale == "paper") return EpnConfig{};
  if (scale != "small") return std::nullopt;
  EpnConfig cfg = small_config();
  cfg.rectifiers_per_side = 3;
  return cfg;
}

Library make_library(const EpnConfig& cfg) {
  Library lib;
  lib.set_edge_cost(cfg.contactor_cost);
  const double p = cfg.component_fail_prob;

  // Generators: cost = g / 10 (Table 2), ratings 60/80/150 HV, 20/30 LV.
  for (double g : {60.0, 80.0, 150.0}) {
    lib.add({"GenHV" + std::to_string(static_cast<int>(g)), kGen, "HV", {},
             {{attr::kCost, g / 10}, {attr::kPower, g}, {attr::kFailProb, p}}});
  }
  for (double g : {20.0, 30.0}) {
    lib.add({"GenLV" + std::to_string(static_cast<int>(g)), kGen, "LV", {},
             {{attr::kCost, g / 10}, {attr::kPower, g}, {attr::kFailProb, p}}});
  }
  lib.add({"APU60", kGen, "APU", {},
           {{attr::kCost, 6.0}, {attr::kPower, 60.0}, {attr::kFailProb, p}}});

  // AC buses: capacity b = 150 HV / 30 LV, cost 2000.
  lib.add({"AcBusHV", kAc, "HV", {},
           {{attr::kCost, 2000.0}, {attr::kPower, 150.0}, {attr::kFailProb, p}}});
  lib.add({"AcBusLV", kAc, "LV", {},
           {{attr::kCost, 2000.0}, {attr::kPower, 30.0}, {attr::kFailProb, p}}});

  // Rectifiers: RU (same voltage level) and TRU (HV AC -> LV DC), cost 2000.
  lib.add({"RuHV", kRect, "HV", {}, {{attr::kCost, 2000.0}, {attr::kFailProb, p}}});
  lib.add({"RuLV", kRect, "LV", {}, {{attr::kCost, 2000.0}, {attr::kFailProb, p}}});
  lib.add({"TRU", kRect, "TRU", {}, {{attr::kCost, 2000.0}, {attr::kFailProb, p}}});

  // DC buses: capacity 30 HV / 5 LV, cost 2000.
  lib.add({"DcBusHV", kDc, "HV", {},
           {{attr::kCost, 2000.0}, {attr::kPower, 30.0}, {attr::kFailProb, p}}});
  lib.add({"DcBusLV", kDc, "LV", {},
           {{attr::kCost, 2000.0}, {attr::kPower, 5.0}, {attr::kFailProb, p}}});

  // Loads: cost 0, no failures, fixed demands (one library entry per
  // distinct demand/class used by the template).
  for (const LoadSpec& ls : load_specs(cfg.loads_per_side)) {
    const std::string name =
        std::string("Load") + ls.subtype + std::to_string(static_cast<int>(ls.demand));
    if (!lib.find(name)) {
      lib.add({name, kLoad, ls.subtype, {}, {{attr::kCost, 0.0}, {attr::kPower, ls.demand}}});
    }
  }
  return lib;
}

ArchTemplate make_template(const EpnConfig& cfg) {
  ArchTemplate t;
  const std::vector<LoadSpec> loads = load_specs(cfg.loads_per_side);

  for (const char* side : {"LE", "RI"}) {
    const std::string s = side[0] == 'L' ? "L" : "R";
    t.add_nodes(cfg.gens_per_side, s + "G", kGen, "HV|LV", {side});
    t.add_nodes(cfg.ac_buses_per_side, s + "A", kAc, {}, {side});
    t.add_nodes(cfg.rectifiers_per_side, s + "R", kRect, {}, {side});
    t.add_nodes(cfg.dc_buses_per_side, s + "D", kDc, {}, {side});
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const LoadSpec& ls = loads[i];
      NodeSpec n;
      n.name = s + "L" + std::to_string(i + 1);
      n.type = kLoad;
      n.subtype = ls.subtype;
      n.tags = {side, ls.critical ? "critical" : "sheddable"};
      n.impl = std::string("Load") + ls.subtype + std::to_string(static_cast<int>(ls.demand));
      t.add_node(std::move(n));
    }
  }
  // APUs sit in the middle and can power both sides.
  t.add_nodes(cfg.apus, "MG", kGen, "APU", {"MI"});

  // Candidate connections (the composition rules): side-local generator
  // feeds, shared APUs, same-side conversion chain, cross-side bus ties.
  for (const char* side : {"LE", "RI"}) {
    t.allow_connection({kGen, "", side}, {kAc, "", side});
    t.allow_connection({kAc, "", side}, {kRect, "", side});
    t.allow_connection({kRect, "", side}, {kDc, "", side});
    t.allow_connection({kDc, "", side}, {kLoad, "", side});
  }
  t.allow_connection({kGen, "", "MI"}, NodeFilter::of_type(kAc));
  t.allow_connection(NodeFilter::of_type(kAc), NodeFilter::of_type(kAc));
  t.allow_connection(NodeFilter::of_type(kDc), NodeFilter::of_type(kDc));
  return t;
}

void HasSufficientPower::emit(Problem& p) const {
  const ArchTemplate& t = p.arch_template();
  milp::LinExpr balance;
  for (NodeId g : t.select({"Generator", "", side_})) balance += p.node_attr(g, attr::kPower);
  for (NodeId g : t.select({"Generator", "", shared_})) balance += p.node_attr(g, attr::kPower);
  for (NodeId l : t.select({"Load", "", side_})) balance -= p.node_attr(l, attr::kPower);
  p.model().add_constraint(std::move(balance), milp::Sense::GE, 0.0,
                           "sufficient_power(" + side_ + ")");
}

void register_epn_patterns() {
  static const bool once = [] {
    PatternRegistry::instance().register_pattern(
        "has_sufficient_power", [](const std::vector<PatternArg>& args) {
          pattern_detail::check_arity(args, 1, 2, "has_sufficient_power");
          return std::make_shared<HasSufficientPower>(
              pattern_detail::arg_string(args, 0, "has_sufficient_power"),
              pattern_detail::arg_string_or(args, 1, "MI"));
        });
    return true;
  }();
  (void)once;
}

std::unique_ptr<Problem> make_problem(const EpnConfig& cfg,
                                      obs::SpanProfiler* profiler) {
  register_epn_patterns();
  auto p =
      std::make_unique<Problem>(make_library(cfg), make_template(cfg), profiler);
  p->set_functional_flow({kGen, kAc, kRect, kDc, kLoad});

  // --- Connectivity requirements ---
  // Each load connects to exactly one DC bus.
  p->apply(NConnections({kDc}, {kLoad}, 1, milp::Sense::EQ, /*only_if_used=*/false,
                        patterns::CountSide::kTo));
  // A used DC bus has at least one incoming connection (rectifier or tie).
  p->apply(NConnections({}, {kDc}, 1, milp::Sense::GE, /*only_if_used=*/true,
                        patterns::CountSide::kTo));
  // A rectifier connected to a DC bus must also be connected to an AC bus:
  // used rectifiers need both an input and an output.
  p->apply(NConnections({kAc}, {kRect}, 1, milp::Sense::GE, true, patterns::CountSide::kTo));
  p->apply(NConnections({kRect}, {kDc}, 1, milp::Sense::GE, true, patterns::CountSide::kFrom));
  // A rectifier takes exactly one AC input and feeds exactly one DC bus.
  p->apply(NConnections({kAc}, {kRect}, 1, milp::Sense::LE, false, patterns::CountSide::kTo));
  p->apply(NConnections({kRect}, {kDc}, 1, milp::Sense::LE, false, patterns::CountSide::kFrom));
  // A used AC bus has at least one incoming feed (generator or tie).
  p->apply(NConnections({}, {kAc}, 1, milp::Sense::GE, true, patterns::CountSide::kTo));
  // A used generator feeds at least one and at most two AC buses.
  p->apply(NConnections({kGen}, {kAc}, 1, milp::Sense::GE, true, patterns::CountSide::kFrom));
  p->apply(NConnections({kGen}, {kAc}, 2, milp::Sense::LE, false, patterns::CountSide::kFrom));

  // --- Voltage-class composition rules (on the mapped subtype) ---
  p->apply(CannotConnect({kGen, "HV"}, {kAc, "LV"}));
  p->apply(CannotConnect({kGen, "LV"}, {kAc, "HV"}));
  p->apply(CannotConnect({kGen, "APU"}, {kAc, "LV"}));  // APUs are HV units
  p->apply(CannotConnect({kAc, "HV"}, {kRect, "LV"}));
  p->apply(CannotConnect({kAc, "LV"}, {kRect, "HV"}));
  p->apply(CannotConnect({kAc, "LV"}, {kRect, "TRU"}));  // TRU input is HV
  p->apply(CannotConnect({kRect, "HV"}, {kDc, "LV"}));
  p->apply(CannotConnect({kRect, "LV"}, {kDc, "HV"}));
  p->apply(CannotConnect({kRect, "TRU"}, {kDc, "HV"}));  // TRU output is LV
  p->apply(CannotConnect({kDc, "HV"}, {kLoad, "LV"}));
  p->apply(CannotConnect({kDc, "LV"}, {kLoad, "HV"}));
  // Bus ties stay within a voltage class.
  p->apply(CannotConnect({kAc, "HV"}, {kAc, "LV"}));
  p->apply(CannotConnect({kAc, "LV"}, {kAc, "HV"}));
  p->apply(CannotConnect({kDc, "HV"}, {kDc, "LV"}));
  p->apply(CannotConnect({kDc, "LV"}, {kDc, "HV"}));

  // --- Power adequacy (domain pattern) ---
  p->apply(HasSufficientPower("LE"));
  p->apply(HasSufficientPower("RI"));

  // --- Base connectivity: every load is powered by some generator ---
  // One shared flow commodity (no disjointness). This mirrors the paper's
  // Fig. 3a, where the first lazy iteration already gives every load one
  // source path.
  p->apply(patterns::SinksConnectedToSources(NodeFilter::of_type(kGen),
                                             NodeFilter::of_type(kLoad)));

  // --- Reliability (eager / monolithic encoding) ---
  if (cfg.reliability_eager) {
    p->apply(MaxFailprobViaHub(NodeFilter::of_type(kGen), NodeFilter::of_type(kDc),
                               {kLoad, "", "critical"}, cfg.critical_threshold));
    p->apply(MaxFailprobViaHub(NodeFilter::of_type(kGen), NodeFilter::of_type(kDc),
                               {kLoad, "", "sheddable"}, cfg.sheddable_threshold));
  }

  // Interchangeable template nodes (the parallel buses/rectifiers of each
  // side) would otherwise make the branch & bound explore every relabeling.
  p->add_symmetry_breaking();
  return p;
}

std::map<std::string, double> link_fail_probs(const Problem& p, const Architecture& arch) {
  const graph::Digraph g = arch.to_digraph();
  std::vector<double> fail = arch.node_fail_probs(p.library());
  const std::vector<NodeId> gens = p.arch_template().select(NodeFilter::of_type(kGen));

  std::map<std::string, double> out;
  for (NodeId load : p.arch_template().select(NodeFilter::of_type(kLoad))) {
    const std::size_t li = static_cast<std::size_t>(load);
    if (!arch.nodes[li].used) continue;
    // The serving bus is the load's single predecessor.
    const auto& preds = g.predecessors(load);
    if (preds.empty()) {
      out[arch.nodes[li].name] = 1.0;
      continue;
    }
    const NodeId bus = preds.front();
    const double saved = fail[static_cast<std::size_t>(bus)];
    fail[static_cast<std::size_t>(bus)] = 0.0;  // the link is measured up to the bus
    out[arch.nodes[li].name] = reliability::link_failure_probability(g, gens, bus, fail);
    fail[static_cast<std::size_t>(bus)] = saved;
  }
  return out;
}

namespace {

/// Conflict-driven learning step: the violated load needs k disjoint
/// generator paths at *whichever* DC bus ends up serving it, so the learned
/// constraints are conditional on each candidate serving edge — the
/// optimizer cannot escape by reassigning the load. Unconditional stage cuts
/// (>= k generators / AC buses / rectifiers instantiated) are valid because
/// the load is always served.
void learn_load_requirement(Problem& p, NodeId load, int k,
                            const std::vector<NodeId>& gens) {
  const ArchTemplate& t = p.arch_template();
  for (std::int32_t idx : p.edges().in_edges(load)) {
    const AdjacencyMatrix::Edge& e = p.edges().edge(idx);
    if (t.node(e.from).type != kDc) continue;
    patterns::emit_disjoint_paths_conditional(p, gens, e.from, k, {e.var},
                                              /*disjoint_sources=*/true, "lazy");
  }
  for (const char* type : {kGen, kAc, kRect}) {
    milp::LinExpr cut;
    for (NodeId v : t.select(NodeFilter::of_type(type))) {
      cut += milp::LinExpr(p.instantiated(v));
    }
    p.model().add_constraint(std::move(cut), milp::Sense::GE, static_cast<double>(k),
                             "lazy_stage[" + std::string(type) + "](" + t.node(load).name +
                                 ")");
  }
}

}  // namespace

IterativeResult solve_lazy_epn(Problem& p, const EpnConfig& cfg,
                               const milp::MilpOptions& milp_options, int max_iterations) {
  // Built on the generic iterative-scheme infrastructure (algorithm.hpp):
  // the analysis closure runs the exact factoring reliability analysis; the
  // learning closure adds conditional disjoint-path requirements for every
  // violated load.
  const ArchTemplate& t = p.arch_template();
  const std::vector<NodeId> gens = t.select(NodeFilter::of_type(kGen));
  const int max_k = static_cast<int>(gens.size());
  std::map<NodeId, int> learned;  // disjoint-path requirement per load
  std::vector<NodeId> violated;   // filled by analysis, consumed by learning

  const AnalysisFn analyze = [&](Problem& prob, const Architecture& arch) {
    AnalysisVerdict verdict;
    violated.clear();
    double worst_hv = 0.0;
    double worst_lv = 0.0;
    int k_max = 0;
    for (const auto& [load_name, prob_fail] : link_fail_probs(prob, arch)) {
      const NodeId load = t.find(load_name);
      const NodeSpec& spec = t.node(load);
      (spec.allows_subtype("HV") ? worst_hv : worst_lv) =
          std::max(spec.allows_subtype("HV") ? worst_hv : worst_lv, prob_fail);
      k_max = std::max(k_max, learned[load]);
      const double threshold =
          spec.has_tag("critical") ? cfg.critical_threshold : cfg.sheddable_threshold;
      if (prob_fail > threshold) violated.push_back(load);
    }
    verdict.accepted = violated.empty();
    verdict.metrics = {{"worst_hv", worst_hv},
                       {"worst_lv", worst_lv},
                       {"required_paths_max", static_cast<double>(k_max)}};
    return verdict;
  };

  const LearnFn learn = [&](Problem& prob, const Architecture& arch) {
    const graph::Digraph g = arch.to_digraph();
    bool strengthened = false;
    for (NodeId load : violated) {
      // Conflict-driven learning: require one more disjoint generator path
      // than the current architecture provides at the load's bus.
      const NodeId bus = g.predecessors(load).empty() ? -1 : g.predecessors(load).front();
      const int measured = bus >= 0 ? measured_disjoint_paths(g, gens, bus) : 0;
      int& cur = learned[load];
      const int k = std::max(cur + 1, measured + 1);
      if (k > max_k) continue;  // redundancy ceiling for this load
      cur = k;
      learn_load_requirement(prob, load, k, gens);
      strengthened = true;
    }
    return strengthened;
  };

  return solve_iteratively(p, analyze, learn, milp_options, max_iterations);
}

}  // namespace archex::domains::epn
