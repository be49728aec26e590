#include "arch/compiled_model.hpp"

#include <stdexcept>
#include <utility>

#include "obs/span.hpp"

namespace archex {

namespace {

/// Bumped whenever the encoder's output for an unchanged spec could change
/// (new structural constraints, different row ordering, ...). Part of the
/// fingerprint so stale cache entries from an older encoder never collide
/// with the new encoding.
constexpr const char* kEncoderVersion = "archex-encoder/1";

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void mix_str(std::uint64_t& h, const std::string& s) {
  // Length-prefixed so ("ab","c") and ("a","bc") hash differently.
  const std::uint64_t n = s.size();
  mix(h, &n, sizeof n);
  mix(h, s.data(), s.size());
}

void mix_f64(std::uint64_t& h, double v) { mix(h, &v, sizeof v); }
void mix_u64(std::uint64_t& h, std::uint64_t v) { mix(h, &v, sizeof v); }

std::uint64_t fingerprint_of(const Problem& p, const milp::Model& base) {
  std::uint64_t h = kFnvOffset;
  mix_str(h, kEncoderVersion);

  const Library& lib = p.library();
  mix_u64(h, lib.size());
  for (const Component& c : lib.components()) {
    mix_str(h, c.name);
    mix_str(h, c.type);
    mix_str(h, c.subtype);
    mix_u64(h, c.tags.size());
    for (const std::string& t : c.tags) mix_str(h, t);
    mix_u64(h, c.attrs.size());
    for (const auto& [k, v] : c.attrs) {
      mix_str(h, k);
      mix_f64(h, v);
    }
  }
  mix_f64(h, lib.edge_cost());

  const ArchTemplate& tmpl = p.arch_template();
  mix_u64(h, tmpl.num_nodes());
  for (const NodeSpec& n : tmpl.nodes()) {
    mix_str(h, n.name);
    mix_str(h, n.type);
    mix_str(h, n.subtype);
    mix_u64(h, n.tags.size());
    for (const std::string& t : n.tags) mix_str(h, t);
    mix_str(h, n.impl);
  }
  // Candidate-edge structure via the encoded edge list (declaration order).
  mix_u64(h, p.edges().num_edges());
  for (std::size_t i = 0; i < p.edges().num_edges(); ++i) {
    const AdjacencyMatrix::Edge& e = p.edges().edge(static_cast<std::int32_t>(i));
    mix_u64(h, static_cast<std::uint64_t>(e.from));
    mix_u64(h, static_cast<std::uint64_t>(e.to));
    mix_f64(h, p.edge_base_cost(static_cast<std::int32_t>(i)));
  }

  mix_u64(h, p.num_patterns_applied());
  for (const std::string& pat : p.applied_patterns()) mix_str(h, pat);

  // Model shape guards against anything the fields above miss (extra cost
  // terms, direct model edits by custom code).
  const milp::ModelStats st = base.stats();
  mix_u64(h, st.num_vars);
  mix_u64(h, st.num_constraints);
  mix_u64(h, st.num_nonzeros);
  mix_f64(h, base.objective().constant());
  for (const milp::Term& t : base.objective().terms()) {
    mix_u64(h, static_cast<std::uint64_t>(t.var.index));
    mix_f64(h, t.coef);
  }
  return h;
}

}  // namespace

CompiledModel compile(const Problem& problem) {
  CompiledModel cm;
  cm.lib_ = problem.library();
  cm.tmpl_ = problem.arch_template();
  cm.base_ = problem.model();
  // Freeze the objective the fused path assembles at every solve.
  cm.base_.set_objective(problem.cost_expression(),
                         milp::ObjectiveSense::Minimize);

  const ArchTemplate& tmpl = cm.tmpl_;
  cm.delta_.reserve(tmpl.num_nodes());
  cm.cand_.reserve(tmpl.num_nodes());
  cm.vars_by_lib_.resize(cm.lib_.size());
  for (std::size_t j = 0; j < tmpl.num_nodes(); ++j) {
    const NodeId v = static_cast<NodeId>(j);
    cm.delta_.push_back(problem.instantiated(v));
    cm.cand_.push_back(problem.mapping().candidates(v));
    for (const LibraryMapping::Candidate& c : cm.cand_.back()) {
      cm.vars_by_lib_[static_cast<std::size_t>(c.lib)].push_back(c.var);
    }
  }

  cm.edges_.reserve(problem.edges().num_edges());
  for (std::size_t i = 0; i < problem.edges().num_edges(); ++i) {
    const AdjacencyMatrix::Edge& e =
        problem.edges().edge(static_cast<std::int32_t>(i));
    cm.edges_.push_back(
        {e.from, e.to, e.var,
         problem.edge_base_cost(static_cast<std::int32_t>(i))});
  }

  for (const auto& [name, f] : problem.flows()) {
    cm.flows_.emplace(name, f.edge_vars);
  }

  for (std::size_t row = 0; row < cm.base_.num_constraints(); ++row) {
    const std::string& name = cm.base_.constraint(row).name;
    if (!name.empty()) cm.rows_by_name_[name].push_back(row);
  }

  for (const Problem::PatternCost& pc : problem.pattern_costs()) {
    cm.encode_seconds_ += pc.seconds;
  }
  cm.fingerprint_ = fingerprint_of(problem, cm.base_);
  return cm;
}

milp::Model CompiledModel::instantiate(const Scenario& sc) const {
  milp::Model m = base_;

  // Objective deltas. LinExpr::add_term merges coefficients, so adding
  // (scale - 1) * base_cost rewrites a slot to exactly scale * base_cost.
  if (!sc.component_cost_scale.empty() || sc.edge_cost_scale != 1.0) {
    milp::LinExpr obj = base_.objective();
    for (const auto& [name, scale] : sc.component_cost_scale) {
      const std::optional<LibIndex> idx = lib_.find(name);
      if (!idx.has_value()) {
        throw std::invalid_argument("Scenario '" + sc.name +
                                    "': unknown component '" + name + "'");
      }
      const double base_cost = lib_.at(*idx).cost();
      for (milp::VarId v : vars_by_lib_[static_cast<std::size_t>(*idx)]) {
        obj.add_term(v, (scale - 1.0) * base_cost);
      }
    }
    if (sc.edge_cost_scale != 1.0) {
      for (const EdgeSlot& e : edges_) {
        obj.add_term(e.var, (sc.edge_cost_scale - 1.0) * e.base_cost);
      }
    }
    m.set_objective(std::move(obj), milp::ObjectiveSense::Minimize);
  }

  // Availability toggles: fix every mapping binary of the component to 0.
  for (const std::string& name : sc.unavailable) {
    const std::optional<LibIndex> idx = lib_.find(name);
    if (!idx.has_value()) {
      throw std::invalid_argument("Scenario '" + sc.name +
                                  "': unknown component '" + name + "'");
    }
    for (milp::VarId v : vars_by_lib_[static_cast<std::size_t>(*idx)]) {
      m.tighten_bounds(v, 0.0, 0.0);
    }
  }

  // RHS rewrites on named rows.
  for (const auto& [name, value] : sc.rhs) {
    const auto it = rows_by_name_.find(name);
    if (it == rows_by_name_.end()) {
      throw std::invalid_argument("Scenario '" + sc.name +
                                  "': no constraint named '" + name + "'");
    }
    for (std::size_t row : it->second) m.set_rhs(row, value);
  }

  // Structural additions last, so parameter rows keep their base indices.
  for (const milp::LinConstraint& c : sc.extra_constraints) {
    m.add_constraint(c);
  }
  return m;
}

Architecture CompiledModel::extract(const milp::Solution& sol) const {
  Architecture arch;
  arch.nodes.resize(tmpl_.num_nodes());
  for (std::size_t j = 0; j < tmpl_.num_nodes(); ++j) {
    const NodeSpec& spec = tmpl_.node(static_cast<NodeId>(j));
    Architecture::Node& n = arch.nodes[j];
    n.name = spec.name;
    n.type = spec.type;
    n.subtype = spec.subtype;
    n.tags = spec.tags;
    n.used = sol.value(delta_[j]) > 0.5;
    if (n.used) {
      for (const LibraryMapping::Candidate& c : cand_[j]) {
        if (sol.value(c.var) > 0.5) {
          n.impl = c.lib;
          n.impl_name = lib_.at(c.lib).name;
          break;
        }
      }
    }
  }
  for (const EdgeSlot& e : edges_) {
    if (sol.value(e.var) > 0.5) arch.edges.emplace_back(e.from, e.to);
  }
  // The solved objective *is* the scenario-adjusted cost (the instance's
  // objective differs from the base cost expression under cost scales).
  arch.cost = sol.objective;
  for (const auto& [name, edge_vars] : flows_) {
    std::vector<FlowEdge> active;
    for (std::size_t i = 0; i < edge_vars.size(); ++i) {
      const double rate = sol.value(edge_vars[i]);
      if (rate > 1e-6) active.push_back({edges_[i].from, edges_[i].to, rate});
    }
    if (!active.empty()) arch.flows.emplace(name, std::move(active));
  }
  return arch;
}

ExplorationResult solve(const CompiledModel& cm, const Scenario& sc,
                        const milp::MilpOptions& options, SweepState* sweep) {
  ExplorationResult res;
  // Compiling paid the encode once, outside this call.
  res.encode_seconds = 0.0;

  milp::MilpOptions opts = options;
  obs::SpanBuffer* const spans =
      opts.profiler != nullptr ? opts.profiler->main() : nullptr;

  milp::Model instance;
  {
    obs::ScopedSpan formulate_span(spans,
                                   obs::span_id(obs::SpanName::Formulate));
    obs::ScopedTimer formulate_timer(
        opts.metrics != nullptr ? &opts.metrics->timer("arch.formulate")
                                : nullptr,
        &res.formulation_seconds);
    instance = cm.instantiate(sc);
    res.stats = instance.stats();
  }

  milp::WarmStartHint hint;
  if (sweep != nullptr) {
    // The hint lives in the full column space, so presolve is off for every
    // solve of a sweep (not just warm ones — objectives must stay
    // comparable), and each solve exports its root basis for the next.
    opts.use_presolve = false;
    opts.export_basis = true;
    if (sweep->has_hint && !sc.structural()) {
      hint.basis = sweep->basis;
      hint.x = sweep->x;
      opts.warm_hint = &hint;
    }
  }

  {
    obs::ScopedSpan solve_span(spans, obs::span_id(obs::SpanName::Solve));
    obs::ScopedTimer solve_timer(
        opts.metrics != nullptr ? &opts.metrics->timer("arch.solve") : nullptr,
        &res.solver_seconds);
    res.solution = milp::solve_milp(instance, opts);
  }

  if (sweep != nullptr) {
    ++(res.solution.warm_started ? sweep->warm_solves : sweep->cold_solves);
    if (!sc.structural() && res.solution.final_basis != nullptr &&
        res.solution.has_incumbent) {
      sweep->basis = res.solution.final_basis;
      sweep->x = res.solution.x;
      sweep->has_hint = true;
    }
  }

  if (res.solution.has_incumbent) {
    obs::ScopedSpan extract_span(spans, obs::span_id(obs::SpanName::Extract));
    obs::ScopedTimer extract_timer(
        opts.metrics != nullptr ? &opts.metrics->timer("arch.extract")
                                : nullptr,
        &res.extract_seconds);
    res.architecture = cm.extract(res.solution);
  }
  // Pick up the arch-layer timers next to the solver's metrics.
  if (opts.metrics != nullptr) res.solution.metrics = opts.metrics->snapshot();
  return res;
}

std::shared_ptr<const CompiledModel> CompiledModelCache::get(std::uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(fp);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->second;
}

void CompiledModelCache::put(std::shared_ptr<const CompiledModel> cm) {
  if (cm == nullptr || capacity_ == 0) return;
  const std::uint64_t fp = cm->fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(fp);
  if (it != index_.end()) {
    it->second->second = std::move(cm);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(fp, std::move(cm));
  index_.emplace(fp, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CompiledModelCache::Stats CompiledModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CompiledModelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace archex
