/// \file compiled_model.hpp
/// The compiled exploration pipeline: Library + ArchTemplate + patterns
/// -> CompiledModel -> solve(CompiledModel, Scenario, MilpOptions).
///
/// `arch::Problem::solve` fuses encoding and solving: every call re-assembles
/// the objective and hands the model to the MILP engine, so exploring N
/// scenario variants of one specification pays the encode N times. The
/// compiled pipeline splits the stages:
///
///   1. `compile(problem)` runs once. It freezes the encoded matrix, the
///      decoding tables, and *named parameter slots* — the places a
///      scenario is allowed to touch without re-encoding: objective
///      coefficients (per-component cost scale, edge-cost scale), variable
///      bounds (component availability toggles), and RHS entries (named
///      constraint rows, e.g. a reliability target).
///   2. `instantiate(scenario)` stamps a scenario's deltas into a copy of the
///      frozen matrix — no pattern re-runs, no variable re-creation.
///   3. `solve(compiled, scenario, options, sweep_state)` solves the
///      instance; inside a sweep it warm-starts each solve from the previous
///      scenario's root basis and incumbent (milp/warm_start.hpp), falling
///      back to a cold solve deterministically when a delta breaks dual
///      feasibility or the scenario is structural.
///
/// CompiledModels are immutable after compile() and safely shareable; the
/// bounded `CompiledModelCache` keys them by `fingerprint()` — a content hash
/// of (library, template, applied patterns, encoder version) — so repeated
/// requests for the same specification skip the encode entirely. See
/// docs/pipeline.md for the full pipeline contract.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/arch_template.hpp"
#include "arch/library.hpp"
#include "arch/problem.hpp"
#include "arch/result.hpp"
#include "milp/branch_bound.hpp"
#include "milp/model.hpp"
#include "milp/warm_start.hpp"

namespace archex {

/// A scenario variant of a compiled specification: pure parameter deltas
/// against the frozen matrix. Everything except `extra_constraints` rewrites
/// existing slots (objective coefficients, bounds, RHS) and keeps the model
/// structure — and therefore the warm-start basis — intact.
struct Scenario {
  std::string name;
  /// Library component name -> multiplicative cost scale (1.0 = unchanged).
  /// Applied to every mapping column of that component in the objective.
  std::map<std::string, double> component_cost_scale;
  /// Multiplicative scale on every edge (connection element) cost.
  double edge_cost_scale = 1.0;
  /// Library components toggled unavailable: every mapping binary of the
  /// component is fixed to 0 (a bound delta, not a matrix change).
  std::vector<std::string> unavailable;
  /// Constraint name -> new right-hand side. Applied to *every* row carrying
  /// that name (pattern rows reuse one name per emitted family, e.g. a
  /// reliability budget row).
  std::map<std::string, double> rhs;
  /// Extra constraints appended to the instance. Structural: a scenario with
  /// extra rows changes the basis dimensions, so it always solves cold and
  /// never contributes its basis to a sweep's warm-start state.
  std::vector<milp::LinConstraint> extra_constraints;

  /// True when this scenario changes the matrix structure (extra rows)
  /// rather than only rewriting parameter slots.
  [[nodiscard]] bool structural() const { return !extra_constraints.empty(); }
};

class CompiledModel;

/// Encodes `problem` once into an immutable CompiledModel. The problem's
/// patterns must already be applied; the objective is assembled here (same
/// expression `Problem::solve` builds) and frozen into the artifact.
[[nodiscard]] CompiledModel compile(const Problem& problem);

/// The immutable compiled artifact: encoded matrix + decoding tables +
/// parameter slots. Copyable; typically held as
/// `shared_ptr<const CompiledModel>` through the cache. Row provenance stays
/// with the Problem it was compiled from: lint attribution and the perf
/// report read it there.
class CompiledModel {
 public:
  /// The frozen encoded matrix, objective included. Instances are stamped
  /// from copies of this; the base itself never changes after compile().
  [[nodiscard]] const milp::Model& base_model() const { return base_; }

  /// Content fingerprint of (encoder version, library, template, applied
  /// pattern set, model shape). Two compiles of equal specifications agree;
  /// any spec or encoder change disagrees. This is the cache key.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  [[nodiscard]] const Library& library() const { return lib_; }
  [[nodiscard]] const ArchTemplate& arch_template() const { return tmpl_; }
  /// Encode wall seconds of the source Problem: the sum of its
  /// per-application charges (Problem::pattern_costs).
  [[nodiscard]] double encode_seconds() const { return encode_seconds_; }
  [[nodiscard]] milp::ModelStats stats() const { return base_.stats(); }

  /// Stamps `sc` into a copy of the frozen matrix: objective deltas for cost
  /// scales, bound fixes for availability toggles, RHS rewrites for named
  /// rows, extra constraints appended last. Throws std::invalid_argument for
  /// a component name the library does not contain or an RHS row name no
  /// constraint carries — a scenario talking past its model is a caller bug,
  /// not a solvable instance.
  [[nodiscard]] milp::Model instantiate(const Scenario& sc) const;

  /// Extracts the concrete architecture from a solution of an instance of
  /// this compiled model: the one decoder from a Solution to an
  /// Architecture (`Problem::solve` runs through it too). `cost` is the
  /// solved objective, i.e. the scenario-adjusted cost.
  [[nodiscard]] Architecture extract(const milp::Solution& sol) const;

 private:
  friend CompiledModel compile(const Problem& problem);
  CompiledModel() = default;

  /// One edge slot, aligned with AdjacencyMatrix::edges() of the source.
  struct EdgeSlot {
    NodeId from;
    NodeId to;
    milp::VarId var;
    double base_cost;  ///< override-or-library edge cost frozen at compile
  };

  Library lib_;
  ArchTemplate tmpl_;
  milp::Model base_;
  std::vector<milp::VarId> delta_;                   ///< per template node
  /// Mapping candidates per template node: (library index, column).
  std::vector<std::vector<LibraryMapping::Candidate>> cand_;
  /// Mapping columns per library component (availability/cost-scale slots).
  std::vector<std::vector<milp::VarId>> vars_by_lib_;
  std::vector<EdgeSlot> edges_;
  /// Flow commodity name -> rate variable per edge slot (extraction table).
  std::map<std::string, std::vector<milp::VarId>> flows_;
  /// Constraint name -> rows carrying it (the RHS parameter slots).
  std::map<std::string, std::vector<std::size_t>> rows_by_name_;
  double encode_seconds_ = 0.0;
  std::uint64_t fingerprint_ = 0;
};

/// Warm-start state threaded through the scenarios of one sweep. Plain value
/// type owned by the caller; `solve` reads the previous scenario's basis and
/// incumbent out of it and writes the new ones back in.
struct SweepState {
  std::shared_ptr<const milp::Basis> basis;  ///< last root-optimal basis
  std::vector<double> x;                     ///< last incumbent vector
  bool has_hint = false;
  std::int64_t warm_solves = 0;  ///< scenarios whose root LP warm-started
  std::int64_t cold_solves = 0;  ///< scenarios solved cold (incl. the first)
};

/// Stage 3 of the pipeline: instantiates `sc` against `cm` and solves it.
/// With `sweep` non-null the solve participates in a warm-started sweep:
/// presolve is disabled (the warm-start hint lives in the full column
/// space), the root basis is exported for the next scenario, and — for
/// non-structural scenarios — the previous scenario's basis/incumbent are
/// fed in via MilpOptions::warm_hint. `res.encode_seconds` is 0: compiling
/// paid the encode once, outside this call.
[[nodiscard]] ExplorationResult solve(const CompiledModel& cm,
                                      const Scenario& sc = {},
                                      const milp::MilpOptions& options = {},
                                      SweepState* sweep = nullptr);

/// Bounded, thread-safe LRU cache of compiled models keyed by fingerprint.
/// `serve::ExplorationService` holds one so repeated compile/sweep requests
/// for the same specification skip the encode.
class CompiledModelCache {
 public:
  explicit CompiledModelCache(std::size_t capacity) : capacity_(capacity) {}

  /// The cached model with this fingerprint, or null (counts a hit/miss).
  [[nodiscard]] std::shared_ptr<const CompiledModel> get(std::uint64_t fp);
  /// Inserts (or refreshes) a model under its own fingerprint, evicting the
  /// least recently used entry beyond capacity.
  void put(std::shared_ptr<const CompiledModel> cm);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<std::pair<std::uint64_t, std::shared_ptr<const CompiledModel>>> lru_;
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t,
                          std::shared_ptr<const CompiledModel>>>::iterator>
      index_;
  Stats stats_;
};

}  // namespace archex
