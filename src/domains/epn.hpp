/// \file epn.hpp
/// Aircraft Electrical Power distribution Network case study (Sec. 4.1).
///
/// Builds the Table 2 library and template, applies the connectivity /
/// power / reliability requirement set (the paper's 46-pattern spec), and
/// provides the domain pattern `has_sufficient_power` plus the bus-level
/// exact reliability analysis used by the lazy algorithm, which reports
/// through the generic scheme's `IterativeStep` (arch/algorithm.hpp).
///
/// Functional-link semantics (see DESIGN.md): loads and contactors are
/// perfect; a load's link reliability is measured from the generators up to
/// the DC bus serving it, with that bus treated as perfect for the link.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/algorithm.hpp"
#include "arch/patterns/pattern.hpp"
#include "arch/problem.hpp"

namespace archex::domains::epn {

/// Sizing and requirement knobs. Defaults reproduce Table 2; `scale` knobs
/// let tests and quick benches shrink the instance.
struct EpnConfig {
  int gens_per_side = 2;
  int apus = 2;
  int ac_buses_per_side = 4;
  int rectifiers_per_side = 5;
  int dc_buses_per_side = 4;
  int loads_per_side = 8;  ///< first half critical, second half sheddable

  double component_fail_prob = 2e-4;  ///< generators, buses, rectifiers
  double critical_threshold = 1e-9;   ///< non-sheddable loads
  double sheddable_threshold = 1e-5;
  double contactor_cost = 1500.0;  ///< per edge (calibrated; DESIGN.md)

  /// Include the approximate reliability encoding in the MILP (eager /
  /// monolithic method). Set false when using the lazy algorithm.
  bool reliability_eager = true;
};

/// A reduced instance for unit tests and smoke benches.
[[nodiscard]] EpnConfig small_config();

/// An even smaller instance: small_config() with the reliability thresholds
/// relaxed into the k = 1 disjoint-path regime, so the eager encoding closes
/// in well under a second. The compiled-pipeline drills (sweeps of dozens of
/// solves: tests, ci.sh, bench_sweep) run at this scale.
[[nodiscard]] EpnConfig tiny_config();

/// The named instance sizes shared by `epn_explorer --scale` and the
/// service's `scale` key: "tiny" (tiny_config()), "small" (small_config()
/// with a third rectifier per side, which the eager reliability encoding
/// needs to be satisfiable) and "paper" (Table 2, the EpnConfig defaults).
/// Empty for any other name.
[[nodiscard]] std::optional<EpnConfig> scale_config(std::string_view scale);

/// The Table 2 component library.
[[nodiscard]] Library make_library(const EpnConfig& cfg = {});

/// The Table 2 template with side-aware candidate connections.
[[nodiscard]] ArchTemplate make_template(const EpnConfig& cfg = {});

/// Complete exploration problem with the requirement set applied. Pass a
/// SpanProfiler (non-owning, must outlive the Problem) to record encode /
/// per-pattern / solver spans; see obs/span.hpp.
[[nodiscard]] std::unique_ptr<Problem> make_problem(
    const EpnConfig& cfg = {}, obs::SpanProfiler* profiler = nullptr);

/// Domain pattern (Sec. 4.1): per aircraft side, the generators available to
/// that side (own side + APUs) must jointly cover the side's load demand:
///   sum g(m) >= sum l(m).
class HasSufficientPower final : public Pattern {
 public:
  HasSufficientPower(std::string side_tag, std::string shared_tag = "MI")
      : side_(std::move(side_tag)), shared_(std::move(shared_tag)) {}

  [[nodiscard]] std::string name() const override { return "has_sufficient_power"; }
  [[nodiscard]] std::string describe() const override {
    return "has_sufficient_power(" + side_ + ")";
  }
  void emit(Problem& p) const override;

 private:
  std::string side_, shared_;
};

/// Registers `has_sufficient_power` in the global registry (idempotent), so
/// EPN spec files can use it — the extensibility mechanism of Sec. 3.
void register_epn_patterns();

/// Exact bus-level link failure probability for every load of `arch`
/// (key = load name). Unconnected loads report probability 1.
[[nodiscard]] std::map<std::string, double> link_fail_probs(const Problem& p,
                                                            const Architecture& arch);

/// The EPN lazy loop reports through the generic scheme's record
/// (arch/algorithm.hpp). These two names survive only as aliases for the
/// exploration benchmark (perfbench/src/workloads.cpp), whose sources change
/// only together with its baseline; new code names `IterativeResult` and
/// `IterativeStep`.
using EpnLazyResult = IterativeResult;
using EpnLazyIteration = IterativeStep;

/// The lazy (MILP modulo reliability) algorithm specialized to the EPN:
/// solve without reliability constraints, measure exact bus-level link
/// failure probabilities, and learn stronger disjoint-path requirements for
/// the buses serving violated loads. `p` must be built with
/// `reliability_eager = false`. An analyzed step's metrics hold `worst_hv`
/// and `worst_lv` (the worst exact link failure probability over the HV and
/// LV loads) and `required_paths_max` (the strongest disjoint-path level in
/// force when that candidate was solved).
[[nodiscard]] IterativeResult solve_lazy_epn(Problem& p, const EpnConfig& cfg,
                                             const milp::MilpOptions& milp_options = {},
                                             int max_iterations = 10);

}  // namespace archex::domains::epn
