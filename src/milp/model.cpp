#include "milp/model.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace archex::milp {

const char* to_string(VarType t) {
  switch (t) {
    case VarType::Continuous: return "continuous";
    case VarType::Binary: return "binary";
    case VarType::Integer: return "integer";
  }
  return "?";
}

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
    case SolveStatus::NodeLimit: return "node-limit";
    case SolveStatus::TimeLimit: return "time-limit";
    case SolveStatus::NumericalError: return "numerical-error";
    case SolveStatus::Cutoff: return "cutoff";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, SolveStatus s) { return os << to_string(s); }

VarId Model::add_var(double lb, double ub, VarType type, std::string name) {
  if (lb > ub) throw std::invalid_argument("Model::add_var: lb > ub for " + name);
  if (type == VarType::Binary) {
    lb = std::max(lb, 0.0);
    ub = std::min(ub, 1.0);
  }
  vars_.push_back(Variable{lb, ub, type, std::move(name)});
  return VarId{static_cast<std::int32_t>(vars_.size() - 1)};
}

std::size_t Model::add_constraint(LinConstraint c) {
  for (const Term& t : c.expr.terms()) {
    if (!t.var.valid() || static_cast<std::size_t>(t.var.index) >= vars_.size()) {
      throw std::invalid_argument("Model::add_constraint: unknown variable in " + c.name);
    }
    if (!std::isfinite(t.coef)) {
      throw std::invalid_argument("Model::add_constraint: non-finite coefficient in " + c.name);
    }
  }
  constraints_.push_back(std::move(c));
  return constraints_.size() - 1;
}

void Model::set_objective(LinExpr obj, ObjectiveSense sense) {
  for (const Term& t : obj.terms()) {
    if (!t.var.valid() || static_cast<std::size_t>(t.var.index) >= vars_.size()) {
      throw std::invalid_argument("Model::set_objective: unknown variable");
    }
  }
  objective_ = std::move(obj);
  obj_sense_ = sense;
}

void Model::tighten_bounds(VarId v, double lb, double ub) {
  Variable& var = vars_[static_cast<std::size_t>(v.index)];
  var.lb = std::max(var.lb, lb);
  var.ub = std::min(var.ub, ub);
}

ModelStats Model::stats() const {
  ModelStats s;
  s.num_vars = vars_.size();
  for (const Variable& v : vars_) {
    switch (v.type) {
      case VarType::Binary: ++s.num_binary; break;
      case VarType::Integer: ++s.num_integer; break;
      case VarType::Continuous: ++s.num_continuous; break;
    }
  }
  s.num_constraints = constraints_.size();
  for (const LinConstraint& c : constraints_) s.num_nonzeros += c.expr.size();
  // "Standard form lines": one line per term plus one per row relation, plus
  // one declaration line per variable (bounds + integrality) — the way a
  // textual LP export counts.
  s.standard_form_lines = s.num_nonzeros + s.num_constraints + s.num_vars;
  return s;
}

bool Model::feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const Variable& v = vars_[i];
    if (x[i] < v.lb - tol || x[i] > v.ub + tol) return false;
    if (v.is_integral() && std::abs(x[i] - std::round(x[i])) > tol) return false;
  }
  return std::all_of(constraints_.begin(), constraints_.end(),
                     [&](const LinConstraint& c) { return c.satisfied(x, tol); });
}

void Model::write_lp(std::ostream& os) const {
  auto var_name = [&](VarId v) {
    const Variable& var = vars_[static_cast<std::size_t>(v.index)];
    return var.name.empty() ? "x" + std::to_string(v.index) : var.name;
  };
  auto write_expr = [&](const LinExpr& e) {
    bool first = true;
    for (const Term& t : e.terms()) {
      double c = t.coef;
      if (first) {
        if (c < 0) os << "- ";
      } else {
        os << (c < 0 ? " - " : " + ");
      }
      c = std::abs(c);
      if (c != 1.0) os << c << " ";
      os << var_name(t.var);
      first = false;
    }
    if (first) os << "0";
  };

  os << (obj_sense_ == ObjectiveSense::Minimize ? "Minimize\n obj: " : "Maximize\n obj: ");
  write_expr(objective_);
  os << "\nSubject To\n";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const LinConstraint& c = constraints_[i];
    os << " " << (c.name.empty() ? "c" + std::to_string(i) : c.name) << ": ";
    write_expr(c.expr);
    switch (c.sense) {
      case Sense::LE: os << " <= "; break;
      case Sense::GE: os << " >= "; break;
      case Sense::EQ: os << " = "; break;
    }
    os << c.rhs << "\n";
  }
  os << "Bounds\n";
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const Variable& v = vars_[i];
    os << " ";
    if (v.lb == -kInf) os << "-inf";
    else os << v.lb;
    os << " <= " << var_name(VarId{static_cast<std::int32_t>(i)}) << " <= ";
    if (v.ub == kInf) os << "+inf";
    else os << v.ub;
    os << "\n";
  }
  os << "Binaries\n";
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].type == VarType::Binary) {
      os << " " << var_name(VarId{static_cast<std::int32_t>(i)});
    }
  }
  os << "\nGenerals\n";
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].type == VarType::Integer) {
      os << " " << var_name(VarId{static_cast<std::int32_t>(i)});
    }
  }
  os << "\nEnd\n";
}

}  // namespace archex::milp
