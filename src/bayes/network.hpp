// Discrete Bayesian networks: representation, parameter fitting and
// inference.
//
// The network is a DAG over discrete variables; each node carries a
// conditional probability table P(X | parents(X)) estimated from data
// with Laplace smoothing.  Inference needs of COBAYN are modest — the
// evidence always covers all feature nodes and the query enumerates
// flag assignments — so exact evaluation of the joint plus enumeration
// over query variables is both simple and fast.  Ancestral sampling is
// provided for tests and for posterior sampling with partial evidence.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace socrates::bayes {

/// A discrete random variable.
struct Variable {
  std::string name;
  std::size_t cardinality = 2;
};

/// A full or partial assignment: value per variable index, nullopt = unobserved.
using Assignment = std::vector<std::optional<std::size_t>>;

/// A complete assignment (every variable set).
using FullAssignment = std::vector<std::size_t>;

/// Training data: each row assigns a value to every variable.
using Dataset = std::vector<FullAssignment>;

class BayesNet {
 public:
  /// Builds a network with the given variables and no edges.
  explicit BayesNet(std::vector<Variable> variables);

  std::size_t variable_count() const { return vars_.size(); }
  const Variable& variable(std::size_t i) const;
  /// Index of the variable with this name; throws if absent.
  std::size_t index_of(const std::string& name) const;

  /// Adds edge parent -> child.  Rejects duplicate edges and cycles.
  void add_edge(std::size_t parent, std::size_t child);

  const std::vector<std::size_t>& parents(std::size_t child) const;

  /// True when adding parent -> child would create a cycle.
  bool would_create_cycle(std::size_t parent, std::size_t child) const;

  /// Estimates every CPT from `data` with Laplace smoothing `alpha`.
  void fit(const Dataset& data, double alpha = 1.0);

  /// log P(assignment) under the fitted model.
  double log_joint(const FullAssignment& assignment) const;

  /// P(X_var = value | parent values taken from `assignment`).
  double conditional(std::size_t var, const FullAssignment& assignment) const;

  /// Enumerates all completions of `evidence` over the variables listed
  /// in `query` (which must be exactly the unobserved ones) and returns
  /// normalized posterior probabilities in mixed-radix order (first
  /// query variable is the most significant digit).
  std::vector<double> posterior_over(const std::vector<std::size_t>& query,
                                     const Assignment& evidence) const;

  /// Draws a complete sample by ancestral sampling; variables fixed in
  /// `evidence` keep their values (forward sampling, not conditioning).
  FullAssignment sample(Rng& rng, const Assignment& evidence = {}) const;

  /// Topological order of the DAG (parents before children).
  std::vector<std::size_t> topological_order() const;

  /// Number of free parameters across all CPTs.
  std::size_t parameter_count() const;

  /// Writes variables, edges and CPTs in a stable text format
  /// (hexfloat doubles, exact round trip) — the artifact-cache
  /// representation of a trained model.
  void save(std::ostream& out) const;

  /// Parses a network written by save().  Throws ContractViolation on
  /// malformed input.
  static BayesNet load(std::istream& in);

 private:
  std::size_t cpt_row_index(std::size_t var, const FullAssignment& assignment) const;

  std::vector<Variable> vars_;
  std::vector<std::vector<std::size_t>> parents_;
  /// cpts_[v][row * card(v) + value] = P(v = value | parent row).
  std::vector<std::vector<double>> cpts_;
  bool fitted_ = false;
};

}  // namespace socrates::bayes
