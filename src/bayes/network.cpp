#include "bayes/network.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "support/serialize.hpp"
#include "support/error.hpp"

namespace socrates::bayes {

BayesNet::BayesNet(std::vector<Variable> variables) : vars_(std::move(variables)) {
  SOCRATES_REQUIRE(!vars_.empty());
  for (const auto& v : vars_) SOCRATES_REQUIRE_MSG(v.cardinality >= 1, "variable " << v.name);
  parents_.assign(vars_.size(), {});
}

const Variable& BayesNet::variable(std::size_t i) const {
  SOCRATES_REQUIRE(i < vars_.size());
  return vars_[i];
}

std::size_t BayesNet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i)
    if (vars_[i].name == name) return i;
  SOCRATES_REQUIRE_MSG(false, "unknown variable '" << name << "'");
  return 0;  // unreachable
}

bool BayesNet::would_create_cycle(std::size_t parent, std::size_t child) const {
  if (parent == child) return true;
  // DFS from `parent` through its ancestors: a cycle appears iff child
  // is already an ancestor of parent.
  std::vector<std::size_t> stack = {parent};
  std::vector<bool> seen(vars_.size(), false);
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    if (v == child) return true;
    if (seen[v]) continue;
    seen[v] = true;
    for (const std::size_t p : parents_[v]) stack.push_back(p);
  }
  return false;
}

void BayesNet::add_edge(std::size_t parent, std::size_t child) {
  SOCRATES_REQUIRE(parent < vars_.size() && child < vars_.size());
  SOCRATES_REQUIRE_MSG(!would_create_cycle(parent, child),
                       "edge " << vars_[parent].name << " -> " << vars_[child].name
                               << " would create a cycle");
  auto& ps = parents_[child];
  SOCRATES_REQUIRE_MSG(std::find(ps.begin(), ps.end(), parent) == ps.end(),
                       "duplicate edge");
  ps.push_back(parent);
  fitted_ = false;
}

const std::vector<std::size_t>& BayesNet::parents(std::size_t child) const {
  SOCRATES_REQUIRE(child < vars_.size());
  return parents_[child];
}

std::size_t BayesNet::cpt_row_index(std::size_t var, const FullAssignment& a) const {
  std::size_t row = 0;
  for (const std::size_t p : parents_[var]) {
    SOCRATES_ENSURE(a[p] < vars_[p].cardinality);
    row = row * vars_[p].cardinality + a[p];
  }
  return row;
}

void BayesNet::fit(const Dataset& data, double alpha) {
  SOCRATES_REQUIRE(!data.empty());
  SOCRATES_REQUIRE(alpha > 0.0);
  for (const auto& row : data) {
    SOCRATES_REQUIRE(row.size() == vars_.size());
    for (std::size_t v = 0; v < vars_.size(); ++v)
      SOCRATES_REQUIRE_MSG(row[v] < vars_[v].cardinality,
                           "value " << row[v] << " out of range for " << vars_[v].name);
  }

  cpts_.assign(vars_.size(), {});
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    std::size_t rows = 1;
    for (const std::size_t p : parents_[v]) rows *= vars_[p].cardinality;
    const std::size_t card = vars_[v].cardinality;

    std::vector<double> counts(rows * card, alpha);
    for (const auto& sample : data) {
      const std::size_t row = cpt_row_index(v, sample);
      counts[row * card + sample[v]] += 1.0;
    }
    // Normalize each row.
    for (std::size_t r = 0; r < rows; ++r) {
      double total = 0.0;
      for (std::size_t k = 0; k < card; ++k) total += counts[r * card + k];
      for (std::size_t k = 0; k < card; ++k) counts[r * card + k] /= total;
    }
    cpts_[v] = std::move(counts);
  }
  fitted_ = true;
}

double BayesNet::conditional(std::size_t var, const FullAssignment& a) const {
  SOCRATES_REQUIRE(fitted_);
  SOCRATES_REQUIRE(var < vars_.size());
  SOCRATES_REQUIRE(a.size() == vars_.size());
  const std::size_t row = cpt_row_index(var, a);
  return cpts_[var][row * vars_[var].cardinality + a[var]];
}

double BayesNet::log_joint(const FullAssignment& a) const {
  SOCRATES_REQUIRE(fitted_);
  SOCRATES_REQUIRE(a.size() == vars_.size());
  double log_p = 0.0;
  for (std::size_t v = 0; v < vars_.size(); ++v) log_p += std::log(conditional(v, a));
  return log_p;
}

std::vector<double> BayesNet::posterior_over(const std::vector<std::size_t>& query,
                                             const Assignment& evidence) const {
  SOCRATES_REQUIRE(fitted_);
  SOCRATES_REQUIRE(evidence.size() == vars_.size());
  // Sanity: query variables are exactly the unobserved ones.
  std::vector<bool> in_query(vars_.size(), false);
  for (const std::size_t q : query) {
    SOCRATES_REQUIRE(q < vars_.size());
    in_query[q] = true;
  }
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    SOCRATES_REQUIRE_MSG(evidence[v].has_value() != in_query[v],
                         "variable " << vars_[v].name
                                     << " must be either evidence or query");
  }

  std::size_t combos = 1;
  for (const std::size_t q : query) combos *= vars_[q].cardinality;
  SOCRATES_REQUIRE_MSG(combos <= (1u << 20), "query space too large: " << combos);

  FullAssignment a(vars_.size(), 0);
  for (std::size_t v = 0; v < vars_.size(); ++v)
    if (evidence[v]) a[v] = *evidence[v];

  std::vector<double> log_probs(combos);
  for (std::size_t idx = 0; idx < combos; ++idx) {
    std::size_t rest = idx;
    // Mixed radix: first query variable is the most significant digit.
    for (std::size_t qi = query.size(); qi-- > 0;) {
      const std::size_t q = query[qi];
      a[q] = rest % vars_[q].cardinality;
      rest /= vars_[q].cardinality;
    }
    log_probs[idx] = log_joint(a);
  }

  // Log-sum-exp normalization.
  const double max_log = *std::max_element(log_probs.begin(), log_probs.end());
  double total = 0.0;
  for (const double lp : log_probs) total += std::exp(lp - max_log);
  std::vector<double> out(combos);
  for (std::size_t i = 0; i < combos; ++i)
    out[i] = std::exp(log_probs[i] - max_log) / total;
  return out;
}

FullAssignment BayesNet::sample(Rng& rng, const Assignment& evidence) const {
  SOCRATES_REQUIRE(fitted_);
  SOCRATES_REQUIRE(evidence.empty() || evidence.size() == vars_.size());
  FullAssignment a(vars_.size(), 0);
  for (const std::size_t v : topological_order()) {
    if (!evidence.empty() && evidence[v]) {
      a[v] = *evidence[v];
      continue;
    }
    const std::size_t card = vars_[v].cardinality;
    const std::size_t row = cpt_row_index(v, a);
    std::vector<double> weights(card);
    for (std::size_t k = 0; k < card; ++k) weights[k] = cpts_[v][row * card + k];
    a[v] = rng.weighted_pick(weights);
  }
  return a;
}

std::vector<std::size_t> BayesNet::topological_order() const {
  std::vector<std::size_t> order;
  std::vector<int> state(vars_.size(), 0);  // 0=unseen 1=visiting 2=done
  // Iterative DFS with explicit finish actions.
  for (std::size_t root = 0; root < vars_.size(); ++root) {
    if (state[root] != 0) continue;
    std::vector<std::pair<std::size_t, bool>> stack = {{root, false}};
    while (!stack.empty()) {
      const auto [v, finished] = stack.back();
      stack.pop_back();
      if (finished) {
        state[v] = 2;
        order.push_back(v);
        continue;
      }
      if (state[v] != 0) continue;  // already visiting (entry pending) or done
      state[v] = 1;
      stack.emplace_back(v, true);
      for (const std::size_t p : parents_[v]) {
        SOCRATES_ENSURE(state[p] != 1);  // DAG invariant
        if (state[p] == 0) stack.emplace_back(p, false);
      }
    }
  }
  return order;
}

void BayesNet::save(std::ostream& out) const {
  out << "bayesnet v1 " << vars_.size() << ' ' << (fitted_ ? 1 : 0) << '\n';
  for (const auto& v : vars_) out << v.name << ' ' << v.cardinality << '\n';
  for (const auto& ps : parents_) {
    out << ps.size();
    for (const std::size_t p : ps) out << ' ' << p;
    out << '\n';
  }
  if (!fitted_) return;
  for (const auto& cpt : cpts_) {
    out << cpt.size();
    for (const double p : cpt) out << ' ' << format_exact(p);
    out << '\n';
  }
}

BayesNet BayesNet::load(std::istream& in) {
  std::string magic, version;
  std::size_t n_vars = 0;
  int fitted = 0;
  in >> magic >> version >> n_vars >> fitted;
  SOCRATES_REQUIRE_MSG(in && magic == "bayesnet" && version == "v1" && n_vars > 0,
                       "not a bayesnet artifact");
  // Containers grow as elements are read, never sized from a header: a
  // count the stream cannot back ends in a named violation.
  std::vector<Variable> vars;
  for (std::size_t i = 0; i < n_vars; ++i) {
    Variable& v = vars.emplace_back();
    in >> v.name >> v.cardinality;
    SOCRATES_REQUIRE_MSG(in && v.cardinality >= 1, "malformed bayesnet variable");
  }
  BayesNet net(std::move(vars));
  for (std::size_t v = 0; v < n_vars; ++v) {
    std::size_t count = 0;
    in >> count;
    SOCRATES_REQUIRE_MSG(in && count < n_vars, "malformed bayesnet parent list");
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t p = 0;
      in >> p;
      SOCRATES_REQUIRE_MSG(in, "truncated bayesnet parent list");
      net.add_edge(p, v);  // validates range, duplicates and acyclicity
    }
  }
  if (fitted != 0) {
    net.cpts_.resize(n_vars);
    for (std::size_t v = 0; v < n_vars; ++v) {
      std::size_t len = 0;
      in >> len;
      // The expected size is a product of claimed cardinalities: refuse
      // one that does not fit a size_t rather than let it wrap.
      std::size_t expected = net.vars_[v].cardinality;
      for (const std::size_t p : net.parents_[v]) {
        const std::size_t card = net.vars_[p].cardinality;
        SOCRATES_REQUIRE_MSG(expected <= std::numeric_limits<std::size_t>::max() / card,
                             "bayesnet CPT size overflows for " << net.vars_[v].name);
        expected *= card;
      }
      SOCRATES_REQUIRE_MSG(in && len == expected,
                           "bayesnet CPT size mismatch for " << net.vars_[v].name);
      for (std::size_t i = 0; i < len; ++i) net.cpts_[v].push_back(parse_exact(in));
    }
    net.fitted_ = true;
  }
  return net;
}

std::size_t BayesNet::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    std::size_t rows = 1;
    for (const std::size_t p : parents_[v]) rows *= vars_[p].cardinality;
    total += rows * (vars_[v].cardinality - 1);
  }
  return total;
}

}  // namespace socrates::bayes
