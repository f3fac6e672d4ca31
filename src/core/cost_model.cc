#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace owlqr {

double EstimateEvaluationCost(const NdlProgram& program,
                              const DataSnapshot& snapshot) {
  constexpr double kCap = 1e18;
  const double adom =
      std::max<double>(1, static_cast<double>(snapshot.active_domain().size()));
  // Each predicate's estimated extension.  EDB sizes are resolved once per
  // predicate up front, as Evaluator::Init resolves its relations; IDB
  // sizes are filled in bottom-up below.
  std::vector<double> estimate(program.num_predicates(), 0.0);
  for (int p = 0; p < program.num_predicates(); ++p) {
    const PredicateInfo& info = program.predicate(p);
    const EdbRelation* relation = nullptr;
    switch (info.kind) {
      case PredicateKind::kConceptEdb:
        relation = snapshot.Concept(info.external_id);
        break;
      case PredicateKind::kRoleEdb:
        relation = snapshot.Role(info.external_id);
        break;
      case PredicateKind::kTableEdb:
        // Mapping-layer tables are not part of the OMQ cost model;
        // treat them like base relations of unknown (domain) size.
      case PredicateKind::kEquality:
      case PredicateKind::kAdom:
        estimate[p] = adom;
        continue;
      case PredicateKind::kIdb:
        continue;
    }
    if (relation != nullptr) {
      estimate[p] = static_cast<double>(relation->rows().size());
    }
  }

  for (int p : program.TopologicalOrder()) {
    double total = 0;
    for (int ci : program.ClausesFor(p)) {
      const NdlClause& clause = program.clause(ci);
      double product = 1.0;
      std::map<int, int> occurrences;
      for (const NdlAtom& atom : clause.body) {
        product = std::min(kCap, product * estimate[atom.predicate]);
        for (const Term& t : atom.args) {
          if (!t.is_constant) ++occurrences[t.value];
        }
      }
      // Independence discount: each repeated occurrence of a variable keeps
      // a 1/|adom| fraction of the cross product.
      for (const auto& [var, count] : occurrences) {
        for (int i = 1; i < count; ++i) product /= adom;
      }
      // Projection to the head cannot exceed adom^arity.
      double head_bound =
          std::pow(adom, static_cast<double>(clause.head.args.size()));
      total = std::min(kCap, total + std::min(product, head_bound));
    }
    estimate[p] = total;
  }

  // Cost = total materialised tuples across the predicates the goal needs.
  double cost = 0;
  std::vector<bool> reachable(program.num_predicates(), false);
  if (program.goal() >= 0) {
    std::vector<int> stack = {program.goal()};
    reachable[program.goal()] = true;
    while (!stack.empty()) {
      int p = stack.back();
      stack.pop_back();
      cost = std::min(kCap, cost + estimate[p]);
      for (int ci : program.ClausesFor(p)) {
        for (const NdlAtom& atom : program.clause(ci).body) {
          if (program.IsIdb(atom.predicate) && !reachable[atom.predicate]) {
            reachable[atom.predicate] = true;
            stack.push_back(atom.predicate);
          }
        }
      }
    }
  }
  return cost;
}

RewriteResult CostBasedRewrite(RewritingContext* ctx,
                               const ConjunctiveQuery& query,
                               const DataSnapshot& snapshot,
                               const RewriteOptions& options,
                               RewriterKind* chosen) {
  std::optional<RewriteResult> best;
  double best_cost = 0;
  for (RewriterKind kind : {RewriterKind::kLin, RewriterKind::kLog,
                            RewriterKind::kTw, RewriterKind::kTwStar}) {
    // RewriteOmqOrError refuses, before rewriting anything, a query outside
    // the rewriter's class (ValidateOmqShape).
    RewriteResult rewrite = RewriteOmqOrError(ctx, query, kind, options);
    if (!rewrite.ok()) continue;
    double cost = EstimateEvaluationCost(rewrite.program, snapshot);
    if (!best.has_value() || cost < best_cost) {
      best = std::move(rewrite);
      best_cost = cost;
      *chosen = kind;
    }
  }
  if (best.has_value()) return std::move(*best);
  *chosen = RewriterKind::kUcq;
  return RewriteOmqOrError(ctx, query, RewriterKind::kUcq, options);
}

}  // namespace owlqr
