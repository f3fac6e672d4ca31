#ifndef OWLQR_CORE_COST_MODEL_H_
#define OWLQR_CORE_COST_MODEL_H_

#include "core/rewriters.h"
#include "data/snapshot.h"
#include "ndl/program.h"

namespace owlqr {

// Section 6 proposes an "adaptable splitting strategy that would work
// similarly to query execution planners in DBMSs and use statistical
// information about the relational tables" with a cost function over
// alternative rewritings.  This module implements that proposal: a textbook
// cardinality model over the snapshot's relation sizes, used by
// Engine::Prepare to pick among the optimal rewriters per OMQ.

// Estimated number of tuples materialised when evaluating the program
// bottom-up over `snapshot`: per clause, the product of the body-atom
// cardinalities (each EDB predicate's row count, |adom| for TOP and
// equality) discounted by 1/|adom| for every repeated variable occurrence
// (attribute-independence assumption), summed over clauses and reachable
// IDB predicates.  On a store-backed snapshot this faults in the columns
// the program names, as its evaluation would.
double EstimateEvaluationCost(const NdlProgram& program,
                              const DataSnapshot& snapshot);

// Rewrites the OMQ with every optimal strategy whose class admits it
// (Lin / Log / Tw / Tw*, per ValidateOmqShape), estimates each program's
// cost over `snapshot`, and returns the cheapest.  When none applies (a
// cyclic CQ over an infinite-depth ontology, the NP corner of Figure 1) it
// returns the UCQ rewriting.  `chosen` receives the selected strategy.
RewriteResult CostBasedRewrite(RewritingContext* ctx,
                               const ConjunctiveQuery& query,
                               const DataSnapshot& snapshot,
                               const RewriteOptions& options,
                               RewriterKind* chosen);

}  // namespace owlqr

#endif  // OWLQR_CORE_COST_MODEL_H_
