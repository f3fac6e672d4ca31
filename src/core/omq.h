#ifndef OWLQR_CORE_OMQ_H_
#define OWLQR_CORE_OMQ_H_

#include <string>

#include "core/rewriting_context.h"
#include "cq/cq.h"

namespace owlqr {

// The combined-complexity landscape of Figure 1(a).
enum class ComplexityClass { kNl, kLogCfl, kNp };

const char* ComplexityClassName(ComplexityClass c);

// Structural parameters of an OMQ (T, q): the coordinates of Figure 1.
struct OmqProfile {
  int ontology_depth = 0;        // WordGraph::kInfiniteDepth if infinite.
  bool tree_shaped = false;      // Gaifman graph is a tree.
  int num_leaves = 0;            // For tree-shaped queries.
  int treewidth = 0;             // Exact for <= 20 variables, else min-fill.
  bool treewidth_exact = true;
  bool connected = false;

  bool finite_depth() const;

  // Membership in the paper's three tractable classes (for these concrete
  // parameter values).
  bool InOmqDT() const { return finite_depth(); }        // OMQ(d, t, inf).
  bool InOmqDL() const { return finite_depth() && tree_shaped; }
  bool InOmqL() const { return tree_shaped; }            // OMQ(inf, 1, l).

  // The combined complexity of answering per Figure 1(a), treating the
  // profile's own d / t / l as the fixed bounds.
  ComplexityClass Complexity() const;

  std::string ToString() const;
};

// Computes the profile of (ctx->tbox(), query).
OmqProfile ProfileOmq(const RewritingContext& ctx,
                      const ConjunctiveQuery& query);

}  // namespace owlqr

#endif  // OWLQR_CORE_OMQ_H_
