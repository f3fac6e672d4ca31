#include "core/omq.h"

#include <sstream>

#include "cq/gaifman.h"
#include "cq/tree_decomposition.h"

namespace owlqr {

const char* ComplexityClassName(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kNl:
      return "NL";
    case ComplexityClass::kLogCfl:
      return "LOGCFL";
    case ComplexityClass::kNp:
      return "NP";
  }
  return "?";
}

bool OmqProfile::finite_depth() const {
  return ontology_depth != WordGraph::kInfiniteDepth;
}

ComplexityClass OmqProfile::Complexity() const {
  // Figure 1(a): bounded depth + bounded-leaf trees -> NL (as for plain
  // CQs); bounded depth + bounded treewidth, or any depth + bounded-leaf
  // trees -> LOGCFL; otherwise NP.
  if (finite_depth() && tree_shaped) return ComplexityClass::kNl;
  if (finite_depth()) return ComplexityClass::kLogCfl;
  if (tree_shaped) return ComplexityClass::kLogCfl;
  return ComplexityClass::kNp;
}

std::string OmqProfile::ToString() const {
  std::ostringstream os;
  os << "OMQ(";
  if (finite_depth()) {
    os << ontology_depth;
  } else {
    os << "inf";
  }
  os << ", " << treewidth << (treewidth_exact ? "" : "~");
  if (tree_shaped) {
    os << ", " << num_leaves << " leaves";
  } else {
    os << ", not tree-shaped";
  }
  os << ") in " << ComplexityClassName(Complexity());
  return os.str();
}

OmqProfile ProfileOmq(const RewritingContext& ctx,
                      const ConjunctiveQuery& query) {
  OmqProfile profile;
  profile.ontology_depth = ctx.depth();
  GaifmanGraph graph(query);
  profile.connected = graph.IsConnected();
  profile.tree_shaped = graph.IsTree();
  profile.num_leaves = profile.tree_shaped ? graph.NumLeaves() : 0;
  if (profile.tree_shaped) {
    profile.treewidth = query.num_vars() > 1 ? 1 : 0;
    profile.treewidth_exact = true;
  } else if (query.num_vars() <= 20) {
    profile.treewidth = ExactTreewidth(query);
    profile.treewidth_exact = true;
  } else {
    profile.treewidth = MinFillDecomposition(query).width();
    profile.treewidth_exact = false;
  }
  return profile;
}

}  // namespace owlqr
