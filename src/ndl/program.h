#ifndef OWLQR_NDL_PROGRAM_H_
#define OWLQR_NDL_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ontology/vocabulary.h"

namespace owlqr {

// A term of a datalog atom: a (clause-local) variable or an individual
// constant (vocabulary individual id).
struct Term {
  int value = 0;
  bool is_constant = false;

  static Term Var(int v) { return {v, false}; }
  static Term Const(int c) { return {c, true}; }

  bool operator==(const Term& o) const {
    return value == o.value && is_constant == o.is_constant;
  }
};

struct NdlAtom {
  int predicate = -1;
  std::vector<Term> args;
};

// A Horn clause head <- body.  Variables are clause-local dense ints; every
// head variable must occur in the body (safety; see EnsureSafety()).
struct NdlClause {
  NdlAtom head;
  std::vector<NdlAtom> body;

  int NumVariables() const;
};

// How a predicate of an NDL program gets its extension.
enum class PredicateKind {
  kIdb,         // Defined by clauses.
  kConceptEdb,  // Unary facts of a concept (external_id = concept id).
  kRoleEdb,     // Binary facts of a predicate (external_id = predicate id).
  kTableEdb,    // Rows of a source table (external_id = TableStore id);
                // used by the GAV mapping layer (core/mapping.h).
  kEquality,    // Built-in equality over individuals.
  kAdom,        // Built-in active domain (all individuals, arity 1).
};

struct PredicateInfo {
  std::string name;
  int arity = 0;
  PredicateKind kind = PredicateKind::kIdb;
  int external_id = -1;
  // For ordered NDL queries: which argument positions hold parameters
  // (answer variables).  Empty means "no parameters".
  std::vector<bool> parameter_positions;
};

// Rename predicates of a program (see NdlProgram::Renames()).  A rename is
// an IDB predicate other than the goal defined by exactly one clause
//   P(x_p(1), ..., x_p(k)) <- S(x_1, ..., x_k)
// whose body is a single atom over an IDB, concept, role or table predicate
// with pairwise distinct variables, and whose head is a permutation of those
// variables at the same arity: P's extension is S's, its columns permuted,
// with the same size and the same row order.  Chains (P <- Q <- S) resolve
// to their root, the first predicate along the chain that is not a rename.
struct RenameAnalysis {
  // root[p]: the root predicate of rename p, or -1 when p is not a rename.
  std::vector<int> root;
  // resolved_slot[ci]: where clause ci's resolved form is in `resolved`, or
  // -1 when its body reads no rename (the clause is its own resolved form).
  std::vector<int> resolved_slot;
  // The clauses that read a rename, each with every body atom over a rename
  // replaced by the equivalent atom over that rename's root (arguments
  // permuted); the head and the atom count and order are unchanged.
  std::vector<NdlClause> resolved;
};

// A (nonrecursive) datalog program together with a goal predicate, i.e. an
// NDL query (Pi, G(x)).  The program does not enforce nonrecursiveness at
// construction; `IsNonrecursive()` checks it.
class NdlProgram {
 public:
  explicit NdlProgram(Vocabulary* vocabulary);

  Vocabulary* vocabulary() const { return vocabulary_; }

  // --- Predicates ---------------------------------------------------------
  int AddIdbPredicate(const std::string& name, int arity);
  // EDB predicates are deduplicated by external id.
  int AddConceptPredicate(int concept_id);
  int AddRolePredicate(int predicate_id);
  // Source-table EDB predicate (deduplicated by table id).
  int AddTablePredicate(const std::string& name, int arity, int table_id);
  int EqualityPredicate();  // Created on first use.
  int AdomPredicate();

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  const PredicateInfo& predicate(int p) const { return predicates_[p]; }
  PredicateInfo& mutable_predicate(int p) { return predicates_[p]; }
  bool IsIdb(int p) const {
    return predicates_[p].kind == PredicateKind::kIdb;
  }

  // --- Clauses ------------------------------------------------------------
  void AddClause(NdlClause clause);
  int num_clauses() const { return static_cast<int>(clauses_.size()); }
  const NdlClause& clause(int i) const { return clauses_[i]; }
  const std::vector<NdlClause>& clauses() const { return clauses_; }
  // Indices of clauses whose head predicate is `p`.
  const std::vector<int>& ClausesFor(int p) const;
  // Replaces the clause list wholesale (used by transforms).
  void ReplaceClauses(std::vector<NdlClause> clauses);

  void SetGoal(int predicate) {
    goal_ = predicate;
    renames_valid_ = false;  // The goal is never a rename.
  }
  int goal() const { return goal_; }

  // --- Analysis -----------------------------------------------------------
  // True iff the dependence graph is acyclic (i.e. the program is NDL).
  bool IsNonrecursive() const;
  // IDB predicates in dependency order (dependencies first).  Requires
  // nonrecursiveness.
  std::vector<int> TopologicalOrder() const;
  // TopologicalOrder() computed once and cached until the clause list
  // changes.  Like the other lazy caches, the first call must not race with
  // concurrent use; compute it before sharing the program across threads.
  const std::vector<int>& CachedTopologicalOrder() const;
  // The dependence adjacency restricted to IDB predicates: dep[p] = the
  // distinct IDB predicates occurring in the bodies of p's clauses (self
  // edges dropped; empty for non-IDB p).  This is the edge set the
  // evaluator's DAG scheduler runs on; cached until the clauses change.
  const std::vector<std::vector<int>>& IdbDependencies() const;
  // The program's rename predicates and every clause's body with renames
  // resolved to their roots (see RenameAnalysis).  Cached until the clauses,
  // the predicates or the goal change; like the caches above, compute it
  // before sharing the program across threads.  The evaluator plans joins
  // over the resolved bodies, so renames are read as views of their roots
  // instead of being copied.
  const RenameAnalysis& Renames() const;
  // IDB predicates grouped into dependence levels: level k holds predicates
  // whose longest IDB-dependency chain has length k.  Predicates within one
  // level are independent and can be materialised in parallel (the NC-style
  // evaluation the paper's LOGCFL membership rests on).
  std::vector<std::vector<int>> TopologicalLevels() const;
  // d(Pi, G): longest dependence path from the goal.
  int Depth() const;
  // At most one IDB atom per clause body.
  bool IsLinear() const;
  // At most two atoms per clause body.
  bool IsSkinny() const;
  // Max EDB (incl. equality/adom) atoms in a clause body (e_Pi of Lemma 5).
  int MaxEdbAtomsPerClause() const;
  // Width of the ordered query: max number of distinct non-parameter
  // variables in a clause.
  int Width() const;
  // Total number of symbols, the |Pi| size measure (atoms + args).
  long SizeInSymbols() const;

  std::string ToString() const;
  std::string AtomToString(const NdlAtom& atom) const;

 private:
  Vocabulary* vocabulary_;  // Not owned.
  std::vector<PredicateInfo> predicates_;
  std::unordered_map<std::string, int> predicate_by_name_;
  std::unordered_map<int, int> concept_edb_;  // concept id -> predicate.
  std::unordered_map<int, int> role_edb_;     // predicate id -> predicate.
  std::unordered_map<int, int> table_edb_;    // table id -> predicate.
  int equality_ = -1;
  int adom_ = -1;
  std::vector<NdlClause> clauses_;
  mutable std::vector<std::vector<int>> clauses_for_;  // Lazy index.
  mutable bool clause_index_valid_ = false;
  mutable std::vector<int> topo_order_;                // Lazy (see above).
  mutable bool topo_order_valid_ = false;
  mutable std::vector<std::vector<int>> idb_deps_;     // Lazy (see above).
  mutable bool idb_deps_valid_ = false;
  mutable RenameAnalysis renames_;                     // Lazy (see above).
  mutable bool renames_valid_ = false;
  int goal_ = -1;

  void BuildClauseIndex() const;
  void InvalidateAnalyses();
  // Adjacency of the dependence graph restricted to IDB predicates:
  // dep[q] = predicates q depends on.
  std::vector<std::vector<int>> DependenceGraph() const;
};

}  // namespace owlqr

#endif  // OWLQR_NDL_PROGRAM_H_
