#ifndef OWLQR_CORE_MAPPING_H_
#define OWLQR_CORE_MAPPING_H_

#include <vector>

#include "data/data_instance.h"
#include "data/table_store.h"
#include "ndl/program.h"

namespace owlqr {

// The OBDA mapping layer of the paper's introduction: a GAV mapping M
// connects the ontology vocabulary to an arbitrary relational schema, and a
// rewriting q' over the ontology vocabulary "can be further unfolded using M
// to obtain an FO-query that can be evaluated directly over the original
// dataset D (so there is no need to materialise M(D))".

// One atom over a source table; arguments are rule-local variables or
// individual constants (constants act as filters, e.g. a role column).
struct MappingAtom {
  int table = -1;
  std::vector<Term> args;
};

// A GAV rule: Concept(x) <- body  or  Role(x, y) <- body, where x (and y)
// are rule-local variables that must occur in the body.
struct MappingRule {
  bool is_concept = true;
  int symbol = -1;             // Concept id or binary predicate id.
  std::vector<int> head_vars;  // Size 1 (concept) or 2 (role).
  std::vector<MappingAtom> body;
};

class GavMapping {
 public:
  GavMapping(Vocabulary* vocabulary, TableStore* tables)
      : vocabulary_(vocabulary), tables_(tables) {}

  Vocabulary* vocabulary() const { return vocabulary_; }
  TableStore* tables() const { return tables_; }

  void AddConceptRule(int concept_id, int head_var,
                      std::vector<MappingAtom> body);
  void AddRoleRule(int predicate_id, int head_var0, int head_var1,
                   std::vector<MappingAtom> body);

  const std::vector<MappingRule>& rules() const { return rules_; }

 private:
  void Validate(const MappingRule& rule) const;

  Vocabulary* vocabulary_;  // Not owned.
  TableStore* tables_;      // Not owned.
  std::vector<MappingRule> rules_;
};

// The virtual ABox M(D): applies every rule to the tables and collects the
// produced unary/binary atoms.  For testing and for materialisation-based
// pipelines; the point of UnfoldThroughMapping is to avoid this.
DataInstance MaterializeMapping(const GavMapping& mapping,
                                const TableStore& tables);

// Unfolds a rewriting over the ontology vocabulary into a program over the
// source tables: every concept/role EDB atom becomes an IDB predicate
// defined by the matching mapping rules (predicates without rules become
// empty), and active-domain atoms are redirected to the individuals of the
// virtual ABox.  Evaluate the result over a snapshot of the tables:
// Evaluator(program, DataSnapshot::FromInstance(empty_instance, &tables)).
NdlProgram UnfoldThroughMapping(const NdlProgram& program,
                                const GavMapping& mapping);

}  // namespace owlqr

#endif  // OWLQR_CORE_MAPPING_H_
