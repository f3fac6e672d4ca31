#include "ndl/program.h"

#include <algorithm>
#include <functional>
#include <set>

#include "util/logging.h"

namespace owlqr {

int NdlClause::NumVariables() const {
  std::set<int> vars;
  auto collect = [&vars](const NdlAtom& atom) {
    for (const Term& t : atom.args) {
      if (!t.is_constant) vars.insert(t.value);
    }
  };
  collect(head);
  for (const NdlAtom& atom : body) collect(atom);
  return static_cast<int>(vars.size());
}

NdlProgram::NdlProgram(Vocabulary* vocabulary) : vocabulary_(vocabulary) {}

int NdlProgram::AddIdbPredicate(const std::string& name, int arity) {
  auto it = predicate_by_name_.find(name);
  if (it != predicate_by_name_.end()) {
    OWLQR_CHECK_MSG(predicates_[it->second].arity == arity,
                    "predicate re-declared with different arity");
    return it->second;
  }
  PredicateInfo info;
  info.name = name;
  info.arity = arity;
  info.kind = PredicateKind::kIdb;
  predicates_.push_back(std::move(info));
  int id = num_predicates() - 1;
  predicate_by_name_.emplace(name, id);
  return id;
}

int NdlProgram::AddConceptPredicate(int concept_id) {
  auto it = concept_edb_.find(concept_id);
  if (it != concept_edb_.end()) return it->second;
  PredicateInfo info;
  info.name = vocabulary_->ConceptName(concept_id);
  info.arity = 1;
  info.kind = PredicateKind::kConceptEdb;
  info.external_id = concept_id;
  predicates_.push_back(std::move(info));
  int id = num_predicates() - 1;
  concept_edb_.emplace(concept_id, id);
  return id;
}

int NdlProgram::AddRolePredicate(int predicate_id) {
  auto it = role_edb_.find(predicate_id);
  if (it != role_edb_.end()) return it->second;
  PredicateInfo info;
  info.name = vocabulary_->PredicateName(predicate_id);
  info.arity = 2;
  info.kind = PredicateKind::kRoleEdb;
  info.external_id = predicate_id;
  predicates_.push_back(std::move(info));
  int id = num_predicates() - 1;
  role_edb_.emplace(predicate_id, id);
  return id;
}

int NdlProgram::AddTablePredicate(const std::string& name, int arity,
                                  int table_id) {
  auto it = table_edb_.find(table_id);
  if (it != table_edb_.end()) return it->second;
  PredicateInfo info;
  info.name = name;
  info.arity = arity;
  info.kind = PredicateKind::kTableEdb;
  info.external_id = table_id;
  predicates_.push_back(std::move(info));
  int id = num_predicates() - 1;
  table_edb_.emplace(table_id, id);
  return id;
}

int NdlProgram::EqualityPredicate() {
  if (equality_ < 0) {
    PredicateInfo info;
    info.name = "=";
    info.arity = 2;
    info.kind = PredicateKind::kEquality;
    predicates_.push_back(std::move(info));
    equality_ = num_predicates() - 1;
  }
  return equality_;
}

int NdlProgram::AdomPredicate() {
  if (adom_ < 0) {
    PredicateInfo info;
    info.name = "TOP";
    info.arity = 1;
    info.kind = PredicateKind::kAdom;
    predicates_.push_back(std::move(info));
    adom_ = num_predicates() - 1;
  }
  return adom_;
}

void NdlProgram::AddClause(NdlClause clause) {
  OWLQR_CHECK(clause.head.predicate >= 0 &&
              clause.head.predicate < num_predicates());
  OWLQR_CHECK_MSG(IsIdb(clause.head.predicate),
                  "clause heads must be IDB predicates");
  OWLQR_CHECK(static_cast<int>(clause.head.args.size()) ==
              predicates_[clause.head.predicate].arity);
  for (const NdlAtom& atom : clause.body) {
    OWLQR_CHECK(atom.predicate >= 0 && atom.predicate < num_predicates());
    OWLQR_CHECK(static_cast<int>(atom.args.size()) ==
                predicates_[atom.predicate].arity);
  }
  clauses_.push_back(std::move(clause));
  InvalidateAnalyses();
}

const std::vector<int>& NdlProgram::ClausesFor(int p) const {
  BuildClauseIndex();
  return clauses_for_[p];
}

void NdlProgram::ReplaceClauses(std::vector<NdlClause> clauses) {
  clauses_ = std::move(clauses);
  InvalidateAnalyses();
}

void NdlProgram::InvalidateAnalyses() {
  clause_index_valid_ = false;
  topo_order_valid_ = false;
  idb_deps_valid_ = false;
  renames_valid_ = false;
}

void NdlProgram::BuildClauseIndex() const {
  if (clause_index_valid_) return;
  clauses_for_.assign(num_predicates(), {});
  for (int i = 0; i < num_clauses(); ++i) {
    clauses_for_[clauses_[i].head.predicate].push_back(i);
  }
  clause_index_valid_ = true;
}

std::vector<std::vector<int>> NdlProgram::DependenceGraph() const {
  std::vector<std::vector<int>> dep(num_predicates());
  for (const NdlClause& clause : clauses_) {
    for (const NdlAtom& atom : clause.body) {
      dep[clause.head.predicate].push_back(atom.predicate);
    }
  }
  for (std::vector<int>& d : dep) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  return dep;
}

bool NdlProgram::IsNonrecursive() const {
  std::vector<std::vector<int>> dep = DependenceGraph();
  std::vector<int> color(num_predicates(), 0);
  bool cyclic = false;
  std::function<void(int)> dfs = [&](int p) {
    if (cyclic) return;
    color[p] = 1;
    for (int q : dep[p]) {
      if (color[q] == 1) {
        cyclic = true;
        return;
      }
      if (color[q] == 0) dfs(q);
    }
    color[p] = 2;
  };
  for (int p = 0; p < num_predicates() && !cyclic; ++p) {
    if (color[p] == 0) dfs(p);
  }
  return !cyclic;
}

std::vector<int> NdlProgram::TopologicalOrder() const {
  std::vector<std::vector<int>> dep = DependenceGraph();
  std::vector<int> order;
  std::vector<int> color(num_predicates(), 0);
  std::function<void(int)> dfs = [&](int p) {
    color[p] = 1;
    for (int q : dep[p]) {
      OWLQR_CHECK_MSG(color[q] != 1, "program is recursive");
      if (color[q] == 0) dfs(q);
    }
    color[p] = 2;
    if (IsIdb(p)) order.push_back(p);
  };
  for (int p = 0; p < num_predicates(); ++p) {
    if (color[p] == 0) dfs(p);
  }
  return order;
}

const std::vector<int>& NdlProgram::CachedTopologicalOrder() const {
  if (!topo_order_valid_) {
    topo_order_ = TopologicalOrder();
    topo_order_valid_ = true;
  }
  return topo_order_;
}

const std::vector<std::vector<int>>& NdlProgram::IdbDependencies() const {
  if (!idb_deps_valid_) {
    idb_deps_.assign(num_predicates(), {});
    for (const NdlClause& clause : clauses_) {
      for (const NdlAtom& atom : clause.body) {
        if (IsIdb(atom.predicate) &&
            atom.predicate != clause.head.predicate) {
          idb_deps_[clause.head.predicate].push_back(atom.predicate);
        }
      }
    }
    for (std::vector<int>& d : idb_deps_) {
      std::sort(d.begin(), d.end());
      d.erase(std::unique(d.begin(), d.end()), d.end());
    }
    idb_deps_valid_ = true;
  }
  return idb_deps_;
}

namespace {

// True iff `atom`'s arguments are pairwise distinct variables.
bool DistinctVariables(const NdlAtom& atom) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (atom.args[i].is_constant) return false;
    for (size_t j = 0; j < i; ++j) {
      if (atom.args[j].value == atom.args[i].value) return false;
    }
  }
  return true;
}

// `rename`'s body atom with the head's variables replaced by `atom`'s
// arguments: the atom `atom` (over the rename's head predicate) reads.
NdlAtom ThroughRename(const NdlClause& rename, const NdlAtom& atom) {
  const NdlAtom& source = rename.body[0];
  NdlAtom out{source.predicate, {}};
  out.args.reserve(source.args.size());
  for (const Term& t : source.args) {
    size_t i = 0;
    while (rename.head.args[i].value != t.value) ++i;
    out.args.push_back(atom.args[i]);
  }
  return out;
}

}  // namespace

const RenameAnalysis& NdlProgram::Renames() const {
  const int n = num_predicates();
  if (renames_valid_ && static_cast<int>(renames_.root.size()) == n) {
    return renames_;
  }
  if (clauses_for_.size() != static_cast<size_t>(n)) {
    clause_index_valid_ = false;  // Predicates were added since it was built.
  }
  BuildClauseIndex();
  // Candidates: the single clause of a non-goal IDB predicate that copies
  // one regular atom with distinct variables into a permutation of them.
  std::vector<int> rename_clause(n, -1);
  for (int p = 0; p < n; ++p) {
    if (!IsIdb(p) || p == goal_ || clauses_for_[p].size() != 1) continue;
    const NdlClause& clause = clauses_[clauses_for_[p][0]];
    if (clause.body.size() != 1) continue;
    const NdlAtom& body = clause.body[0];
    const PredicateKind kind = predicates_[body.predicate].kind;
    if (kind == PredicateKind::kEquality || kind == PredicateKind::kAdom ||
        body.predicate == p || body.args.size() != clause.head.args.size() ||
        !DistinctVariables(body) || !DistinctVariables(clause.head)) {
      continue;
    }
    bool permutation = true;
    for (const Term& t : clause.head.args) {
      bool found = false;
      for (const Term& b : body.args) found = found || b.value == t.value;
      permutation = permutation && found;
    }
    if (permutation) rename_clause[p] = clauses_for_[p][0];
  }
  // Roots: follow each chain of candidates to its first non-candidate.  A
  // chain that closes a cycle (a recursive program) has no root, so none of
  // its members is a rename.
  renames_.root.assign(n, -1);
  std::vector<char> state(n, 0);  // 0 unvisited, 1 on the walk, 2 resolved.
  std::vector<int> path;
  for (int p = 0; p < n; ++p) {
    if (rename_clause[p] < 0 || state[p] != 0) continue;
    path.clear();
    int q = p;
    while (rename_clause[q] >= 0 && state[q] == 0) {
      state[q] = 1;
      path.push_back(q);
      q = clauses_[rename_clause[q]].body[0].predicate;
    }
    int root = -1;
    if (rename_clause[q] < 0) {
      root = q;
    } else if (state[q] == 2) {
      root = renames_.root[q];
    }
    for (int member : path) {
      renames_.root[member] = root;
      state[member] = 2;
    }
  }
  renames_.resolved.clear();
  renames_.resolved_slot.assign(clauses_.size(), -1);
  for (size_t ci = 0; ci < clauses_.size(); ++ci) {
    const std::vector<NdlAtom>& body = clauses_[ci].body;
    if (std::none_of(body.begin(), body.end(), [&](const NdlAtom& atom) {
          return renames_.root[atom.predicate] >= 0;
        })) {
      continue;
    }
    NdlClause clause = clauses_[ci];
    for (NdlAtom& atom : clause.body) {
      while (renames_.root[atom.predicate] >= 0) {
        atom = ThroughRename(
            clauses_[clauses_for_[atom.predicate][0]], atom);
      }
    }
    renames_.resolved_slot[ci] = static_cast<int>(renames_.resolved.size());
    renames_.resolved.push_back(std::move(clause));
  }
  renames_valid_ = true;
  return renames_;
}

std::vector<std::vector<int>> NdlProgram::TopologicalLevels() const {
  const std::vector<int>& order = CachedTopologicalOrder();
  std::vector<int> level(num_predicates(), 0);
  int max_level = -1;
  std::vector<std::vector<int>> levels;
  for (int p : order) {
    int mine = 0;
    for (int ci : ClausesFor(p)) {
      for (const NdlAtom& atom : clauses_[ci].body) {
        if (IsIdb(atom.predicate) && atom.predicate != p) {
          mine = std::max(mine, level[atom.predicate] + 1);
        }
      }
    }
    level[p] = mine;
    while (max_level < mine) {
      levels.emplace_back();
      ++max_level;
    }
    levels[mine].push_back(p);
  }
  return levels;
}

int NdlProgram::Depth() const {
  if (goal_ < 0) return 0;
  std::vector<std::vector<int>> dep = DependenceGraph();
  std::vector<int> depth(num_predicates(), -1);
  std::function<int(int)> dfs = [&](int p) -> int {
    if (depth[p] >= 0) return depth[p];
    depth[p] = 0;  // EDB predicates and leaves.
    int best = 0;
    for (int q : dep[p]) best = std::max(best, 1 + dfs(q));
    depth[p] = best;
    return best;
  };
  return dfs(goal_);
}

bool NdlProgram::IsLinear() const {
  for (const NdlClause& clause : clauses_) {
    int idb_atoms = 0;
    for (const NdlAtom& atom : clause.body) {
      if (IsIdb(atom.predicate)) ++idb_atoms;
    }
    if (idb_atoms > 1) return false;
  }
  return true;
}

bool NdlProgram::IsSkinny() const {
  for (const NdlClause& clause : clauses_) {
    if (clause.body.size() > 2) return false;
  }
  return true;
}

int NdlProgram::MaxEdbAtomsPerClause() const {
  int best = 0;
  for (const NdlClause& clause : clauses_) {
    int edb = 0;
    for (const NdlAtom& atom : clause.body) {
      if (!IsIdb(atom.predicate)) ++edb;
    }
    best = std::max(best, edb);
  }
  return best;
}

int NdlProgram::Width() const {
  int width = 0;
  for (const NdlClause& clause : clauses_) {
    std::set<int> parameter_vars;
    std::set<int> all_vars;
    auto scan = [&](const NdlAtom& atom) {
      const std::vector<bool>& params =
          predicates_[atom.predicate].parameter_positions;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (atom.args[i].is_constant) continue;
        all_vars.insert(atom.args[i].value);
        if (i < params.size() && params[i]) {
          parameter_vars.insert(atom.args[i].value);
        }
      }
    };
    scan(clause.head);
    for (const NdlAtom& atom : clause.body) scan(atom);
    int non_params = 0;
    for (int v : all_vars) {
      if (parameter_vars.count(v) == 0) ++non_params;
    }
    width = std::max(width, non_params);
  }
  return width;
}

long NdlProgram::SizeInSymbols() const {
  long size = 0;
  for (const NdlClause& clause : clauses_) {
    size += 1 + static_cast<long>(clause.head.args.size());
    for (const NdlAtom& atom : clause.body) {
      size += 1 + static_cast<long>(atom.args.size());
    }
  }
  return size;
}

std::string NdlProgram::AtomToString(const NdlAtom& atom) const {
  std::string out = predicates_[atom.predicate].name + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    if (atom.args[i].is_constant) {
      out += vocabulary_->IndividualName(atom.args[i].value);
    } else {
      out += "v" + std::to_string(atom.args[i].value);
    }
  }
  out += ")";
  return out;
}

std::string NdlProgram::ToString() const {
  std::string out;
  if (goal_ >= 0) {
    out += "goal: " + predicates_[goal_].name + "\n";
  }
  for (const NdlClause& clause : clauses_) {
    out += AtomToString(clause.head) + " <- ";
    for (size_t i = 0; i < clause.body.size(); ++i) {
      if (i > 0) out += " & ";
      out += AtomToString(clause.body[i]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace owlqr
