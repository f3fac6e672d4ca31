#include "engine/plan_cache.h"

#include <algorithm>
#include <numeric>

namespace owlqr {

PreparedQuery::PreparedQuery(NdlProgram program, RewriterKind kind,
                             RewriteDiagnostics diag, std::string cache_key)
    : program_(std::move(program)),
      kind_(kind),
      diag_(std::move(diag)),
      cache_key_(std::move(cache_key)),
      hints_(static_cast<size_t>(program_.num_clauses()),
             static_cast<size_t>(program_.num_predicates())) {
  // Force the program's lazy analyses now, single-threaded: executions share
  // this program const and must never trigger a first (mutating) compute.
  if (program_.num_predicates() > 0) program_.ClausesFor(0);
  program_.CachedTopologicalOrder();
  program_.IdbDependencies();
}

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t* h, uint64_t v) {
  // Byte-wise FNV-1a over the 8 bytes of `v`.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= kFnvPrime;
  }
}

void FnvMixConcept(uint64_t* h, const BasicConcept& c) {
  FnvMix(h, static_cast<uint64_t>(c.kind));
  FnvMix(h, static_cast<uint64_t>(c.id));
}

}  // namespace

uint64_t FingerprintTBox(const TBox& tbox) {
  uint64_t h = kFnvBasis;
  FnvMix(&h, tbox.concept_inclusions().size());
  for (const ConceptInclusion& ci : tbox.concept_inclusions()) {
    FnvMixConcept(&h, ci.lhs);
    FnvMixConcept(&h, ci.rhs);
  }
  FnvMix(&h, tbox.role_inclusions().size());
  for (const RoleInclusion& ri : tbox.role_inclusions()) {
    FnvMix(&h, static_cast<uint64_t>(ri.lhs));
    FnvMix(&h, static_cast<uint64_t>(ri.rhs));
  }
  FnvMix(&h, tbox.reflexive_roles().size());
  for (RoleId r : tbox.reflexive_roles()) {
    FnvMix(&h, static_cast<uint64_t>(r));
  }
  FnvMix(&h, tbox.concept_disjointness().size());
  for (const ConceptDisjointness& cd : tbox.concept_disjointness()) {
    FnvMixConcept(&h, cd.lhs);
    FnvMixConcept(&h, cd.rhs);
  }
  FnvMix(&h, tbox.role_disjointness().size());
  for (const RoleDisjointness& rd : tbox.role_disjointness()) {
    FnvMix(&h, static_cast<uint64_t>(rd.lhs));
    FnvMix(&h, static_cast<uint64_t>(rd.rhs));
  }
  FnvMix(&h, tbox.irreflexive_roles().size());
  for (RoleId r : tbox.irreflexive_roles()) {
    FnvMix(&h, static_cast<uint64_t>(r));
  }
  return h;
}

std::string CanonicalCqKey(const ConjunctiveQuery& query) {
  const std::vector<CqAtom>& atoms = query.atoms();
  std::vector<int> order(atoms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (atoms[a].kind != atoms[b].kind) return atoms[a].kind < atoms[b].kind;
    return atoms[a].symbol < atoms[b].symbol;
  });

  // Rename variables by first occurrence in the sorted atom list; variables
  // occurring only in the answer tuple (no atoms) get numbered after.
  std::vector<int> rename(query.num_vars(), -1);
  int next = 0;
  auto canon = [&](int var) {
    if (rename[var] < 0) rename[var] = next++;
    return rename[var];
  };

  std::string key;
  key.reserve(atoms.size() * 12);
  for (int i : order) {
    const CqAtom& atom = atoms[i];
    if (atom.kind == CqAtom::Kind::kUnary) {
      key += "U" + std::to_string(atom.symbol) + "(" +
             std::to_string(canon(atom.arg0)) + ")";
    } else {
      key += "B" + std::to_string(atom.symbol) + "(" +
             std::to_string(canon(atom.arg0)) + "," +
             std::to_string(canon(atom.arg1)) + ")";
    }
  }
  key += "|ans:";
  for (int x : query.answer_vars()) {
    key += std::to_string(canon(x)) + ",";
  }
  return key;
}

std::string MakePlanCacheKey(uint64_t tbox_fingerprint,
                             const ConjunctiveQuery& query,
                             std::optional<RewriterKind> kind,
                             const RewriteOptions& options) {
  std::string key = std::to_string(tbox_fingerprint);
  key += kind.has_value() ? "|k" + std::to_string(static_cast<int>(*kind))
                          : "|kauto";
  key += options.arbitrary_instances ? "|*1" : "|*0";
  key += "|cap" + std::to_string(options.baseline.max_clauses);
  key += "|";
  key += CanonicalCqKey(query);
  return key;
}

}  // namespace owlqr
