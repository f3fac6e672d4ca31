#ifndef OWLQR_ENGINE_PLAN_CACHE_H_
#define OWLQR_ENGINE_PLAN_CACHE_H_

// The prepared-query plan cache of the engine facade.
//
// A PreparedQuery bundles everything the rewrite/compile pipeline produces
// for one OMQ so repeated executions skip it entirely: the NDL program with
// its analyses (clause index, topological order, IDB dependency edges)
// pre-warmed, the rewrite diagnostics, and the shared join-order hint slots
// the first execution fills in.  Prepared queries are immutable after
// construction (the hint slots are write-once via once_flag) and handed out
// as shared_ptr, so a query evicted from the cache stays valid for callers
// still holding it.
//
// The PlanCache (an LruCache, engine/lru_cache.h) is keyed by
//   (TBox fingerprint, rewriter kind or auto, rewrite options, canonical CQ
//    form)
// serialized into one string; see MakePlanCacheKey.  The TBox fingerprint
// makes plans from different ontologies (or an edited ontology) miss instead
// of aliasing; the canonical CQ form makes alpha-renamed copies of the same
// query hit.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/rewriters.h"
#include "cq/cq.h"
#include "engine/lru_cache.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "ontology/tbox.h"

namespace owlqr {

// One compiled OMQ: the chosen rewriter's NDL program plus everything an
// execution needs that does not depend on the data snapshot.
class PreparedQuery {
 public:
  // Takes ownership of `program`; pre-warms its lazy analyses so concurrent
  // executions only ever read them.
  PreparedQuery(NdlProgram program, RewriterKind kind,
                RewriteDiagnostics diag, std::string cache_key);

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  const NdlProgram& program() const { return program_; }
  RewriterKind kind() const { return kind_; }
  const RewriteDiagnostics& diag() const { return diag_; }
  const std::string& cache_key() const { return cache_key_; }

  // Shared plan hints (see JoinOrderHints): logically part of the plan.
  // The first execution of each clause fills its join order; every clean
  // run records its IDB relation sizes for the next one.
  JoinOrderHints* join_order_hints() const { return &hints_; }

 private:
  NdlProgram program_;
  RewriterKind kind_;
  RewriteDiagnostics diag_;
  std::string cache_key_;
  mutable JoinOrderHints hints_;
};

// FNV-1a fingerprint of every axiom of a (normalized) TBox.  Two TBoxes
// with the same axioms over the same vocabulary ids collide by design —
// their rewritings are interchangeable; any edit (added/removed/reordered
// axiom) changes the fingerprint.
uint64_t FingerprintTBox(const TBox& tbox);

// A canonical serialization of `query`: atoms stable-sorted by
// (kind, symbol), variables renamed by first occurrence in the sorted atom
// list, answer variables appended in answer order.  Alpha-renamed copies of
// a query map to the same key; distinct queries never collide (the
// serialization is injective on the renamed form).  Queries that differ only
// by reordering same-symbol atoms may map to different keys — that is a
// spurious cache miss, never a wrong hit.
std::string CanonicalCqKey(const ConjunctiveQuery& query);

// The full cache key: fingerprint, kind, the option bits that change the
// produced program, and the canonical CQ form.  A null `kind` is the auto
// key: the plan the cost model chose, whatever kind that was.
std::string MakePlanCacheKey(uint64_t tbox_fingerprint,
                             const ConjunctiveQuery& query,
                             std::optional<RewriterKind> kind,
                             const RewriteOptions& options);

// The thread-safe LRU cache of prepared queries, bounded by entry count
// alone.  Get's `count_miss` is false for the double-checked lookup
// under the compile lock, so one logical prepare never counts two misses.
using PlanCache = LruCache<std::shared_ptr<const PreparedQuery>>;

}  // namespace owlqr

#endif  // OWLQR_ENGINE_PLAN_CACHE_H_
