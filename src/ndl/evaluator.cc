#include "ndl/evaluator.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {

namespace {

// How often (in join emissions or index-build rows) the wall-clock
// deadline is polled.  The scan loops test
// `count & (interval - 1)` (hence power of two); the join emission path
// uses it as the ceiling of JoinContext::flush_countdown.
constexpr long kDeadlineCheckInterval = kRelationAbortInterval;

}  // namespace

Evaluator::Evaluator(const NdlProgram& program,
                     std::shared_ptr<const DataSnapshot> snapshot)
    : program_(program), snapshot_(std::move(snapshot)) {
  OWLQR_CHECK_MSG(snapshot_ != nullptr, "null DataSnapshot");
  Init();
}

Evaluator::~Evaluator() = default;

void Evaluator::Init() {
  OWLQR_CHECK_MSG(program_.IsNonrecursive(), "program must be nonrecursive");
  const int n = program_.num_predicates();
  preds_.reserve(n);
  snapshot_rel_.assign(n, nullptr);
  for (int p = 0; p < n; ++p) {
    const PredicateInfo& info = program_.predicate(p);
    preds_.push_back(std::make_unique<PredicateState>());
    Rows& rows = preds_.back()->rows;
    rows.arity = info.arity;
    // Resolve each EDB predicate to its frozen snapshot relation once, so
    // the hot paths do a vector load instead of a hash lookup.
    switch (info.kind) {
      case PredicateKind::kConceptEdb:
        snapshot_rel_[p] = snapshot_->Concept(info.external_id);
        break;
      case PredicateKind::kRoleEdb:
        snapshot_rel_[p] = snapshot_->Role(info.external_id);
        break;
      case PredicateKind::kTableEdb:
        snapshot_rel_[p] = snapshot_->Table(info.external_id);
        break;
      case PredicateKind::kAdom:
        snapshot_rel_[p] = &snapshot_->adom();
        break;
      default:
        continue;  // IDB and equality predicates.
    }
    // The snapshot holds no facts for this EDB predicate: it reads the
    // empty local relation, complete by construction.  Set before any
    // worker exists, so parallel readers need no synchronisation.
    if (snapshot_rel_[p] == nullptr) rows.materialized = true;
  }
}

void Evaluator::StartClock(const ExecuteRequest& request) {
  limits_ = request.limits;
  cancel_ = request.cancel;
  has_deadline_ = limits_.deadline_ms > 0 &&
                  DeadlineAfter(limits_.deadline_ms, &deadline_);
  // A request cancelled before evaluation starts does no work at all: this
  // poll trips aborted_ before the first clause runs.
  AbortRequested();
}

bool Evaluator::DeadlineExpired() {
  if (!has_deadline_) return false;
  if (std::chrono::steady_clock::now() < deadline_) return false;
  deadline_exceeded_.store(true, std::memory_order_relaxed);
  aborted_.store(true, std::memory_order_relaxed);
  return true;
}

bool Evaluator::AbortRequested() {
  // A previous abort (this worker's or another's) short-circuits the
  // (possibly clock-reading) polls below.
  if (aborted_.load(std::memory_order_relaxed)) return true;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    cancelled_.store(true, std::memory_order_relaxed);
    aborted_.store(true, std::memory_order_relaxed);
    return true;
  }
  return DeadlineExpired();
}

bool Evaluator::ChargeMemory(size_t bytes) {
  if (account_ == nullptr || bytes == 0) return true;
  if (!account_->Charge(bytes)) {
    // The bytes stay recorded (they are allocated either way; see
    // util/budget.h); only the verdict aborts the evaluation.
    memory_exceeded_.store(true, std::memory_order_relaxed);
    aborted_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool Evaluator::ChargeRowsDelta(const Rows& rows, size_t* charged_bytes) {
  bool ok = true;
  if (rows.AtRowCeiling()) {
    row_ceiling_.store(true, std::memory_order_relaxed);
    aborted_.store(true, std::memory_order_relaxed);
    ok = false;
  }
  size_t now = rows.MemoryBytes();
  if (now > *charged_bytes) {
    if (!ChargeMemory(now - *charged_bytes)) ok = false;
    // Advance even on a failed charge: the bytes were recorded, so a later
    // delta must not double-charge them.
    *charged_bytes = now;
  }
  return ok;
}

const Rows& Evaluator::EdbRows(int predicate) {
  const EdbRelation* rel = snapshot_rel_[predicate];
  return rel != nullptr ? rel->rows() : preds_[predicate]->rows;
}

const Rows& Evaluator::RowsFor(int predicate) {
  return program_.IsIdb(predicate) ? preds_[predicate]->rows
                                   : EdbRows(predicate);
}

const HashIndex& Evaluator::GetIndex(int predicate, unsigned mask) {
  // Snapshot-backed EDB relations use the snapshot's shared index cache:
  // built once per (relation, mask) across ALL executions.  The build (and
  // the wait for another execution's build) honours this request's abort
  // poll; an aborted build is discarded by the slot, never published, so a
  // partial index cannot poison later requests.  Only a build this request
  // triggered counts toward its index_builds stat, and shared indexes are
  // engine-lifetime assets — they are not charged to the execution's
  // memory account (so a quiesced engine accounts to zero).
  if (snapshot_rel_[predicate] != nullptr) {
    bool built_now = false;
    const HashIndex* index = snapshot_rel_[predicate]->Index(
        mask,
        [](void* arg) {
          return static_cast<Evaluator*>(arg)->AbortRequested();
        },
        this, &built_now);
    if (built_now) index_builds_.fetch_add(1, std::memory_order_relaxed);
    if (index == nullptr) {
      // The abort poll fired (aborted_ is set): hand back an empty index;
      // the caller re-checks aborted_ before probing and unwinds.
      static const HashIndex kEmptyIndex;
      return kEmptyIndex;
    }
    return *index;
  }
  PredicateState& state = *preds_[predicate];
  IndexSlot* slot;
  {
    std::lock_guard<std::mutex> lock(state.slot_mutex);
    std::unique_ptr<IndexSlot>& entry = state.slots[mask];
    if (entry == nullptr) entry = std::make_unique<IndexSlot>();
    slot = entry.get();
  }
  std::call_once(slot->built, [this, predicate, mask, slot] {
    OWLQR_NAMED_SPAN(span, "evaluate/index-build");
    const bool metrics = OWLQR_METRICS_ENABLED();
    const auto build_start = metrics ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point();
    const Rows& rows = RowsFor(predicate);
    // A single huge index build must honour the deadline and cancel token
    // too; an aborted build leaves a partial index, which is fine because
    // aborted_ stops every consumer before it trusts the results.
    BuildHashIndex(
        rows, mask, &slot->index,
        [](void* arg) {
          return static_cast<Evaluator*>(arg)->AbortRequested();
        },
        this);
    index_builds_.fetch_add(1, std::memory_order_relaxed);
    // Locally built probe indexes live in execution-owned arenas; charge
    // them like any other allocation (they release with the account).
    ChargeMemory(slot->index.MemoryBytes());
    span.Attr("predicate", predicate);
    span.Attr("mask", static_cast<long>(mask));
    span.Attr("rows", static_cast<long>(rows.size()));
    if (metrics) {
      // Per-(predicate, mask) build time folded into one min/max/sum timer.
      double build_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - build_start)
                            .count();
      OWLQR_RECORD("evaluator/index_build_ms", build_ms);
    }
  });
  return slot->index;
}

void Evaluator::Materialize(int predicate, JoinContext* ctx) {
  Rows& rows = preds_[predicate]->rows;
  if (rows.materialized || !program_.IsIdb(predicate)) return;
  // Materialise dependencies first (the program is acyclic).
  for (int ci : program_.ClausesFor(predicate)) {
    for (const NdlAtom& atom : program_.clause(ci).body) {
      if (program_.IsIdb(atom.predicate) && atom.predicate != predicate) {
        Materialize(atom.predicate, ctx);
      }
    }
  }
  for (int ci : program_.ClausesFor(predicate)) {
    EvaluateClause(ci, ctx, &rows);
  }
  rows.materialized = true;
}

std::vector<int> Evaluator::ComputeJoinOrder(const NdlClause& clause) {
  // Static greedy atom order: simulate which variables become bound.
  std::vector<bool> used(clause.body.size(), false);
  int num_vars = 0;
  for (const NdlAtom& atom : clause.body) {
    for (const Term& t : atom.args) {
      if (!t.is_constant) num_vars = std::max(num_vars, t.value + 1);
    }
  }
  std::vector<bool> bound(num_vars, false);
  std::vector<int> order;
  order.reserve(clause.body.size());
  ExtendJoinOrderGreedy(clause, &order, &used, &bound);
  return order;
}

void Evaluator::ExtendJoinOrderGreedy(const NdlClause& clause,
                                      std::vector<int>* order,
                                      std::vector<bool>* used,
                                      std::vector<bool>* bound) {
  auto var_bound = [bound](const Term& t) {
    return t.is_constant ||
           (t.value < static_cast<int>(bound->size()) && (*bound)[t.value]);
  };
  while (order->size() < clause.body.size()) {
    int best = -1;
    double best_score = 0;
    for (size_t i = 0; i < clause.body.size(); ++i) {
      if ((*used)[i]) continue;
      const NdlAtom& atom = clause.body[i];
      const PredicateKind kind = program_.predicate(atom.predicate).kind;
      int bound_args = 0;
      for (const Term& t : atom.args) {
        if (var_bound(t)) ++bound_args;
      }
      bool all_bound = bound_args == static_cast<int>(atom.args.size());
      double score;
      if (kind == PredicateKind::kEquality) {
        score = bound_args >= 1 ? 1e9 : -2e9;
      } else if (kind == PredicateKind::kAdom) {
        score = all_bound ? 1e8 : -1e9;
      } else {
        size_t size = RowsFor(atom.predicate).size();
        score = 1e6 * bound_args + (all_bound ? 5e8 : 0) -
                static_cast<double>(size) * 1e-3;
      }
      if (best < 0 || score > best_score) {
        best = static_cast<int>(i);
        best_score = score;
      }
    }
    (*used)[best] = true;
    order->push_back(best);
    for (const Term& t : clause.body[best].args) {
      if (!t.is_constant) (*bound)[t.value] = true;
    }
  }
}

Evaluator::ClausePlan Evaluator::BuildPlan(int ci) {
  const NdlClause& clause = program_.clause(ci);

  // The join order: from the shared hints when installed — the first
  // execution to plan this clause records the greedy order under the
  // slot's once_flag, every later one reuses it without re-scoring (the
  // scores are data-dependent, so a reused order may be stale-suboptimal
  // under a newer snapshot, but any order yields the same answers) — else
  // computed fresh for this evaluation alone.
  std::vector<int> local_order;
  const std::vector<int>* order_ptr;
  if (hints_ != nullptr) {
    OWLQR_CHECK_MSG(ci < static_cast<int>(hints_->slots.size()),
                    "join-order hints sized for a different program");
    JoinOrderHints::Slot& slot = hints_->slots[ci];
    std::call_once(slot.once, [this, &clause, &slot] {
      slot.order = ComputeJoinOrder(clause);
    });
    order_ptr = &slot.order;
  } else {
    local_order = ComputeJoinOrder(clause);
    order_ptr = &local_order;
  }
  return CompilePlan(clause, *order_ptr, nullptr);
}

Evaluator::ClausePlan Evaluator::BuildDeltaPlan(
    int ci, int driven_atom, const std::vector<Rows>& delta_rows) {
  const NdlClause& clause = program_.clause(ci);
  std::vector<bool> used(clause.body.size(), false);
  int num_vars = 0;
  for (const NdlAtom& atom : clause.body) {
    for (const Term& t : atom.args) {
      if (!t.is_constant) num_vars = std::max(num_vars, t.value + 1);
    }
  }
  std::vector<bool> bound(num_vars, false);
  std::vector<int> order;
  order.reserve(clause.body.size());
  // The driven atom scans first (its delta is small, so it is the cheapest
  // driver regardless of what the greedy scores would say), then the rest
  // follow greedily with its variables already bound.
  order.push_back(driven_atom);
  used[driven_atom] = true;
  for (const Term& t : clause.body[driven_atom].args) {
    if (!t.is_constant) bound[t.value] = true;
  }
  ExtendJoinOrderGreedy(clause, &order, &used, &bound);
  return CompilePlan(clause, order,
                     &delta_rows[clause.body[driven_atom].predicate]);
}

Evaluator::ClausePlan Evaluator::CompilePlan(const NdlClause& clause,
                                             const std::vector<int>& order,
                                             const Rows* driven_rows) {
  // Replay the bound-variable simulation over the chosen order and compile
  // the per-step codes.  A term is bound at runtime iff it is bound here:
  // constants always, and variables exactly when an earlier atom of the
  // order binds them.
  std::vector<bool> bound;
  auto var_bound = [&bound](const Term& t) {
    return t.is_constant ||
           (t.value < static_cast<int>(bound.size()) && bound[t.value]);
  };
  int num_vars = 0;
  for (const NdlAtom& atom : clause.body) {
    for (const Term& t : atom.args) {
      if (!t.is_constant) num_vars = std::max(num_vars, t.value + 1);
    }
  }
  for (const Term& t : clause.head.args) {
    if (!t.is_constant) num_vars = std::max(num_vars, t.value + 1);
  }
  bound.assign(num_vars, false);

  // The inner loop's term code: a binding slot for variables, -(value + 1)
  // for constants (individual ids are non-negative, so the ranges are
  // disjoint).
  auto code_of = [](const Term& t) {
    if (t.is_constant) {
      OWLQR_CHECK_MSG(t.value >= 0, "negative constant in clause");
      return -t.value - 1;
    }
    return t.value;
  };

  ClausePlan plan;
  plan.clause = &clause;
  plan.num_vars = num_vars;
  plan.steps.reserve(clause.body.size());
  for (size_t step_index = 0; step_index < order.size(); ++step_index) {
    const int atom_index = order[step_index];
    const NdlAtom& atom = clause.body[atom_index];
    AtomStep& atom_step = plan.steps.emplace_back();
    atom_step.atom = &atom;
    const bool driven = driven_rows != nullptr && step_index == 0;
    // The delta driver is always scanned as a regular relation, even when
    // the atom is an adom/equality built-in: its synthetic delta rows
    // substitute for the built-in's procedural evaluation.
    atom_step.kind =
        driven ? PredicateKind::kIdb : program_.predicate(atom.predicate).kind;
    auto binds_var = [&atom_step](int v) {
      for (const auto& [pos, var] : atom_step.bind) {
        if (var == v) return true;
      }
      return false;
    };
    if (driven) {
      atom_step.rows = driven_rows;
      // mask stays 0: a full scan of the (small) delta, with constants and
      // repeated variables demoted to per-row checks.
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        if (t.is_constant) {
          atom_step.checks.emplace_back(static_cast<int>(i), code_of(t));
        } else if (!binds_var(t.value)) {
          atom_step.bind.emplace_back(static_cast<int>(i), t.value);
        } else {
          atom_step.checks.emplace_back(static_cast<int>(i), code_of(t));
        }
      }
    } else if (atom_step.kind != PredicateKind::kEquality &&
               atom_step.kind != PredicateKind::kAdom) {
      atom_step.rows = &RowsFor(atom.predicate);
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        if (var_bound(t)) {
          atom_step.mask |= (1u << i);
          atom_step.key_code.push_back(code_of(t));
          // Indexed probes match by hash only; verify the value.
          atom_step.checks.emplace_back(static_cast<int>(i), code_of(t));
        } else if (!binds_var(t.value)) {
          // First occurrence of an open variable in this atom: bind it.
          atom_step.bind.emplace_back(static_cast<int>(i), t.value);
        } else {
          // Repeated open variable: check against the binding just made.
          atom_step.checks.emplace_back(static_cast<int>(i), code_of(t));
        }
      }
    }
    for (const Term& t : atom.args) {
      if (!t.is_constant) bound[t.value] = true;
    }
  }
  // Compile the head recipe and check safety here, once per clause, instead
  // of branching on Terms and re-validating on every emission: a variable
  // is bound at emission depth exactly when some step binds it, which is
  // what `bound` now records.
  plan.head_code.reserve(clause.head.args.size());
  for (const Term& t : clause.head.args) {
    OWLQR_CHECK_MSG(t.is_constant || bound[t.value], "unsafe clause head");
    plan.head_code.push_back(code_of(t));
  }
  if (limits_.batch_rows > 0) CompileBatchPlan(&plan);
  return plan;
}

void Evaluator::CompileBatchPlan(ClausePlan* plan) {
  const size_t k = plan->steps.size();
  if (k == 0) return;  // Empty body: the scalar path emits the one tuple.
  const int nv = plan->num_vars;

  // Pass 1 — static boundness before each step (bound[s][v]: some step < s
  // binds v).  Mirrors the replay in CompilePlan exactly, so a variable is
  // bound at runtime iff it is bound here.
  std::vector<std::vector<char>> bound(k + 1, std::vector<char>(nv, 0));
  for (size_t s = 0; s < k; ++s) {
    bound[s + 1] = bound[s];
    for (const Term& t : plan->steps[s].atom->args) {
      if (!t.is_constant) bound[s + 1][t.value] = 1;
    }
  }
  auto is_bound = [&bound](size_t s, const Term& t) {
    return t.is_constant || bound[s][t.value] != 0;
  };

  // Pass 2 — liveness, backwards: a step's output carries only the
  // variables some later step (or the head) still reads, so batches stay
  // narrow on long chain joins.  live[s] (ascending var ids) is the column
  // layout of step s's output batch — and of step s+1's input batch.
  std::vector<char> needed(nv, 0);
  for (int code : plan->head_code) {
    if (code >= 0) needed[code] = 1;
  }
  std::vector<std::vector<int>> live(k);
  for (size_t s = k; s-- > 0;) {
    for (int v = 0; v < nv; ++v) {
      if (needed[v] && bound[s + 1][v]) live[s].push_back(v);
    }
    const AtomStep& step = plan->steps[s];
    if (step.rows != nullptr) {
      for (int code : step.key_code) {
        if (code >= 0) needed[code] = 1;
      }
      // A check against a variable this very atom binds (a repeated open
      // variable) reads the candidate tuple, not the input batch.
      for (const auto& [pos, code] : step.checks) {
        (void)pos;
        if (code >= 0 && bound[s][code]) needed[code] = 1;
      }
    } else {
      for (const Term& t : step.atom->args) {
        if (!t.is_constant && bound[s][t.value]) needed[t.value] = 1;
      }
    }
  }

  auto slot_of = [](const std::vector<int>& cols, int v) {
    return static_cast<int>(std::lower_bound(cols.begin(), cols.end(), v) -
                            cols.begin());
  };

  // Pass 3 — per-step recipes against the narrowed column layouts.
  static const std::vector<int> kNoCols;
  plan->batch.resize(k);
  for (size_t s = 0; s < k; ++s) {
    const AtomStep& step = plan->steps[s];
    BatchStep& bs = plan->batch[s];
    const std::vector<int>& in = s == 0 ? kNoCols : live[s - 1];
    const std::vector<int>& outv = live[s];
    // Scalar term code -> batch code: constants keep their encoding,
    // variables become input-column indexes.
    auto bcode = [&](int code) { return code < 0 ? code : slot_of(in, code); };
    auto bterm = [&](const Term& t) {
      return t.is_constant ? -t.value - 1 : slot_of(in, t.value);
    };
    auto pass_through = [&](int v) {
      return BatchOut{BatchOut::kFromSlot, slot_of(in, v)};
    };

    if (step.rows != nullptr) {
      bs.op = step.mask == 0 ? BatchOp::kScan : BatchOp::kProbe;
      bs.key_code.reserve(step.key_code.size());
      for (int code : step.key_code) bs.key_code.push_back(bcode(code));
      bs.key_len = static_cast<int>(bs.key_code.size());
      bs.checks.reserve(step.checks.size());
      for (const auto& [pos, code] : step.checks) {
        BatchCheck c;
        c.pos = pos;
        if (code < 0) {
          c.kind = BatchCheck::kConst;
          c.arg = -code - 1;
        } else if (bound[s][code]) {
          c.kind = BatchCheck::kSlot;
          c.arg = slot_of(in, code);
        } else {
          c.kind = BatchCheck::kTuplePos;
          for (const auto& [bpos, var] : step.bind) {
            if (var == code) {
              c.arg = bpos;
              break;
            }
          }
        }
        bs.checks.push_back(c);
      }
      bs.out.reserve(outv.size());
      for (int v : outv) {
        int bind_pos = -1;
        for (const auto& [bpos, var] : step.bind) {
          if (var == v) {
            bind_pos = bpos;
            break;
          }
        }
        bs.out.push_back(bind_pos >= 0
                             ? BatchOut{BatchOut::kFromTuple, bind_pos}
                             : pass_through(v));
      }
      bs.verbatim =
          static_cast<int>(bs.out.size()) == step.rows->arity;
      for (size_t j = 0; j < bs.out.size(); ++j) {
        if (bs.out[j].kind != BatchOut::kFromTuple ||
            bs.out[j].arg != static_cast<int>(j)) {
          bs.verbatim = false;
        }
      }
    } else if (step.kind == PredicateKind::kEquality) {
      const Term& a = step.atom->args[0];
      const Term& b = step.atom->args[1];
      const bool ba = is_bound(s, a);
      const bool bb = is_bound(s, b);
      if (ba && bb) {
        bs.op = BatchOp::kEqFilter;
        bs.code = bterm(a);
        bs.code_b = bterm(b);
        for (int v : outv) bs.out.push_back(pass_through(v));
      } else if (ba || bb) {
        // One side open: binds it to the bound side's value — a 1:1
        // pass-through whose only work is the open variable's column.
        bs.op = BatchOp::kEqBind;
        bs.code = bterm(ba ? a : b);
        const int open = (ba ? b : a).value;
        for (int v : outv) {
          if (v == open) {
            bs.out.push_back(bs.code < 0
                                 ? BatchOut{BatchOut::kConst, -bs.code - 1}
                                 : BatchOut{BatchOut::kFromSlot, bs.code});
          } else {
            bs.out.push_back(pass_through(v));
          }
        }
      } else {
        // Both open (rare): enumerate the active domain, binding both.
        bs.op = BatchOp::kEqExpand;
        for (int v : outv) {
          bs.out.push_back(v == a.value || v == b.value
                               ? BatchOut{BatchOut::kFromTuple, 0}
                               : pass_through(v));
        }
      }
    } else {  // kAdom
      const Term& a = step.atom->args[0];
      if (is_bound(s, a)) {
        bs.op = BatchOp::kAdomFilter;
        bs.code = bterm(a);
        for (int v : outv) bs.out.push_back(pass_through(v));
      } else {
        bs.op = BatchOp::kAdomExpand;
        for (int v : outv) {
          bs.out.push_back(v == a.value ? BatchOut{BatchOut::kFromTuple, 0}
                                        : pass_through(v));
        }
      }
    }
  }
  // Head recipe over the final batch, whose columns are exactly the head
  // variables (liveness was seeded with them).
  plan->head_slot.reserve(plan->head_code.size());
  for (int code : plan->head_code) {
    plan->head_slot.push_back(code < 0 ? code : slot_of(live[k - 1], code));
  }
  plan->head_identity = plan->head_slot.size() == live[k - 1].size();
  for (size_t i = 0; i < plan->head_slot.size(); ++i) {
    if (plan->head_slot[i] != static_cast<int>(i)) plan->head_identity = false;
  }
  plan->batch_compiled = true;
}

void Evaluator::RunJoin(const ClausePlan& plan, JoinContext* ctx,
                        Rows* out) {
  ctx->index.assign(plan.steps.size(), nullptr);
  // Memory-charge baseline: whatever `out` holds now was charged when the
  // code that grew it settled (the invariant every growth path keeps), so
  // this run charges only its own delta — captured before the Reserve
  // below, whose allocation is part of that delta.
  ctx->out = out;
  ctx->charged_bytes = out->MemoryBytes();
  if (!plan.steps.empty() && plan.steps[0].rows != nullptr &&
      plan.steps[0].mask == 0) {
    // A scan-driven clause usually emits on the order of its driver range;
    // hint the dedup table so it skips the doubling cascade (Reserve bounds
    // the hint, so selective clauses cannot over-allocate).
    const size_t driver_rows = plan.steps[0].rows->size();
    if (driver_rows > 0) out->Reserve(out->size() + driver_rows);
  }
  if (plan.batch_compiled) {
    // Vector-at-a-time path: expansion is row-major and in driver order, so
    // the emission sequence — and with it every counter, limit-abort point
    // and truncated answer prefix — is byte-identical to the scalar path's
    // depth-first recursion.
    if (!aborted_.load(std::memory_order_relaxed) &&
        EnsureBatchScratch(plan, ctx)) {
      ctx->levels[0].size = 1;  // One empty binding seeds the root scan.
      JoinBatch(plan, 0, ctx, out);
      ctx->levels[0].size = 0;
    }
    FlushBatchMetrics(ctx);
  } else {
    ctx->binding.assign(plan.num_vars, -1);
    ctx->head_tuple.resize(plan.clause->head.args.size());
    Join(plan, 0, ctx, out);
  }
  // Settle the residual tallies so the evaluator-wide counters see every
  // emission of this run.
  if (ctx->unflushed_emissions != 0 || ctx->unflushed_new != 0) {
    FlushLimits(ctx);
  }
  // Settle the residual arena growth too, keeping the invariant that a
  // fully-run clause leaves its output's MemoryBytes fully charged.
  ChargeRowsDelta(*out, &ctx->charged_bytes);
}

bool Evaluator::EnsureBatchScratch(const ClausePlan& plan, JoinContext* ctx) {
  const size_t cap = static_cast<size_t>(
      std::min<long>(std::max<long>(limits_.batch_rows, 1), 65536));
  const size_t k = plan.steps.size();
  ctx->batch_cap = cap;
  // Never shrink the level list: a retained context runs many plans in a
  // row (one per clause of a task), and keeping the levels keeps their
  // vectors' capacity — after the first few clauses re-setup allocates
  // nothing.  Stale levels beyond k end every run at size 0, so they are
  // inert; their bytes stay counted below.
  if (ctx->levels.size() < k + 1) ctx->levels.resize(k + 1);
  size_t bytes = 0;
  for (size_t s = 0; s <= k; ++s) {
    JoinContext::BatchLevel& lv = ctx->levels[s];
    lv.width = s == 0 ? 0 : static_cast<int>(plan.batch[s - 1].out.size());
    lv.cols.resize(static_cast<size_t>(lv.width) * cap);
    lv.size = 0;
    lv.ext = nullptr;  // Any zero-copy alias belongs to a finished run.
    if (s < k) {
      const BatchStep& bs = plan.batch[s];
      switch (bs.op) {
        case BatchOp::kScan:
        case BatchOp::kProbe:
        case BatchOp::kEqExpand:
        case BatchOp::kAdomExpand:
          lv.sel.resize(cap);
          lv.cand.resize(cap);
          break;
        case BatchOp::kEqFilter:
        case BatchOp::kAdomFilter:
          lv.sel.resize(cap);
          break;
        case BatchOp::kEqBind:
          break;
      }
      if (bs.op == BatchOp::kProbe) {
        lv.keys.resize(static_cast<size_t>(bs.key_len) * cap);
        lv.hashes.resize(cap);
        lv.range_begin.resize(cap);
        lv.range_end.resize(cap);
      }
    }
  }
  for (const JoinContext::BatchLevel& lv : ctx->levels) {
    bytes += lv.cols.capacity() * sizeof(int) +
             (lv.sel.capacity() + lv.cand.capacity()) * sizeof(uint32_t) +
             lv.keys.capacity() * sizeof(int) +
             lv.hashes.capacity() * sizeof(size_t) +
             (lv.range_begin.capacity() + lv.range_end.capacity()) *
                 sizeof(uint32_t);
  }
  if (ctx->head_stage.size() < plan.head_slot.size() * cap) {
    ctx->head_stage.resize(plan.head_slot.size() * cap);
  }
  if (ctx->head_hashes.size() < cap) {
    ctx->head_hashes.resize(cap);
    ctx->new_idx.resize(cap);
  }
  bytes += ctx->head_stage.capacity() * sizeof(int) +
           ctx->head_hashes.capacity() * sizeof(size_t) +
           ctx->new_idx.capacity() * sizeof(uint32_t);
  // Charge the scratch like any other execution-owned allocation; the
  // context's destructor gives the bytes back.  Even a failed charge stays
  // recorded (the memory is allocated either way; see util/budget.h).
  if (account_ != nullptr && bytes != ctx->scratch_charged) {
    ctx->scratch_account = account_;
    bool ok = true;
    if (bytes > ctx->scratch_charged) {
      ok = ChargeMemory(bytes - ctx->scratch_charged);
    } else {
      account_->Release(ctx->scratch_charged - bytes);
    }
    ctx->scratch_charged = bytes;
    return ok;
  }
  return true;
}

bool Evaluator::JoinBatch(const ClausePlan& plan, size_t next,
                          JoinContext* ctx, Rows* out) {
  if (next == plan.steps.size()) return EmitBatch(plan, ctx, out);
  JoinContext::BatchLevel& in = ctx->levels[next];
  const size_t n = in.size;
  if (n == 0) return true;
  const AtomStep& step = plan.steps[next];
  const BatchStep& bs = plan.batch[next];
  JoinContext::BatchLevel& outb = ctx->levels[next + 1];
  const size_t cap = ctx->batch_cap;
  const int in_width = in.width;
  const int out_width = outb.width;
  const int* in_cols = in.data();
  int* out_cols = outb.cols.data();

  auto operand = [&](int code, size_t i) {
    return code >= 0 ? in_cols[i * static_cast<size_t>(in_width) + code]
                     : -code - 1;
  };

  // Candidate tuple source of kFromTuple output recipes: the step's
  // relation rows, or the active domain (arity 1) for the expand built-ins.
  const int* tuple_base = nullptr;
  int tuple_arity = 1;
  if (step.rows != nullptr) {
    tuple_base = step.rows->size() > 0 ? step.rows->row(0) : nullptr;
    tuple_arity = step.rows->arity;
  } else if (bs.op == BatchOp::kEqExpand || bs.op == BatchOp::kAdomExpand) {
    tuple_base = snapshot_->active_domain().data();
  }

  // Gathers the `m` pending (sel, cand) pairs into the output batch, one
  // tight loop per column — the shape the compiler can vectorise.
  uint32_t* sel = in.sel.data();
  uint32_t* cand = in.cand.data();
  auto gather = [&](size_t m) {
    for (size_t oi = 0; oi < bs.out.size(); ++oi) {
      const BatchOut& o = bs.out[oi];
      int* dst = out_cols + oi;
      switch (o.kind) {
        case BatchOut::kFromSlot: {
          const int* src = in_cols + o.arg;
          for (size_t j = 0; j < m; ++j) {
            dst[j * out_width] = src[sel[j] * static_cast<size_t>(in_width)];
          }
          break;
        }
        case BatchOut::kFromTuple: {
          const int* src = tuple_base + o.arg;
          for (size_t j = 0; j < m; ++j) {
            dst[j * out_width] =
                src[cand[j] * static_cast<size_t>(tuple_arity)];
          }
          break;
        }
        case BatchOut::kConst:
          for (size_t j = 0; j < m; ++j) dst[j * out_width] = o.arg;
          break;
      }
    }
    outb.size = m;
  };
  size_t m = 0;
  auto flush = [&]() {
    gather(m);
    ctx->batch_rows_tally += static_cast<long>(m);
    ctx->batch_out_tally += static_cast<long>(m);
    m = 0;
    bool ok = JoinBatch(plan, next + 1, ctx, out);
    outb.size = 0;
    return ok;
  };
  // Cooperative abort poll for long candidate stretches that emit nothing
  // (same cadence as the scalar path's flush interval).
  auto abort_poll = [&]() {
    return (++ctx->batch_scanned & (kDeadlineCheckInterval - 1)) == 0 &&
           AbortRequested();
  };

  switch (bs.op) {
    case BatchOp::kEqBind: {
      // 1:1 pass-through; only the open variable's column is new.
      for (size_t oi = 0; oi < bs.out.size(); ++oi) {
        const BatchOut& o = bs.out[oi];
        int* dst = out_cols + oi;
        if (o.kind == BatchOut::kConst) {
          for (size_t j = 0; j < n; ++j) dst[j * out_width] = o.arg;
        } else {
          const int* src = in_cols + o.arg;
          for (size_t j = 0; j < n; ++j) {
            dst[j * out_width] = src[j * static_cast<size_t>(in_width)];
          }
        }
      }
      outb.size = n;
      ctx->batch_rows_tally += static_cast<long>(n);
      bool ok = JoinBatch(plan, next + 1, ctx, out);
      outb.size = 0;
      return ok;
    }
    case BatchOp::kEqFilter: {
      // Branch-free selection build, then one gather.
      for (size_t i = 0; i < n; ++i) {
        sel[m] = static_cast<uint32_t>(i);
        m += operand(bs.code, i) == operand(bs.code_b, i) ? 1 : 0;
      }
      ctx->batch_cand_tally += static_cast<long>(n);
      return m == 0 || flush();
    }
    case BatchOp::kAdomFilter: {
      const std::vector<int>& adom = snapshot_->active_domain();
      for (size_t i = 0; i < n; ++i) {
        sel[m] = static_cast<uint32_t>(i);
        m += std::binary_search(adom.begin(), adom.end(), operand(bs.code, i))
                 ? 1
                 : 0;
      }
      ctx->batch_cand_tally += static_cast<long>(n);
      return m == 0 || flush();
    }
    case BatchOp::kEqExpand:
    case BatchOp::kAdomExpand: {
      const size_t adom_size = snapshot_->active_domain().size();
      for (size_t i = 0; i < n; ++i) {
        for (size_t r = 0; r < adom_size; ++r) {
          if (abort_poll()) return false;
          sel[m] = static_cast<uint32_t>(i);
          cand[m] = static_cast<uint32_t>(r);
          if (++m == cap && !flush()) return false;
        }
      }
      ctx->batch_cand_tally += static_cast<long>(n * adom_size);
      return m == 0 || flush();
    }
    case BatchOp::kScan: {
      const Rows& rows = *step.rows;
      const size_t end = rows.size();
      if (bs.checks.empty() && bs.verbatim && &rows != out) {
        // Zero-copy scan: the output batch is the candidate tuple verbatim,
        // so each chunk of consecutive arena rows becomes the next level's
        // batch in place (BatchLevel::ext) — no selection vectors, no
        // gather.  A copy clause thus runs as hash + dedup-insert straight
        // off the source arena.  Emission order and all limit counters are
        // unchanged; the &rows != out guard keeps the aliased rows stable
        // while `out` grows (impossible for stratified programs, but cheap).
        for (size_t i = 0; i < n; ++i) {
          for (size_t r = 0; r < end;) {
            const size_t take = std::min(end - r, cap);
            ctx->batch_scanned += static_cast<long>(take);
            if (AbortRequested()) return false;
            outb.ext = rows.row(r);
            outb.size = take;
            ctx->batch_rows_tally += static_cast<long>(take);
            ctx->batch_out_tally += static_cast<long>(take);
            const bool ok = JoinBatch(plan, next + 1, ctx, out);
            outb.size = 0;
            outb.ext = nullptr;
            if (!ok) return false;
            r += take;
          }
          ctx->batch_cand_tally += static_cast<long>(end);
        }
        return true;
      }
      if (bs.checks.empty()) {
        // Unfiltered scan: every row qualifies, so the selection vectors
        // fill in branch-free consecutive runs (one abort poll per run
        // instead of per candidate — deadline cadence only, which is
        // nondeterministic anyway; emission order is unchanged).
        for (size_t i = 0; i < n; ++i) {
          size_t r = 0;
          while (r < end) {
            const size_t take = std::min(end - r, cap - m);
            for (size_t t = 0; t < take; ++t) {
              sel[m + t] = static_cast<uint32_t>(i);
              cand[m + t] = static_cast<uint32_t>(r + t);
            }
            ctx->batch_scanned += take;
            if (AbortRequested()) return false;
            m += take;
            r += take;
            if (m == cap && !flush()) return false;
          }
          ctx->batch_cand_tally += static_cast<long>(end);
        }
        return m == 0 || flush();
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t r = 0; r < end; ++r) {
          if (abort_poll()) return false;
          const int* tuple = rows.row(r);
          bool ok = true;
          for (const BatchCheck& c : bs.checks) {
            const int want =
                c.kind == BatchCheck::kSlot
                    ? in_cols[i * static_cast<size_t>(in_width) + c.arg]
                    : (c.kind == BatchCheck::kConst ? c.arg : tuple[c.arg]);
            if (tuple[c.pos] != want) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          sel[m] = static_cast<uint32_t>(i);
          cand[m] = static_cast<uint32_t>(r);
          if (++m == cap && !flush()) return false;
        }
        ctx->batch_cand_tally += static_cast<long>(end);
      }
      return m == 0 || flush();
    }
    case BatchOp::kProbe:
      break;  // Falls through to the bulk-probe body below.
  }

  const HashIndex*& index = ctx->index[next];
  if (index == nullptr) {
    // Fetched lazily so clauses that fail before probing never build it.
    index = &GetIndex(step.atom->predicate, step.mask);
    // The build itself may have exhausted the deadline (leaving a partial
    // index); do not probe it in that case.
    if (aborted_.load(std::memory_order_relaxed)) return false;
  }
  // Key gather + batched hashing + bulk probe: each a tight loop over the
  // whole input batch, replacing the per-probe HashTuple/Find pair of the
  // scalar path.
  const int kl = bs.key_len;
  int* keys = in.keys.data();
  for (int j = 0; j < kl; ++j) {
    const int code = bs.key_code[j];
    int* dst = keys + j;
    if (code >= 0) {
      const int* src = in_cols + code;
      for (size_t i = 0; i < n; ++i) {
        dst[i * static_cast<size_t>(kl)] =
            src[i * static_cast<size_t>(in_width)];
      }
    } else {
      const int value = -code - 1;
      for (size_t i = 0; i < n; ++i) {
        dst[i * static_cast<size_t>(kl)] = value;
      }
    }
  }
  HashTupleBatch(keys, kl, n, in.hashes.data());
  index->FindBatch(in.hashes.data(), n, in.range_begin.data(),
                   in.range_end.data());
  ctx->batch_probes_tally += static_cast<long>(n);
  const Rows& rows = *step.rows;
  const uint32_t* ids = index->ids.data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t rb = in.range_begin[i];
    const uint32_t re = in.range_end[i];
    ctx->batch_cand_tally += static_cast<long>(re - rb);
    for (uint32_t t = rb; t < re; ++t) {
      if (t + 1 < re) {
        // Candidate rows land all over the arena; fetching the next one
        // while this one joins hides most of that latency.
        __builtin_prefetch(rows.row(ids[t + 1]));
      }
      if (abort_poll()) return false;
      const uint32_t r = ids[t];
      const int* tuple = rows.row(r);
      bool ok = true;
      for (const BatchCheck& c : bs.checks) {
        const int want =
            c.kind == BatchCheck::kSlot
                ? in_cols[i * static_cast<size_t>(in_width) + c.arg]
                : (c.kind == BatchCheck::kConst ? c.arg : tuple[c.arg]);
        if (tuple[c.pos] != want) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      sel[m] = static_cast<uint32_t>(i);
      cand[m] = r;
      if (++m == cap && !flush()) return false;
    }
  }
  return m == 0 || flush();
}

bool Evaluator::EmitBatch(const ClausePlan& plan, JoinContext* ctx,
                          Rows* out) {
  JoinContext::BatchLevel& in = ctx->levels[plan.steps.size()];
  const size_t n = in.size;
  if (n == 0) return true;
  const int width = in.width;
  const int* in_cols = in.data();
  const int head_arity = static_cast<int>(plan.head_slot.size());
  const int* stage = in_cols;
  if (!plan.head_identity) {
    // Permute/project the level columns into head order.  Skipped when the
    // head is the identity over the final layout — the level batch is
    // already row-major head tuples and feeds the hash/insert passes as-is.
    int* staged = ctx->head_stage.data();
    for (int oi = 0; oi < head_arity; ++oi) {
      const int code = plan.head_slot[oi];
      int* dst = staged + oi;
      if (code >= 0) {
        const int* src = in_cols + code;
        for (size_t j = 0; j < n; ++j) {
          dst[j * head_arity] = src[j * static_cast<size_t>(width)];
        }
      } else {
        const int value = -code - 1;
        for (size_t j = 0; j < n; ++j) dst[j * head_arity] = value;
      }
    }
    stage = staged;
  }
  // One vectorisable hashing pass over the staged run, then insert in
  // countdown-bounded sub-runs so limits flush on exactly the emission the
  // scalar path would flush on: abort points, counters and truncated answer
  // prefixes stay byte-identical.
  HashTupleBatch(stage, head_arity, n, ctx->head_hashes.data());
  size_t done = 0;
  while (done < n) {
    const size_t take = std::min<size_t>(
        n - done, static_cast<size_t>(std::max<long>(ctx->flush_countdown, 1)));
    const size_t added =
        out->InsertBatch(stage + done * static_cast<size_t>(head_arity), take,
                         ctx->head_hashes.data() + done, ctx->new_idx.data());
    ctx->new_tuples += static_cast<long>(added);
    ctx->unflushed_new += static_cast<long>(added);
    if (ctx->delta_out != nullptr) {
      for (size_t j = 0; j < added; ++j) {
        ctx->delta_out->Insert(stage + (done + ctx->new_idx[j]) *
                                           static_cast<size_t>(head_arity));
      }
    }
    ctx->emissions += static_cast<long>(take);
    ctx->unflushed_emissions += static_cast<long>(take);
    ctx->flush_countdown -= static_cast<long>(take);
    done += take;
    if (ctx->flush_countdown <= 0 && !FlushLimits(ctx)) return false;
  }
  return true;
}

void Evaluator::FlushBatchMetrics(JoinContext* ctx) {
  if (ctx->batch_rows_tally != 0) {
    batch_rows_.fetch_add(ctx->batch_rows_tally, std::memory_order_relaxed);
  }
  if (ctx->batch_probes_tally != 0) {
    batch_probes_.fetch_add(ctx->batch_probes_tally,
                            std::memory_order_relaxed);
  }
  if (MetricsRegistry* metrics = MetricsRegistry::Global()) {
    if (ctx->batch_rows_tally != 0) {
      metrics->Count("ndl/batch_rows", ctx->batch_rows_tally);
    }
    if (ctx->batch_probes_tally != 0) {
      metrics->Count("ndl/batch_probes", ctx->batch_probes_tally);
    }
    if (ctx->batch_cand_tally > 0) {
      metrics->Record("ndl/selection_density",
                      static_cast<double>(ctx->batch_out_tally) /
                          static_cast<double>(ctx->batch_cand_tally));
    }
  }
  ctx->batch_rows_tally = 0;
  ctx->batch_probes_tally = 0;
  ctx->batch_cand_tally = 0;
  ctx->batch_out_tally = 0;
}

void Evaluator::EvaluateClause(int ci, JoinContext* ctx, Rows* out) {
  if (aborted_.load(std::memory_order_relaxed)) return;
  const NdlClause& clause = program_.clause(ci);
  ClausePlan plan = BuildPlan(ci);
  if (MetricsRegistry* metrics = MetricsRegistry::Global()) {
    ScopedSpan span(metrics, "evaluate/join");
    const long emitted0 = ctx->emissions;
    const long new0 = ctx->new_tuples;
    RunJoin(plan, ctx, out);
    const long emitted = ctx->emissions - emitted0;
    const long fresh = ctx->new_tuples - new0;
    span.Attr("head", clause.head.predicate);
    span.Attr("emissions", emitted);
    span.Attr("new_tuples", fresh);
    // Totals feed the dedup hit rate: new_tuples / join_emissions.
    metrics->Count("evaluator/join_emissions", emitted);
    metrics->Count("evaluator/new_tuples", fresh);
    metrics->Record("evaluator/clause_emissions",
                    static_cast<double>(emitted));
  } else {
    RunJoin(plan, ctx, out);
  }
}

bool Evaluator::Emit(const ClausePlan& plan, JoinContext* ctx, Rows* out) {
  const int* binding = ctx->binding.data();
  for (size_t i = 0; i < plan.head_code.size(); ++i) {
    int code = plan.head_code[i];
    ctx->head_tuple[i] = code >= 0 ? binding[code] : -code - 1;
  }
  if (out->Insert(ctx->head_tuple.data())) {
    ++ctx->new_tuples;
    ++ctx->unflushed_new;
    // Delta mode: a genuinely new tuple extends the head predicate's delta,
    // which drives the clauses downstream in the dependency DAG.
    if (ctx->delta_out != nullptr) {
      ctx->delta_out->Insert(ctx->head_tuple.data());
    }
  }
  ++ctx->emissions;
  ++ctx->unflushed_emissions;
  // The hot path touches no shared cache line; FlushLimits re-arms the
  // countdown so limits are still enforced on exactly the emission that
  // exceeds them.
  if (--ctx->flush_countdown <= 0) return FlushLimits(ctx);
  return true;
}

bool Evaluator::FlushLimits(JoinContext* ctx) {
  long work = work_.fetch_add(ctx->unflushed_emissions,
                              std::memory_order_relaxed) +
              ctx->unflushed_emissions;
  ctx->unflushed_emissions = 0;
  long tuples;
  if (ctx->unflushed_new != 0) {
    tuples = idb_tuples_.fetch_add(ctx->unflushed_new,
                                   std::memory_order_relaxed) +
             ctx->unflushed_new;
    ctx->unflushed_new = 0;
  } else {
    tuples = idb_tuples_.load(std::memory_order_relaxed);
  }
  if (limits_.max_work > 0 && work > limits_.max_work) {
    aborted_.store(true, std::memory_order_relaxed);
  }
  if (limits_.max_generated_tuples > 0 &&
      tuples > limits_.max_generated_tuples) {
    aborted_.store(true, std::memory_order_relaxed);
  }
  // Memory accounting and the cancel token ride the same flush cadence as
  // the deadline: charge this context's arena growth, then poll.
  if (ctx->out != nullptr) ChargeRowsDelta(*ctx->out, &ctx->charged_bytes);
  if (has_deadline_ || cancel_ != nullptr) AbortRequested();
  if (aborted_.load(std::memory_order_relaxed)) return false;
  // Re-arm: flush again no later than the emission that could exceed the
  // nearest limit (new tuples <= emissions, so an emission-based countdown
  // is a conservative bound for the tuple limit too), and at least every
  // kDeadlineCheckInterval emissions so deadline polls and cross-worker
  // aborts are observed promptly.
  long countdown = kDeadlineCheckInterval;
  if (limits_.max_work > 0) {
    countdown = std::min(countdown, limits_.max_work - work + 1);
  }
  if (limits_.max_generated_tuples > 0) {
    countdown =
        std::min(countdown, limits_.max_generated_tuples - tuples + 1);
  }
  ctx->flush_countdown = std::max<long>(countdown, 1);
  return true;
}

bool Evaluator::Join(const ClausePlan& plan, size_t next, JoinContext* ctx,
                     Rows* out) {
  if (next == plan.steps.size()) return Emit(plan, ctx, out);

  const AtomStep& step = plan.steps[next];
  const NdlAtom& atom = *step.atom;
  std::vector<int>& binding = ctx->binding;
  auto term_value = [&](const Term& t) {
    return t.is_constant ? t.value : binding[t.value];
  };

  if (step.kind == PredicateKind::kEquality) {
    int a = term_value(atom.args[0]);
    int b = term_value(atom.args[1]);
    if (a >= 0 && b >= 0) {
      if (a == b) return Join(plan, next + 1, ctx, out);
      return true;
    }
    if (a >= 0 || b >= 0) {
      int value = a >= 0 ? a : b;
      const Term& open = a >= 0 ? atom.args[1] : atom.args[0];
      binding[open.value] = value;
      bool keep_going = Join(plan, next + 1, ctx, out);
      binding[open.value] = -1;
      return keep_going;
    }
    // Both open: enumerate the active domain (rare; kept for completeness).
    for (int ind : snapshot_->active_domain()) {
      binding[atom.args[0].value] = ind;
      binding[atom.args[1].value] = ind;
      bool keep_going = Join(plan, next + 1, ctx, out);
      binding[atom.args[0].value] = -1;
      binding[atom.args[1].value] = -1;
      if (!keep_going) return false;
    }
    return true;
  }

  if (step.kind == PredicateKind::kAdom) {
    int a = term_value(atom.args[0]);
    const std::vector<int>& adom = snapshot_->active_domain();
    if (a >= 0) {
      if (std::binary_search(adom.begin(), adom.end(), a)) {
        return Join(plan, next + 1, ctx, out);
      }
      return true;
    }
    for (int ind : adom) {
      binding[atom.args[0].value] = ind;
      bool keep_going = Join(plan, next + 1, ctx, out);
      binding[atom.args[0].value] = -1;
      if (!keep_going) return false;
    }
    return true;
  }

  // Regular (IDB or EDB) atom: scan or probe, bind the open positions,
  // verify the checked positions against the candidate row.
  const Rows& rows = *step.rows;
  // On the last step a matching row goes straight to Emit; the extra
  // recursion level would only re-test `next == steps.size()` per candidate.
  const bool last = next + 1 == plan.steps.size();
  auto try_row = [&](const int* tuple) {
    for (const auto& [pos, var] : step.bind) {
      binding[var] = tuple[pos];
    }
    bool ok = true;
    for (const auto& [pos, code] : step.checks) {
      int value = code >= 0 ? binding[code] : -code - 1;
      if (value != tuple[pos]) {
        ok = false;
        break;
      }
    }
    bool keep_going =
        ok ? (last ? Emit(plan, ctx, out) : Join(plan, next + 1, ctx, out))
           : true;
    for (const auto& [pos, var] : step.bind) binding[var] = -1;
    return keep_going;
  };

  if (step.mask == 0) {
    for (size_t r = 0; r < rows.size(); ++r) {
      // One relaxed load per driver row keeps abort latency low even when a
      // long stretch of rows emits nothing (and so never reaches a flush).
      if (next == 0 && aborted_.load(std::memory_order_relaxed)) return false;
      if (!try_row(rows.row(r))) return false;
    }
    return true;
  }
  const HashIndex*& index = ctx->index[next];
  if (index == nullptr) {
    // Fetched lazily so clauses that fail before probing never build it;
    // cached in the (context-local) slot so each probe is one hash lookup.
    index = &GetIndex(atom.predicate, step.mask);
    // The build itself may have exhausted the deadline (leaving a partial
    // index); do not probe it in that case.
    if (aborted_.load(std::memory_order_relaxed)) return false;
  }
  // Key values on the stack for the common short keys (no vector size
  // bookkeeping per probe); the context buffer covers wide keys.
  int key_stack[8];
  const int* key;
  int key_len = static_cast<int>(step.key_code.size());
  if (key_len <= 8) {
    for (int i = 0; i < key_len; ++i) {
      int code = step.key_code[i];
      key_stack[i] = code >= 0 ? binding[code] : -code - 1;
    }
    key = key_stack;
  } else {
    ctx->key_buffer.clear();
    for (int code : step.key_code) {
      ctx->key_buffer.push_back(code >= 0 ? binding[code] : -code - 1);
    }
    key = ctx->key_buffer.data();
  }
  auto [first, end] = index->Find(HashTuple(key, key_len));
  for (; first != end; ++first) {
    if (first + 1 != end) {
      // Candidate rows land all over the arena; fetching the next one while
      // this one joins hides most of that latency.
      __builtin_prefetch(rows.row(first[1]));
    }
    if (!try_row(rows.row(*first))) return false;
  }
  return true;
}

// --- Dependency-DAG scheduler ---------------------------------------------

void Evaluator::RunPredicateTask(Scheduler* sched, int predicate) {
  const bool metrics = OWLQR_METRICS_ENABLED();
  const auto task_start = std::chrono::steady_clock::now();
  Rows& out = preds_[predicate]->rows;
  // One context for every clause of the task: the batch scratch keeps its
  // capacity across plans, so only the first clause pays the allocations.
  JoinContext ctx;
  for (int ci : program_.ClausesFor(predicate)) {
    EvaluateClause(ci, &ctx, &out);
  }
  out.materialized = true;
  scheduler_tasks_.fetch_add(1, std::memory_order_relaxed);
  double task_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - task_start)
                       .count();
  if (metrics) OWLQR_RECORD("evaluator/task_wall_ms", task_ms);

  // Finish the task: release dependents whose last dependency this was, and
  // wake everyone on the last task overall.
  std::vector<int> newly_ready;
  for (int q : sched->dependents[predicate]) {
    if (sched->remaining[q].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      newly_ready.push_back(q);
    }
  }
  bool done;
  {
    std::lock_guard<std::mutex> lock(sched->mu);
    slowest_task_ms_ = std::max(slowest_task_ms_, task_ms);
    for (int q : newly_ready) sched->ready.push_back(q);
    done = --sched->pending == 0;
    if (done) sched->done = true;
  }
  // Wake only as many workers as there is new work for; a notify_all here
  // stampedes every idle worker at once (they requeue on the mutex just to
  // find one task).  Completion still wakes everyone so all workers exit.
  if (done) {
    sched->cv.notify_all();
  } else if (newly_ready.size() == 1) {
    sched->cv.notify_one();
  } else if (!newly_ready.empty()) {
    sched->cv.notify_all();
  }
}

void Evaluator::SchedulerWorker(Scheduler* sched) {
  std::unique_lock<std::mutex> lock(sched->mu);
  while (true) {
    sched->cv.wait(lock,
                   [sched] { return !sched->ready.empty() || sched->done; });
    if (sched->ready.empty()) return;  // Done: every task has finished.
    int predicate = sched->ready.front();
    sched->ready.pop_front();
    lock.unlock();
    RunPredicateTask(sched, predicate);
    lock.lock();
  }
}

// -------------------------------------------------------------------------

void Evaluator::FinishResult(ExecuteResult* result) const {
  result->answers = preds_[program_.goal()]->rows.ToSortedTuples();
  EvaluationStats* stats = &result->stats;
  stats->aborted = aborted_.load();
  stats->deadline_exceeded = deadline_exceeded_.load();
  stats->cancelled = cancelled_.load();
  stats->memory_exceeded = memory_exceeded_.load();
  stats->row_ceiling = row_ceiling_.load();
  if (account_ != nullptr) {
    stats->memory_bytes = static_cast<long>(account_->used());
    stats->memory_high_water = static_cast<long>(account_->high_water());
  }
  stats->index_builds = index_builds_.load();
  stats->predicate_tuples.assign(program_.num_predicates(), 0);
  for (int p = 0; p < program_.num_predicates(); ++p) {
    const Rows& rows = preds_[p]->rows;
    if (program_.IsIdb(p) && rows.materialized) {
      long count = static_cast<long>(rows.size());
      stats->predicate_tuples[p] = count;
      stats->generated_tuples += count;
      ++stats->predicates_evaluated;
    }
  }
  stats->goal_tuples = static_cast<long>(result->answers.size());
  stats->scheduler_tasks = scheduler_tasks_.load();
  stats->slowest_task_ms = slowest_task_ms_;
  // Every driver row is joined exactly once regardless of worker count or
  // batching, so join_emissions is deterministic like generated_tuples.
  stats->join_emissions = work_.load();
  stats->batch_rows = batch_rows_.load();
  stats->batch_probes = batch_probes_.load();

  result->snapshot_version = snapshot_->version();
  // Any abort leaves the answers a sound-but-possibly-incomplete subset.
  // Tuple/work-limit truncation is an *asked-for* stop, so it stays kOk
  // (partial says the rest); the status codes name the abort causes a
  // caller did not opt into, most specific first.
  result->partial = stats->aborted;
  if (stats->cancelled) {
    result->status = Status::Cancelled("execution cancelled");
  } else if (stats->memory_exceeded) {
    result->status = Status::MemoryExceeded("memory budget exceeded");
  } else if (stats->deadline_exceeded) {
    result->status = Status::DeadlineExceeded("deadline exceeded");
  }
}

ExecuteResult Evaluator::Run(const ExecuteRequest& request) {
  OWLQR_CHECK_MSG(program_.goal() >= 0, "program has no goal predicate");
  ExecuteResult result;
  if (request.num_threads > 1) {
    RunParallel(request, &result);
  } else {
    RunSequential(request, &result);
  }
  return result;
}

size_t ExecuteResult::MemoryBytes() const {
  size_t bytes = sizeof(ExecuteResult);
  bytes += answers.capacity() * sizeof(std::vector<int>);
  for (const std::vector<int>& tuple : answers) {
    bytes += tuple.capacity() * sizeof(int);
  }
  bytes += stats.predicate_tuples.capacity() * sizeof(long);
  bytes += status.message().capacity();
  return bytes;
}

size_t RetainedIdbState::MemoryBytes() const {
  size_t bytes = 0;
  for (const Rows& rows : idb_rows) bytes += rows.MemoryBytes();
  for (const auto& slot_map : slots) {
    for (const auto& [mask, slot] : slot_map) {
      (void)mask;
      if (slot != nullptr) bytes += slot->index.MemoryBytes();
    }
  }
  return bytes;
}

void Evaluator::ExtractRetainedState(RetainedIdbState* state) {
  const int n = program_.num_predicates();
  state->idb_rows.clear();
  state->idb_rows.resize(n);
  state->slots.clear();
  state->slots.resize(n);
  for (int p = 0; p < n; ++p) {
    if (!program_.IsIdb(p)) continue;
    state->idb_rows[p] = std::move(preds_[p]->rows);
    state->slots[p] = std::move(preds_[p]->slots);
  }
  state->version = snapshot_->version();
}

ExecuteResult Evaluator::RunDelta(const ExecuteRequest& request,
                                  const SnapshotDelta& delta,
                                  RetainedIdbState* state) {
  OWLQR_CHECK_MSG(program_.goal() >= 0, "program has no goal predicate");
  const int n = program_.num_predicates();
  OWLQR_CHECK_MSG(
      state->valid() && static_cast<int>(state->idb_rows.size()) == n &&
          static_cast<int>(state->slots.size()) == n,
      "retained state missing or sized for a different program");

  OWLQR_NAMED_SPAN(span, "evaluate/delta");
  StartClock(request);

  // Adopt the retained extensions: they become this evaluator's IDB
  // relations, warm probe indexes included.  Their bytes stay charged to
  // the engine's retained-state cache, not to this execution's account —
  // the run below charges only its own growth.
  for (int p = 0; p < n; ++p) {
    if (!program_.IsIdb(p)) continue;
    preds_[p]->rows = std::move(state->idb_rows[p]);
    preds_[p]->slots = std::move(state->slots[p]);
  }
  state->Clear();

  // Seed the per-predicate delta relations: the appended EDB rows by
  // external id, plus synthetic adom/equality deltas over the individuals
  // that newly entered the active domain — a clause constant can newly
  // satisfy an adom or equality atom, so those atoms must be drivable too.
  // IDB deltas start empty and fill as the propagation emits.
  std::vector<Rows> delta_rows(n);
  std::vector<size_t> delta_charged(n, 0);
  size_t seed_rows = 0;
  for (int p = 0; p < n; ++p) {
    const PredicateInfo& info = program_.predicate(p);
    Rows& seeds = delta_rows[p];
    seeds.arity = info.arity;
    seeds.materialized = true;
    switch (info.kind) {
      case PredicateKind::kConceptEdb: {
        auto it = delta.concept_rows.find(info.external_id);
        if (it != delta.concept_rows.end()) {
          for (int a : it->second) seeds.Insert(&a);
        }
        break;
      }
      case PredicateKind::kRoleEdb: {
        auto it = delta.role_rows.find(info.external_id);
        if (it != delta.role_rows.end()) {
          const std::vector<int>& cells = it->second;
          for (size_t i = 0; i + 1 < cells.size(); i += 2) {
            seeds.Insert(&cells[i]);
          }
        }
        break;
      }
      case PredicateKind::kAdom:
        for (int a : delta.new_individuals) seeds.Insert(&a);
        break;
      case PredicateKind::kEquality:
        for (int a : delta.new_individuals) {
          int pair[2] = {a, a};
          seeds.Insert(pair);
        }
        break;
      default:
        break;  // IDB (fills below) or table EDB (immutable, never deltas).
    }
    seed_rows += seeds.size();
    delta_charged[p] = seeds.MemoryBytes();
    ChargeMemory(delta_charged[p]);
  }

  // Semi-naive propagation over the cached dependency DAG: for each
  // materialised IDB predicate in topological order, re-join every clause
  // once per body atom whose delta is non-empty, driven by that delta with
  // all other atoms against the full new extensions (sound and complete
  // for these monotone programs; dedup absorbs re-derivations).  New
  // tuples merge into the retained relation and extend the head's delta.
  long delta_derived = 0;
  // One context for the whole propagation: the batch scratch keeps its
  // capacity across the (many, mostly tiny) delta-driven plans.
  JoinContext ctx;
  for (int p : program_.CachedTopologicalOrder()) {
    if (aborted_.load(std::memory_order_relaxed)) break;
    Rows& full = preds_[p]->rows;
    // Outside the retained goal closure: the full run never materialised
    // it, so nothing downstream of the goal can read it.
    if (!full.materialized) continue;
    Rows* dout = &delta_rows[p];
    ctx.delta_out = dout;
    for (int ci : program_.ClausesFor(p)) {
      const NdlClause& clause = program_.clause(ci);
      for (size_t ai = 0; ai < clause.body.size(); ++ai) {
        if (aborted_.load(std::memory_order_relaxed)) break;
        if (delta_rows[clause.body[ai].predicate].size() == 0) continue;
        ClausePlan plan = BuildDeltaPlan(ci, static_cast<int>(ai), delta_rows);
        if (MetricsRegistry* metrics = MetricsRegistry::Global()) {
          ScopedSpan join_span(metrics, "evaluate/join");
          const long emitted0 = ctx.emissions;
          const long new0 = ctx.new_tuples;
          RunJoin(plan, &ctx, &full);
          const long emitted = ctx.emissions - emitted0;
          const long fresh = ctx.new_tuples - new0;
          join_span.Attr("head", clause.head.predicate);
          join_span.Attr("emissions", emitted);
          join_span.Attr("new_tuples", fresh);
          join_span.Attr("delta_driven", 1);
          metrics->Count("evaluator/join_emissions", emitted);
          metrics->Count("evaluator/new_tuples", fresh);
        } else {
          RunJoin(plan, &ctx, &full);
        }
      }
    }
    ctx.delta_out = nullptr;
    if (dout->size() > 0) {
      // The predicate grew: its retained probe indexes went stale — drop
      // them before any downstream clause probes the merged relation (the
      // next GetIndex rebuilds under a fresh once_flag).
      preds_[p]->slots.clear();
      delta_derived += static_cast<long>(dout->size());
      ChargeRowsDelta(*dout, &delta_charged[p]);
    }
  }

  ExecuteResult result;
  FinishResult(&result);
  result.incremental = true;
  span.Attr("seed_rows", static_cast<long>(seed_rows));
  span.Attr("delta_derived", delta_derived);
  span.Attr("goal_tuples", static_cast<long>(result.answers.size()));
  span.Attr("aborted", result.stats.aborted ? 1 : 0);
  if (!result.stats.aborted) {
    // Hand the updated extensions back for the next delta; an aborted run
    // leaves `state` cleared and the caller falls back to full
    // re-evaluation (a partially merged relation is sound — monotone
    // additions only — but its version bookkeeping would be wrong).
    ExtractRetainedState(state);
  }
  return result;
}

void Evaluator::RunSequential(const ExecuteRequest& request,
                              ExecuteResult* result) {
  OWLQR_NAMED_SPAN(span, "evaluate");
  StartClock(request);
  {
    // Scoped so the batch scratch is released (and un-charged) before the
    // stats snapshot: final memory readings must reconcile to exactly the
    // retained arenas.
    JoinContext ctx;
    Materialize(program_.goal(), &ctx);
  }
  FinishResult(result);
  span.Attr("goal_tuples", static_cast<long>(result->answers.size()));
  span.Attr("generated_tuples", idb_tuples_.load(std::memory_order_relaxed));
  span.Attr("aborted", aborted_.load() ? 1 : 0);
}

void Evaluator::RunParallel(const ExecuteRequest& request,
                            ExecuteResult* result) {
  const int num_threads = request.num_threads;
  OWLQR_NAMED_SPAN(span, "evaluate/parallel");
  span.Attr("threads", num_threads);
  StartClock(request);

  // IDB predicates the goal depends on, over the program's cached
  // dependency adjacency (a flat seen-array; no per-call tree allocations).
  const std::vector<std::vector<int>>& deps = program_.IdbDependencies();
  std::vector<char> reachable(program_.num_predicates(), 0);
  reachable[program_.goal()] = 1;
  std::vector<int> stack = {program_.goal()};
  while (!stack.empty()) {
    int p = stack.back();
    stack.pop_back();
    for (int q : deps[p]) {
      if (!reachable[q]) {
        reachable[q] = 1;
        stack.push_back(q);
      }
    }
  }
  // Build the program's clause index before workers start: any ClausesFor
  // call builds all of it, and concurrent first calls from worker tasks
  // would race.  Everything else workers read is frozen in the snapshot.
  program_.ClausesFor(program_.goal());

  // Build the task DAG: one task per reachable unmaterialised IDB
  // predicate, an atomic remaining-dependency counter each, and reverse
  // edges so a finishing task can release its dependents.
  Scheduler sched;
  const int n = program_.num_predicates();
  sched.remaining = std::make_unique<std::atomic<int>[]>(n);
  sched.dependents.assign(n, {});
  std::vector<char> is_task(n, 0);
  std::vector<int> tasks;
  for (int p = 0; p < n; ++p) {
    sched.remaining[p].store(0, std::memory_order_relaxed);
    if (reachable[p] && program_.IsIdb(p) && !preds_[p]->rows.materialized) {
      is_task[p] = 1;
      tasks.push_back(p);
    }
  }
  for (int p : tasks) {
    int need = 0;
    for (int q : deps[p]) {
      if (is_task[q]) {
        ++need;
        sched.dependents[q].push_back(p);
      }
    }
    sched.remaining[p].store(need, std::memory_order_relaxed);
    if (need == 0) sched.ready.push_back(p);
  }
  sched.pending = static_cast<int>(tasks.size());
  sched.done = tasks.empty();

  // CPU-bound workers beyond the core count only add context-switch and
  // wakeup overhead, so cap the pool at the hardware concurrency (floor 2:
  // a parallel run stays genuinely concurrent even on one core, e.g. for
  // the sanitizer tests).  Counters and results are worker-count agnostic.
  int num_workers = num_threads;
  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware > 0) {
    num_workers =
        std::min(num_threads, std::max(2, static_cast<int>(hardware)));
  }
  span.Attr("workers", num_workers);

  if (!tasks.empty()) {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (int t = 0; t < num_workers; ++t) {
      threads.emplace_back([this, &sched] { SchedulerWorker(&sched); });
    }
    for (std::thread& t : threads) t.join();
  }

  FinishResult(result);
  span.Attr("goal_tuples", static_cast<long>(result->answers.size()));
  span.Attr("generated_tuples", idb_tuples_.load(std::memory_order_relaxed));
  span.Attr("aborted", aborted_.load() ? 1 : 0);
  span.Attr("tasks", scheduler_tasks_.load(std::memory_order_relaxed));
}

}  // namespace owlqr
