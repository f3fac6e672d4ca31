#ifndef OWLQR_NDL_EVALUATOR_H_
#define OWLQR_NDL_EVALUATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/relation.h"
#include "data/snapshot.h"
#include "ndl/program.h"
#include "util/budget.h"
#include "util/status.h"

namespace owlqr {

struct EvaluationStats {
  // Total tuples materialised across all evaluated IDB predicates (the
  // "generated tuples" column of the paper's Tables 3-5).  A rename
  // predicate (see RenameAnalysis) is read as a view of its root and holds
  // no rows, but counts what copying its root would have materialised, so
  // this total, predicate_tuples and join_emissions are those of the
  // program evaluated clause by clause.
  long generated_tuples = 0;
  long goal_tuples = 0;
  int predicates_evaluated = 0;
  // True if evaluation stopped early because a limit was exhausted (the
  // bench harness's analogue of the paper's evaluation timeouts).
  bool aborted = false;
  // True iff the abort was caused by EvaluatorLimits::deadline_ms.
  bool deadline_exceeded = false;
  // True iff the abort was caused by ExecuteRequest::cancel firing.
  bool cancelled = false;
  // True iff the abort was caused by the memory account (per-execution cap
  // or the shared budget) being exceeded.
  bool memory_exceeded = false;
  // True iff some relation refused an insert at the 32-bit row ceiling
  // (see Rows::Insert); always accompanied by `aborted`.
  bool row_ceiling = false;
  // Memory-account readings at the end of the run: bytes still charged and
  // the execution's high-water mark (0 when no account was installed).
  long memory_bytes = 0;
  long memory_high_water = 0;
  // Number of (predicate, bound-position mask) hash indexes built by this
  // execution (shared snapshot-cache hits are not counted: the request did
  // not pay for them).  Probes of a rename predicate use its root's index:
  // the snapshot's shared one for an EDB root, and one index per mask for
  // an IDB root and all its renames.
  long index_builds = 0;
  // Per-predicate materialised tuple counts, indexed by predicate id
  // (zero for EDB and unevaluated predicates).
  std::vector<long> predicate_tuples;
  // Parallel (DAG scheduler) path only: predicate tasks run by workers and
  // the wall time of the slowest single predicate task (the critical-path
  // floor a perfectly parallel schedule cannot beat).
  long scheduler_tasks = 0;
  double slowest_task_ms = 0;
  // Join emissions (head-tuple productions, duplicates included) across the
  // run — the quantity EvaluatorLimits::max_work bounds.  Identical on the
  // batch and scalar paths, and independent of the worker count.
  long join_emissions = 0;
  // Vector-at-a-time executor tallies (zero when EvaluatorLimits::batch_rows
  // disabled the batch path): elements materialised into column batches
  // across all join stages, and bulk hash-index probes issued.
  long batch_rows = 0;
  long batch_probes = 0;
  // Always 0.  The evaluator once split large clauses into intra-clause
  // morsels with work stealing; that mechanism is gone (the DAG scheduler
  // is the only parallel path), but readers of these two fields, such as
  // the end-to-end benchmark's traced `paper` run, still report them.
  long morsel_batches = 0;
  long steals = 0;
};

struct EvaluatorLimits {
  // Stop materialising once this many IDB tuples exist (<= 0: unlimited).
  long max_generated_tuples = 0;
  // Stop after this many join emissions, counting duplicates (<= 0:
  // unlimited).  Guards against clauses that churn on duplicate tuples
  // without growing any relation.
  long max_work = 0;
  // Wall-clock deadline from the start of Evaluator::Run, in milliseconds
  // (<= 0, or too far out to represent on the clock: unlimited).  The
  // faithful stand-in for the paper's 999 s evaluation timeout.
  long deadline_ms = 0;
  // Column-batch width of the vector-at-a-time join executor: up to this
  // many elements flow between join steps per batch (capped at 65536).
  // <= 0 disables batching and runs the scalar tuple-at-a-time path — the
  // differential oracle the batch tests compare against.  Answers, stats
  // and limit-abort points are identical either way.
  long batch_rows = 1024;
};

// One evaluation request: per-request limits plus the evaluation mode.
// The single knob surface shared by Evaluator::Run/RunDelta,
// Engine::Execute, the CLI and the benches.
struct ExecuteRequest {
  EvaluatorLimits limits;
  // <= 1 runs the sequential evaluator; > 1 runs the dependency-DAG
  // scheduler with this many workers (capped at hardware concurrency).
  int num_threads = 1;
  // Cooperative cancellation: when set, the evaluator polls the token at
  // its deadline poll points and aborts with StatusCode::kCancelled once it
  // fires.  Shared so the caller (and the governor) can keep signalling
  // after the execution finishes.
  std::shared_ptr<const CancelToken> cancel;
  // How long Engine::Execute may hold this request in the admission queue
  // before shedding it with kRejected (< 0: the governor's default;
  // 0: never queue — reject immediately when no slot is free).
  long queue_timeout_ms = -1;
  // Ask Engine::Execute for the semi-naive delta path: when retained IDB
  // state for (this plan, the previous snapshot version) is available, seed
  // evaluation with only the rows ApplyFacts appended since and propagate
  // through the dependency DAG instead of re-evaluating from scratch.
  // Falls back to full evaluation transparently (state miss, abort, or a
  // request with tuple/work limits — a truncated retained state would be
  // unsound to reuse).  Answers are identical either way.
  bool incremental = false;
};

// What an evaluation produced: the sorted goal relation plus the stats the
// run accumulated.  `snapshot_version` is the version of the DataSnapshot
// the run was pinned to.
struct ExecuteResult {
  std::vector<std::vector<int>> answers;
  EvaluationStats stats;
  uint64_t snapshot_version = 0;
  // Why the execution ended: kOk for a complete (or merely limit-truncated;
  // see `partial`) run, else the abort cause — kCancelled, kMemoryExceeded,
  // kDeadlineExceeded — or kRejected when admission shed the request before
  // evaluation started.
  Status status;
  // True when `answers` is a sound but possibly incomplete subset: a
  // tuple/work-limit stop, or a degraded retry after memory rejection.
  // Aborts (non-kOk status) always leave partial == true; kOk + partial
  // means a plain limit truncation.
  bool partial = false;
  // True when this result came from the governor's degraded retry (memory
  // rejection, re-run once with tightened max_generated_tuples).
  bool degraded = false;
  // True when the delta path served this result (ExecuteRequest::incremental
  // was set AND retained state was available); false on the full path,
  // including fallbacks of an incremental request.
  bool incremental = false;
  // True when Engine::Execute served this result out of its answer cache —
  // a byte-identical copy of a prior clean complete run at the same
  // (plan, snapshot version, limits) key; no evaluation ran and no
  // admission slot was taken.  The shared object the cache holds keeps it
  // false; Engine::ExecuteShared reports a hit in SharedExecution::cached.
  bool cached = false;
  // True when Engine::Execute coalesced this request onto an identical
  // in-flight execution and copied the leader's result (whatever its
  // outcome) instead of running itself.  Engine::ExecuteShared hands a
  // follower the leader's object and reports it in
  // SharedExecution::coalesced.
  bool coalesced = false;

  // Heap bytes this result holds (the answer tuples plus the per-predicate
  // stats vector) — what the engine's answer cache charges against the
  // memory budget per resident entry, and what Engine::Execute pays to copy
  // a hit or a follower out of the shared object (ExecuteShared copies
  // nothing).
  size_t MemoryBytes() const;
};

// Plan hints shared across executions of one prepared program: join orders
// and relation sizes.
//
// The greedy atom order is data-dependent (it scores atoms by relation
// size), so it cannot be compiled into the immutable PreparedQuery at
// prepare time; instead the first execution to plan clause `ci` records
// the order it chose under slots[ci].once, and every later execution
// (same or different snapshot version) reuses it and skips the greedy
// scoring pass.  call_once makes the capture race-free under concurrent
// executions; any order is *correct* (bind/check/head codes are recompiled
// from the order per plan), a stale one is at worst suboptimal.
//
// rows[p] is IDB predicate p's row count at the end of the latest clean,
// complete run, plus one (0: no such run yet).  The next full evaluation
// sizes p's dedup table and cells arena for that count before p's first
// clause runs, so an unchanged snapshot builds every relation without a
// rehash.  Relaxed atomics: a count is only a sizing hint, and a stale or
// racing one costs at most a rehash or some slack.
struct JoinOrderHints {
  struct Slot {
    std::once_flag once;
    std::vector<int> order;  // Body atom indexes, join order.
  };
  // One slot per program clause index.
  std::vector<Slot> slots;
  // One count per program predicate id (see above).
  std::vector<std::atomic<size_t>> rows;

  JoinOrderHints(size_t num_clauses, size_t num_predicates)
      : slots(num_clauses), rows(num_predicates) {}
  JoinOrderHints(const JoinOrderHints&) = delete;
  JoinOrderHints& operator=(const JoinOrderHints&) = delete;
};

// Materialised IDB state carried between executions of one prepared query
// along a snapshot chain — the seed of the evaluator's semi-naive delta
// path.  `idb_rows[p]` is predicate p's full extension at `version` (moved
// out of the evaluator that produced it; empty vectors for non-IDB ids) and
// `slots[p]` its locally built probe indexes, which stay valid as long as
// the rows do (RunDelta discards the slots of any predicate its delta
// grows).  `edb_rows[p]` is the row count at `version` of the snapshot
// relation predicate p reads (0 where there is none) and `adom_rows` the
// TOP relation's: every later version of a relation is an append-only
// extension of it (Rows::Extend), so the rows past these counts are
// exactly the rows new since `version`.  version == 0 marks the state
// invalid/empty.  Owned and memory-accounted by the engine's retained-state
// cache; an Evaluator only ever borrows it for the duration of one
// RunDelta.
struct RetainedIdbState {
  uint64_t version = 0;
  std::vector<Rows> idb_rows;
  std::vector<std::unordered_map<unsigned, std::unique_ptr<IndexSlot>>> slots;
  std::vector<size_t> edb_rows;
  size_t adom_rows = 0;

  bool valid() const { return version != 0; }
  void Clear() {
    version = 0;
    idb_rows.clear();
    slots.clear();
    edb_rows.clear();
    adom_rows = 0;
  }
  // Heap bytes held: rows arenas + dedup tables + retained probe indexes
  // (what the engine charges against its memory budget for keeping this).
  size_t MemoryBytes() const;
};

// Bottom-up evaluator for nonrecursive datalog over a frozen data snapshot.
//
// IDB predicates are materialised in dependence order; each clause is
// evaluated with a backtracking join over its body using lazily built hash
// indexes per (predicate, bound-position mask).  Equality is a built-in over
// ind(A); TOP is the active domain.  The evaluator assumes (and checks) that
// the program is nonrecursive.
//
// Storage is a flat arena per predicate (data/relation.h's Rows: one
// contiguous int vector with the predicate's arity as stride plus an
// open-addressing hash set for deduplication), so the hot insert path
// performs no per-tuple heap allocation.  Hash indexes live in
// per-predicate slots, each built at most once under a std::once_flag, so
// concurrent indexed lookups on different predicates never contend and
// lookups on the same predicate contend only until the index exists.
//
// EDB arenas and their hash indexes come straight from the DataSnapshot —
// pre-built, immutable, and shared with every concurrent execution pinned
// to the same snapshot — and the evaluator only materialises IDB
// relations.  The snapshot is held by shared_ptr, so an execution keeps its
// data version alive even after the engine swaps in a newer one.  Plain
// instances, and the mapping layer's source tables, are evaluated by
// freezing them first (DataSnapshot::FromInstance).
//
// Rename predicates (see RenameAnalysis) are views, not relations: plans
// are compiled from the resolved clause bodies, so they read a rename's
// root directly, and the rename itself is only credited the counts of the
// copy it stands for (CreditRename).
//
// Parallel evaluation (Run with num_threads > 1) is barrier-free: every IDB
// predicate the goal depends on becomes a task with an atomic
// remaining-dependency counter, workers pull ready tasks from a shared
// queue, and a predicate is enqueued the moment its last dependency
// finishes (see DESIGN.md section 7).  Parallelism is across predicates
// only; each clause is joined by the one worker that runs its predicate's
// task.  The safety invariant is single writer per relation: every EDB
// relation (including table EDBs) and the active domain are frozen in the
// snapshot before workers start, a predicate's Rows is written only by its
// task, and all other reads are of frozen dependency relations or of
// indexes built under a once-flag.
class Evaluator {
 public:
  Evaluator(const NdlProgram& program,
            std::shared_ptr<const DataSnapshot> snapshot);
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Installs shared plan hints (not owned; must outlive the evaluator and
  // be sized to the program's clauses and predicates).  Run takes join
  // orders and relation sizes from them; a clean run of either path
  // records its relation sizes.  Must be called before evaluation starts.
  void set_join_order_hints(JoinOrderHints* hints) { hints_ = hints; }

  // Installs the per-execution memory account (not owned; must outlive the
  // evaluator).  Arena growth — IDB relations, dedup tables, locally built
  // probe indexes, join scratch — is charged to it at the limit-flush
  // cadence; a failed charge aborts the evaluation with memory_exceeded.
  // Must be called before evaluation starts.
  void set_memory_account(MemoryAccount* account) { account_ = account; }

  // Materialises everything the goal depends on under the request's limits
  // and cancel token, and returns the goal relation (sorted
  // lexicographically) with the run's stats.  num_threads > 1 runs the
  // dependency-DAG scheduler (see the class comment) with that many
  // workers, capped at the hardware concurrency (floor 2); answers and
  // counters do not depend on the worker count.  One evaluator serves one
  // Run (or RunDelta).
  ExecuteResult Run(const ExecuteRequest& request);

  // The semi-naive delta path.  Adopts the retained IDB extensions out of
  // `state` (which must hold the exact materialisation of this program at
  // an earlier version of this snapshot's chain), seeds round 0 with only
  // the EDB rows appended since — each relation's rows past the count
  // `state` captured, plus adom/equality delta rows for the individuals
  // that entered the active domain — and propagates through the cached
  // dependency DAG in topological order:
  // each clause with a non-empty delta body atom is re-joined driven by
  // that delta (all other atoms against the full new extensions, probing
  // the retained/warm indexes), and newly derived tuples merge into the
  // retained relations and extend the head predicate's delta.  Sound and
  // complete for the monotone programs the rewriters emit because
  // deduplication absorbs re-derivations.
  //
  // On a complete run, the updated extensions move back into `state`
  // (version advanced to the snapshot's) for the next delta; on any abort
  // (cancel/deadline/memory/row ceiling) `state` is left Clear()ed and the
  // caller must fall back to full re-evaluation.  Always sequential: a
  // delta is small, so DAG-scheduler fan-out would only add overhead.
  ExecuteResult RunDelta(const ExecuteRequest& request,
                         RetainedIdbState* state);

  // Moves the materialised IDB extensions (and their locally built probe
  // indexes) out of this evaluator into `state`, stamped with the
  // snapshot's version and its EDB/adom row counts.  Only meaningful after
  // a complete, un-aborted, unlimited evaluation — the caller guards that;
  // the evaluator must not be used again afterwards.
  void ExtractRetainedState(RetainedIdbState* state);

 private:
  struct PredicateState {
    Rows rows;
    // Sized from the plan's row-count hint before its first clause ran;
    // the driver-range Reserve of RunJoin then stays out of the way.
    bool presized = false;
    std::mutex slot_mutex;            // Guards the shape of `slots`.
    std::unordered_map<unsigned, std::unique_ptr<IndexSlot>> slots;
  };

  // Per-atom join plan: the static bound-position mask, the resolved
  // relation, and the argument positions to bind or to check against the
  // current binding.  Immutable once built; all run-time state lives in
  // JoinContext.
  //
  // Terms the inner loop reads are pre-compiled into codes so the per-row
  // work never touches a Term again: code >= 0 names a binding slot,
  // code < 0 encodes the constant -(code + 1).
  struct AtomStep {
    const NdlAtom* atom = nullptr;
    PredicateKind kind = PredicateKind::kIdb;
    const Rows* rows = nullptr;            // Regular atoms only.
    unsigned mask = 0;
    std::vector<int> key_code;             // Key values, in position order.
    std::vector<std::pair<int, int>> bind; // (position, variable) to bind.
    std::vector<std::pair<int, int>> checks;  // (position, code) to verify.
  };

  // What one join step does on the batch (vector-at-a-time) path.  Regular
  // atoms are kScan (mask 0: enumerate a row range) or kProbe (mask != 0:
  // bulk hash-index lookup); equality atoms filter (both operands bound),
  // bind (copy-through, kept only for its output recipes) or expand over
  // the active domain; adom atoms filter or expand likewise.
  enum class BatchOp : uint8_t {
    kScan,
    kProbe,
    kEqFilter,
    kEqBind,
    kEqExpand,
    kAdomFilter,
    kAdomExpand,
  };

  // One candidate-row filter of a kScan/kProbe batch step: tuple position
  // `pos` must equal an input-batch column (kSlot: arg = column), a
  // constant (kConst: arg = value), or an earlier position of the same
  // tuple (kTuplePos: arg = position — a repeated variable first bound by
  // this very atom).
  struct BatchCheck {
    enum Kind : uint8_t { kSlot, kConst, kTuplePos };
    Kind kind = kSlot;
    int pos = 0;
    int arg = 0;
  };

  // Recipe for one output column of a batch step: gather from an input
  // column through the selection vector (kFromSlot: arg = column), from
  // the candidate tuple (kFromTuple: arg = position), or broadcast a
  // constant (kConst: arg = value).
  struct BatchOut {
    enum Kind : uint8_t { kFromSlot, kFromTuple, kConst };
    Kind kind = kFromSlot;
    int arg = 0;
  };

  // The batch twin of AtomStep, compiled by CompileBatchPlan.  Column
  // addressing is projection-pruned: a step's output carries only the
  // variables some later step (or the head) still reads, so batches stay
  // narrow on long chain joins.
  struct BatchStep {
    BatchOp op = BatchOp::kScan;
    // Probe key recipe, in bound-position order: >= 0 names an input
    // column, < 0 the constant -(code + 1).  key_len == key_code.size().
    std::vector<int> key_code;
    int key_len = 0;
    // Equality/adom operand codes (same encoding as key_code).
    int code = 0;
    int code_b = 0;
    std::vector<BatchCheck> checks;
    std::vector<BatchOut> out;
    // True when the output batch is the candidate tuple verbatim (every
    // column is kFromTuple position i, width == the relation's arity): an
    // unfiltered scan can then alias the arena rows in place (BatchLevel::
    // ext) instead of gathering a copy.
    bool verbatim = false;
  };

  // Built once per clause evaluation (after the clause's dependencies are
  // materialised, so the greedy atom order sees real relation sizes).
  struct ClausePlan {
    const NdlClause* clause = nullptr;
    std::vector<AtomStep> steps;
    int num_vars = 0;
    // Head emission recipe, one code per head position (same encoding as
    // AtomStep).  Clause safety (every head variable bound by the body) is
    // checked once when this is built, not per emission.
    std::vector<int> head_code;
    // Batch-path recipes, one per step, compiled alongside the scalar codes
    // when EvaluatorLimits::batch_rows > 0 (batch.size() == steps.size()).
    std::vector<BatchStep> batch;
    // Head recipe over the final batch: >= 0 names a column of the last
    // step's output, < 0 the constant -(code + 1).
    std::vector<int> head_slot;
    // True when head_slot is the identity over the final batch (same arity,
    // column i feeds head position i): EmitBatch then hashes and inserts
    // straight from the level columns instead of staging a copy.
    bool head_identity = false;
    bool batch_compiled = false;
  };

  // Mutable state of one join execution: one per sequential run, per
  // scheduler task, or per delta propagation, reused across the clauses it
  // joins.
  struct JoinContext {
    std::vector<int> binding;
    std::vector<int> head_tuple;           // Reused emission buffer.
    std::vector<int> key_buffer;           // Reused across probes.
    std::vector<const HashIndex*> index;   // Per-step lazily fetched cache.
    // The relation this context writes and the bytes of it already charged
    // to the memory account; FlushLimits charges the delta, so memory
    // accounting rides the existing flush cadence instead of adding atomics
    // to the emission hot path.  Baselined at RunJoin entry (several
    // sequential contexts may grow the same Rows).
    Rows* out = nullptr;
    size_t charged_bytes = 0;
    // Delta mode only: every tuple newly inserted into `out` is also
    // recorded here (the head predicate's delta, which drives downstream
    // clauses).  Null outside RunDelta.
    Rows* delta_out = nullptr;
    // Plain tallies (flushed to the metrics registry, if one is installed,
    // after the clause finishes; kept local so the join inner loop never
    // takes the registry lock).
    long emissions = 0;
    long new_tuples = 0;
    // Emissions/new tuples not yet added to the evaluator-wide atomic
    // counters.  The inner loop increments plain ints and calls FlushLimits
    // when `flush_countdown` runs out; the countdown is sized so no limit
    // can be overshot (see FlushLimits), which keeps limit enforcement
    // exact while the hot path performs no atomic read-modify-write.
    long unflushed_emissions = 0;
    long unflushed_new = 0;
    long flush_countdown = 0;  // 0 forces a flush on the first emission.

    // ---- Vector-at-a-time executor scratch (EnsureBatchScratch) ----
    // One level per step boundary: levels[s] is the row-major input batch
    // of step s (levels[k] feeds EmitBatch), plus step s's working arrays —
    // the selection vector / candidate rows of pending output elements and,
    // for probe steps, the gathered keys, their hashes and the CSR
    // candidate ranges.  Per-level (not shared) because JoinBatch flushes a
    // full output batch downstream mid-expansion and resumes afterwards,
    // so every level's arrays stay live across the recursion.
    struct BatchLevel {
      std::vector<int> cols;
      // Non-null when this level aliases rows in place (the verbatim-scan
      // zero-copy path) instead of owning gathered columns in `cols`.
      const int* ext = nullptr;
      const int* data() const { return ext != nullptr ? ext : cols.data(); }
      size_t size = 0;
      int width = 0;
      std::vector<uint32_t> sel;
      std::vector<uint32_t> cand;
      std::vector<int> keys;
      std::vector<size_t> hashes;
      std::vector<uint32_t> range_begin;
      std::vector<uint32_t> range_end;
    };
    std::vector<BatchLevel> levels;
    std::vector<int> head_stage;  // Row-major staged head tuples.
    std::vector<size_t> head_hashes;  // Their HashTupleBatch values.
    std::vector<uint32_t> new_idx;    // InsertBatch's new-tuple indices.
    size_t batch_cap = 0;
    // Scratch bytes charged to the memory account (released on context
    // destruction — all contexts die before the evaluator quiesces).
    size_t scratch_charged = 0;
    MemoryAccount* scratch_account = nullptr;
    // Batch metric tallies, flushed once per RunJoin by FlushBatchMetrics.
    long batch_rows_tally = 0;
    long batch_probes_tally = 0;
    long batch_cand_tally = 0;
    long batch_out_tally = 0;
    size_t batch_scanned = 0;  // Abort-poll counter across candidate loops.

    JoinContext() = default;
    JoinContext(const JoinContext&) = delete;
    JoinContext& operator=(const JoinContext&) = delete;
    ~JoinContext() {
      if (scratch_account != nullptr && scratch_charged > 0) {
        scratch_account->Release(scratch_charged);
      }
    }
  };

  // Shared state of one parallel run: the dependency DAG (atomic
  // remaining-dependency counters plus reverse edges) and the ready queue.
  struct Scheduler {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<int> ready;                  // Predicates ready to run.
    std::unique_ptr<std::atomic<int>[]> remaining;
    std::vector<std::vector<int>> dependents;
    int pending = 0;  // Tasks not yet finished (guarded by mu).
    bool done = false;
  };

  void Init();
  // Installs the request's limits and cancel token and starts the deadline
  // clock.
  void StartClock(const ExecuteRequest& request);
  // Polls the wall-clock deadline; on expiry sets deadline_exceeded_ and
  // aborted_ and returns true.  Called from the join emission path and from
  // the index-build loops, so a single oversized relation cannot blow past
  // EvaluatorLimits::deadline_ms.
  bool DeadlineExpired();
  // The full cooperative abort poll: cancel token, then deadline.  Every
  // former DeadlineExpired() poll site goes through this, so cancellation
  // and deadline share the same latency bound (kDeadlineCheckInterval
  // emissions / kRelationAbortInterval rows).
  bool AbortRequested();
  // Charges `bytes` to the memory account (no-op without one); on a failed
  // charge sets memory_exceeded_ and aborted_ and returns false.
  bool ChargeMemory(size_t bytes);
  // Charges the growth of `rows` since `charged_bytes` (updating it) and
  // folds in the row-ceiling flag; returns false iff evaluation must abort.
  bool ChargeRowsDelta(const Rows& rows, size_t* charged_bytes);
  // Sizes `predicate`'s relation from the plan's row-count hint, if there
  // is one (capped at max_generated_tuples), and charges the allocation.
  void ReserveFromHint(int predicate);
  // Evaluates rename `predicate` as a view over its root, whose `n` rows
  // (its delta rows, in RunDelta) the rename's clause would have copied:
  // no join, no rows, no memory.  Credits n emissions and n new tuples —
  // cut, under a tuple or work limit, at the emission on which the copy
  // would have aborted, min(n, remaining + 1), aborting there — to the
  // run's counters and the metrics registry, and re-arms `ctx`'s limit
  // countdown (nullable) against the new totals.  No-op once aborted.
  void CreditRename(int predicate, size_t n, JoinContext* ctx);
  // Materialises `predicate` (dependencies first); `ctx` is the join
  // context shared by the whole sequential evaluation so the batch scratch
  // is allocated once, not once per clause.
  void Materialize(int predicate, JoinContext* ctx);
  // The clause plans are compiled from: clause `ci` with its body atoms over
  // renames resolved to their roots (RenameAnalysis::resolved).
  const NdlClause& PlanClause(int ci) const {
    const int slot = renames_->resolved_slot[ci];
    return slot < 0 ? program_.clause(ci) : renames_->resolved[slot];
  }
  // The greedy join order of `clause` (body atom indexes, best-first),
  // scored against current relation sizes.
  std::vector<int> ComputeJoinOrder(const NdlClause& clause);
  // The greedy-selection core of ComputeJoinOrder, continuing from
  // pre-seeded used/bound state (the delta path seeds them with its driven
  // atom) until every body atom is ordered.
  void ExtendJoinOrderGreedy(const NdlClause& clause, std::vector<int>* order,
                             std::vector<bool>* used,
                             std::vector<bool>* bound);
  // Compiles the plan for clause index `ci`: the join order comes from the
  // shared hints when installed (captured under the slot's once_flag by the
  // first execution to get here), else from ComputeJoinOrder directly.
  ClausePlan BuildPlan(int ci);
  // Compiles `order` into the per-step codes.  When `driven_rows` is given
  // (the delta path), step 0 becomes an unconditional scan of those rows —
  // even for adom/equality atoms, whose synthetic delta rows substitute for
  // the built-ins' procedural evaluation — with constants/repeats demoted
  // to checks.
  ClausePlan CompilePlan(const NdlClause& clause,
                         const std::vector<int>& order,
                         const Rows* driven_rows);
  // The delta plan of clause `ci` driven by body atom `driven_atom`: that
  // atom's delta rows scan first, the rest follow greedily (bypassing the
  // shared hints, whose orders assume a full-size driver).
  ClausePlan BuildDeltaPlan(int ci, int driven_atom,
                            const std::vector<Rows>& delta_rows);
  // Compiles the batch (vector-at-a-time) recipes of `plan`: a liveness
  // pass prunes every step's output to the variables later steps or the
  // head still read, then each step's key/check/output recipes are emitted
  // against those narrowed column layouts.  Called at the end of
  // CompilePlan when limits_.batch_rows > 0.
  void CompileBatchPlan(ClausePlan* plan);
  // Sizes the context's batch scratch for `plan` and charges the capacity
  // bytes to the memory account; returns false iff the charge failed
  // (evaluation aborts with memory_exceeded).
  bool EnsureBatchScratch(const ClausePlan& plan, JoinContext* ctx);
  // The batch join: consumes the input batch at ctx->levels[next], appends
  // matches to levels[next + 1], and recurses whenever the output batch
  // fills (or the input is exhausted); next == steps.size() stages and
  // inserts head tuples.  Same false-on-abort contract as Join.
  bool JoinBatch(const ClausePlan& plan, size_t next, JoinContext* ctx,
                 Rows* out);
  // Gathers head tuples from the final batch and inserts them in
  // countdown-bounded runs, flushing limits exactly where the scalar path
  // would — emitted prefixes under a limit abort are byte-identical.
  bool EmitBatch(const ClausePlan& plan, JoinContext* ctx, Rows* out);
  // Folds the context's batch tallies into the evaluator-wide counters and
  // the metrics registry; called once per RunJoin on the batch path.
  void FlushBatchMetrics(JoinContext* ctx);
  // Runs the join of `plan` into `out`, resetting the context's per-run
  // buffers (but not its tallies).
  void RunJoin(const ClausePlan& plan, JoinContext* ctx, Rows* out);
  // Plans clause `ci` and joins it into `out` under an `evaluate/join`
  // span (no-op once aborted); shared by the sequential path and the
  // scheduler's tasks.
  void EvaluateClause(int ci, JoinContext* ctx, Rows* out);
  // Join/Emit return false to unwind the whole backtracking join after an
  // abort (limit exhausted, deadline expired, or another worker aborted);
  // the hot path carries the signal in the return value instead of
  // re-reading aborted_ at every recursion level.
  bool Join(const ClausePlan& plan, size_t next, JoinContext* ctx,
            Rows* out);
  bool Emit(const ClausePlan& plan, JoinContext* ctx, Rows* out);
  // Adds the context's unflushed tallies to the evaluator-wide atomic
  // counters, enforces max_work / max_generated_tuples exactly, polls the
  // deadline, and re-arms the countdown to min(kDeadlineCheckInterval,
  // distance to the nearest limit).  Returns false iff evaluation aborted.
  bool FlushLimits(JoinContext* ctx);
  // DAG-scheduler internals (see DESIGN.md section 7): a worker runs ready
  // tasks or waits; a task materialises one predicate and releases its
  // dependents.
  void SchedulerWorker(Scheduler* sched);
  void RunPredicateTask(Scheduler* sched, int predicate);
  // The two full-evaluation paths behind Run: materialise the goal's
  // dependency closure sequentially, or on the DAG scheduler.
  void RunSequential(const ExecuteRequest& request, ExecuteResult* result);
  void RunParallel(const ExecuteRequest& request, ExecuteResult* result);
  const HashIndex& GetIndex(int predicate, unsigned mask);
  const Rows& EdbRows(int predicate);
  const Rows& RowsFor(int predicate);
  // Sorts the goal relation into `result->answers`, fills its stats,
  // version and partial flag, and names the abort cause in its status.
  // After a clean, complete run it records every materialised IDB
  // relation's size in the plan's hints.
  void FinishResult(ExecuteResult* result) const;

  const NdlProgram& program_;
  // Pins the data version this execution runs on (see the class comment).
  std::shared_ptr<const DataSnapshot> snapshot_;
  // Per-predicate snapshot relation, resolved once in Init (null for IDB
  // predicates, equality, and EDB predicates the snapshot has no facts
  // for — those read the empty, materialised local relation).
  std::vector<const EdbRelation*> snapshot_rel_;
  // The program's renames (resolved in Init) and, per rename, the tuples
  // credited to it (see CreditRename); written only by the rename's task.
  const RenameAnalysis* renames_ = nullptr;
  std::vector<long> view_tuples_;
  JoinOrderHints* hints_ = nullptr;  // Not owned; may be null.
  EvaluatorLimits limits_;
  std::shared_ptr<const CancelToken> cancel_;  // May be null.
  MemoryAccount* account_ = nullptr;           // Not owned; may be null.
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_ = false;
  std::atomic<long> idb_tuples_{0};
  std::atomic<long> work_{0};
  std::atomic<long> index_builds_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> deadline_exceeded_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> memory_exceeded_{false};
  std::atomic<bool> row_ceiling_{false};
  std::atomic<long> scheduler_tasks_{0};
  std::atomic<long> batch_rows_{0};
  std::atomic<long> batch_probes_{0};
  double slowest_task_ms_ = 0;  // Written under the scheduler mutex.
  std::vector<std::unique_ptr<PredicateState>> preds_;
};

}  // namespace owlqr

#endif  // OWLQR_NDL_EVALUATOR_H_
