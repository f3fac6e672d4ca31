#include "data/snapshot.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/metrics.h"

namespace owlqr {

EdbRelation::EdbRelation(std::shared_ptr<RowStore> store) {
  const size_t num_rows = store->mutable_rows()->size();
  rows_ = Rows::View(std::move(store), num_rows);
}

std::shared_ptr<const EdbRelation> EdbRelation::Extend(
    const int* tuples, size_t n, size_t* copied_rows) const {
  auto next = std::make_shared<EdbRelation>(rows_.arity);
  if (!rows_.Extend(tuples, n, &next->rows_, copied_rows)) return nullptr;
  return next;
}

const HashIndex* EdbRelation::Index(unsigned mask, AbortPoll poll_abort,
                                    void* poll_arg, bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  SharedIndexSlot* slot;
  std::unique_lock<std::mutex> lock(slot_mutex_);
  {
    std::unique_ptr<SharedIndexSlot>& entry = slots_[mask];
    if (entry == nullptr) entry = std::make_unique<SharedIndexSlot>();
    slot = entry.get();
  }
  using State = SharedIndexSlot::State;
  while (true) {
    if (slot->state == State::kReady) return &slot->index;
    if (slot->state == State::kEmpty) break;  // We become the builder.
    // Another thread is building.  Wait, but keep polling our own abort
    // signal so a cancelled request is not held hostage by someone else's
    // cold build (the builder keeps going; only we give up).
    slot_cv_.wait_for(lock, std::chrono::milliseconds(5));
    if (poll_abort != nullptr && slot->state != State::kReady &&
        poll_abort(poll_arg)) {
      return nullptr;
    }
  }
  slot->state = State::kBuilding;
  lock.unlock();

  // Same span/timer names as the evaluator's local index builds: trace
  // consumers see one "evaluate/index-build" stream regardless of which
  // cache the build landed in.
  OWLQR_NAMED_SPAN(span, "evaluate/index-build");
  const bool metrics = OWLQR_METRICS_ENABLED();
  const auto build_start = metrics ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point();
  HashIndex index;
  const bool complete =
      BuildHashIndex(rows_, mask, &index, poll_abort, poll_arg);
  span.Attr("mask", static_cast<long>(mask));
  span.Attr("rows", static_cast<long>(rows_.size()));
  span.Attr("shared", 1);
  span.Attr("aborted", complete ? 0 : 1);
  if (metrics) {
    double build_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - build_start)
                          .count();
    OWLQR_RECORD("evaluator/index_build_ms", build_ms);
  }

  lock.lock();
  if (!complete) {
    // Aborted: discard the partial index and reset the slot so the next
    // request rebuilds; never publish incomplete shared state.
    slot->state = State::kEmpty;
    slot_cv_.notify_all();
    return nullptr;
  }
  slot->index = std::move(index);
  slot->state = State::kReady;
  slot_cv_.notify_all();
  if (built_now != nullptr) *built_now = true;
  return &slot->index;
}

namespace {

// A relation built from `n` candidate rows (duplicates allowed) that
// `insert_all` feeds into the store's rows before any view exists.
template <typename InsertAll>
std::shared_ptr<const EdbRelation> BuildRelation(int arity, size_t n,
                                                 InsertAll insert_all) {
  auto store = std::make_shared<RowStore>(arity, n);
  insert_all(store->mutable_rows());
  return std::make_shared<EdbRelation>(std::move(store));
}

std::shared_ptr<const EdbRelation> AdomRelation(
    const std::vector<int>& active_domain) {
  return BuildRelation(1, active_domain.size(), [&](Rows* rows) {
    for (int a : active_domain) rows->Insert(&a);
  });
}

}  // namespace

std::shared_ptr<const DataSnapshot> DataSnapshot::FromInstance(
    const DataInstance& data, const TableStore* tables) {
  OWLQR_NAMED_SPAN(span, "snapshot/build");
  auto snapshot = std::shared_ptr<DataSnapshot>(new DataSnapshot());
  // The EDB materialisation stage of the pipeline happens here, once, rather
  // than lazily inside each evaluation — same trace span name so per-stage
  // accounting keeps working.
  OWLQR_NAMED_SPAN(edb_span, "evaluate/edb");
  for (int concept_id : data.ActiveConcepts()) {
    const auto& members = data.ConceptMembers(concept_id);
    auto rel = BuildRelation(1, members.size(), [&](Rows* rows) {
      for (int a : members) rows->Insert(&a);
    });
    snapshot->num_atoms_ += static_cast<long>(rel->rows().size());
    snapshot->concepts_.emplace(concept_id, std::move(rel));
  }
  for (int role_id : data.ActivePredicates()) {
    const auto& pairs = data.RolePairs(role_id);
    auto rel = BuildRelation(2, pairs.size(), [&](Rows* rows) {
      for (auto [a, b] : pairs) {
        int pair[2] = {a, b};
        rows->Insert(pair);
      }
    });
    snapshot->num_atoms_ += static_cast<long>(rel->rows().size());
    snapshot->roles_.emplace(role_id, std::move(rel));
  }
  snapshot->active_domain_ = data.individuals();
  if (tables != nullptr) {
    for (int t = 0; t < tables->num_tables(); ++t) {
      const auto& source_rows = tables->Rows(t);
      snapshot->tables_.emplace(
          t, BuildRelation(tables->TableArity(t), source_rows.size(),
                           [&](Rows* rows) {
                             for (const std::vector<int>& row : source_rows) {
                               rows->Insert(row.data());
                             }
                           }));
    }
    for (int ind : tables->ActiveDomain()) {
      snapshot->active_domain_.push_back(ind);
    }
    std::sort(snapshot->active_domain_.begin(),
              snapshot->active_domain_.end());
    snapshot->active_domain_.erase(
        std::unique(snapshot->active_domain_.begin(),
                    snapshot->active_domain_.end()),
        snapshot->active_domain_.end());
  }
  snapshot->adom_ = AdomRelation(snapshot->active_domain_);
  span.Attr("atoms", snapshot->num_atoms_);
  span.Attr("individuals",
            static_cast<long>(snapshot->active_domain_.size()));
  return snapshot;
}

std::shared_ptr<const DataSnapshot> DataSnapshot::FromColumns(
    uint64_t version, long num_atoms, std::vector<int> active_domain,
    std::unordered_map<int, std::shared_ptr<const EdbRelation>> concepts,
    std::unordered_map<int, std::shared_ptr<const EdbRelation>> roles,
    std::vector<int> cold_concepts, std::vector<int> cold_roles,
    std::shared_ptr<const ColumnSource> source) {
  OWLQR_NAMED_SPAN(span, "snapshot/from-columns");
  auto snapshot = std::shared_ptr<DataSnapshot>(new DataSnapshot());
  snapshot->version_ = version;
  snapshot->num_atoms_ = num_atoms;
  snapshot->concepts_ = std::move(concepts);
  snapshot->roles_ = std::move(roles);
  snapshot->cold_concepts_ = std::move(cold_concepts);
  snapshot->cold_roles_ = std::move(cold_roles);
  snapshot->source_ = std::move(source);
  snapshot->active_domain_ = std::move(active_domain);
  snapshot->adom_ = AdomRelation(snapshot->active_domain_);
  span.Attr("atoms", snapshot->num_atoms_);
  span.Attr("resident", static_cast<long>(snapshot->concepts_.size() +
                                          snapshot->roles_.size()));
  span.Attr("cold", static_cast<long>(snapshot->cold_concepts_.size() +
                                      snapshot->cold_roles_.size()));
  return snapshot;
}

std::shared_ptr<const DataSnapshot> DataSnapshot::WithFacts(
    const FactBatch& batch, SnapshotDelta* delta, Status* status) const {
  OWLQR_NAMED_SPAN(span, "snapshot/apply-facts");
  if (delta != nullptr) *delta = SnapshotDelta();
  if (status != nullptr) *status = Status::Ok();

  // Pass 1: deduplicate the batch against itself (each fresh Rows dedups on
  // Insert) and against the parent (Contains, a const probe) before
  // appending anything.  After this pass, fresh_* hold exactly the rows a
  // successor snapshot appends — every entry has at least one row, and an
  // individual is noted only when a genuinely new fact mentions it.
  std::unordered_map<int, Rows> fresh_concepts;
  std::unordered_map<int, Rows> fresh_roles;
  auto fresh_for = [](std::unordered_map<int, Rows>& fresh, int id,
                      int arity) -> Rows* {
    auto [it, inserted] = fresh.try_emplace(id);
    if (inserted) {
      it->second.arity = arity;
      it->second.materialized = true;
    }
    return &it->second;
  };
  std::vector<int> fresh_individuals;
  auto note_individual = [this, &fresh_individuals](int ind) {
    if (!std::binary_search(active_domain_.begin(), active_domain_.end(),
                            ind)) {
      fresh_individuals.push_back(ind);
    }
  };

  long added = 0;
  for (const FactBatch::ConceptFact& fact : batch.concepts) {
    const EdbRelation* parent = Concept(fact.concept_id);
    if (parent != nullptr && parent->rows().Contains(&fact.individual)) {
      continue;
    }
    if (fresh_for(fresh_concepts, fact.concept_id, 1)
            ->Insert(&fact.individual)) {
      ++added;
      note_individual(fact.individual);
    }
  }
  for (const FactBatch::RoleFact& fact : batch.roles) {
    const EdbRelation* parent = Role(fact.role_id);
    int pair[2] = {fact.subject, fact.object};
    if (parent != nullptr && parent->rows().Contains(pair)) continue;
    if (fresh_for(fresh_roles, fact.role_id, 2)->Insert(pair)) {
      ++added;
      note_individual(fact.subject);
      note_individual(fact.object);
    }
  }

  if (added == 0) {
    // Effectively-empty batch: every fact was already present, so the
    // parent snapshot IS the result — same version(), and the delta stays
    // empty.
    span.Attr("version", static_cast<long>(version_));
    span.Attr("added", 0);
    span.Attr("noop", 1);
    return shared_from_this();
  }
  std::sort(fresh_individuals.begin(), fresh_individuals.end());
  fresh_individuals.erase(
      std::unique(fresh_individuals.begin(), fresh_individuals.end()),
      fresh_individuals.end());

  auto next = std::shared_ptr<DataSnapshot>(new DataSnapshot());
  // Share everything by default; only relations with fresh rows get a new
  // version below.
  next->concepts_ = concepts_;
  next->roles_ = roles_;
  next->tables_ = tables_;
  next->num_atoms_ = num_atoms_ + added;
  next->version_ = version_ + 1;
  if (source_ != nullptr) {
    // Columns faulted in on this snapshot are resident in the child (the
    // dedup pass above already loaded any cold relation the batch touches,
    // so grow() below always sees its parent rows); everything still cold
    // stays cold, served by the shared source.
    std::lock_guard<std::mutex> lock(lazy_mutex_);
    for (const auto& [id, rel] : lazy_concepts_) next->concepts_[id] = rel;
    for (const auto& [id, rel] : lazy_roles_) next->roles_[id] = rel;
  }

  // Pass 2: each touched relation's next version, appended at the tail of
  // the parent's store (Rows::Extend).  A ceiling refusal anywhere refuses
  // the whole batch; rows already appended for it sit past every published
  // version's row count, so no version ever sees them.
  size_t copied_rows = 0;
  bool refused = false;
  using RelationMap =
      std::unordered_map<int, std::shared_ptr<const EdbRelation>>;
  auto grow = [&copied_rows, &refused](RelationMap& map, int id,
                                       const Rows& fresh) {
    auto it = map.find(id);
    const EdbRelation empty(fresh.arity);
    const EdbRelation& parent = it == map.end() ? empty : *it->second;
    std::shared_ptr<const EdbRelation> rel =
        parent.Extend(fresh.row(0), fresh.size(), &copied_rows);
    if (rel == nullptr) {
      refused = true;
    } else {
      map[id] = std::move(rel);
    }
  };
  for (const auto& [id, fresh] : fresh_concepts) {
    grow(next->concepts_, id, fresh);
  }
  for (const auto& [id, fresh] : fresh_roles) {
    grow(next->roles_, id, fresh);
  }

  if (fresh_individuals.empty()) {
    // Same active domain, so the TOP relation and the sorted individual
    // list are shared too.
    next->active_domain_ = active_domain_;
    next->adom_ = adom_;
  } else {
    // The new individuals are sorted and absent from the parent's domain:
    // splice each in between bulk copies of the runs around it.
    std::vector<int>& domain = next->active_domain_;
    domain.reserve(active_domain_.size() + fresh_individuals.size());
    auto from = active_domain_.begin();
    for (int ind : fresh_individuals) {
      auto at = std::lower_bound(from, active_domain_.end(), ind);
      domain.insert(domain.end(), from, at);
      domain.push_back(ind);
      from = at;
    }
    domain.insert(domain.end(), from, active_domain_.end());
    next->adom_ = adom_->Extend(fresh_individuals.data(),
                                fresh_individuals.size(), &copied_rows);
    if (next->adom_ == nullptr) refused = true;
  }

  span.Attr("copied_rows", static_cast<long>(copied_rows));
  if (refused) {
    span.Attr("version", static_cast<long>(version_));
    span.Attr("refused", 1);
    if (status != nullptr) {
      *status = Status::MemoryExceeded(
          "ApplyFacts: a relation is at its row ceiling");
    }
    return shared_from_this();
  }

  if (source_ != nullptr) {
    next->source_ = source_;
    auto still_cold = [&next](const std::vector<int>& cold, bool role) {
      std::vector<int> out;
      out.reserve(cold.size());
      const auto& resident = role ? next->roles_ : next->concepts_;
      for (int id : cold) {
        if (resident.find(id) == resident.end()) out.push_back(id);
      }
      return out;
    };
    next->cold_concepts_ = still_cold(cold_concepts_, /*role=*/false);
    next->cold_roles_ = still_cold(cold_roles_, /*role=*/true);
  }

  if (delta != nullptr) {
    // The fresh arenas are exactly the appended rows in insertion order.
    auto cells = [](const Rows& fresh) {
      return std::vector<int>(fresh.row(0), fresh.row(fresh.size()));
    };
    for (const auto& [id, fresh] : fresh_concepts) {
      delta->concept_rows.emplace(id, cells(fresh));
    }
    for (const auto& [id, fresh] : fresh_roles) {
      delta->role_rows.emplace(id, cells(fresh));
    }
  }
  span.Attr("version", static_cast<long>(next->version_));
  span.Attr("added", added);
  return next;
}

const EdbRelation* DataSnapshot::LookupOrFault(
    const std::unordered_map<int, std::shared_ptr<const EdbRelation>>&
        resident,
    const std::vector<int>& cold,
    std::unordered_map<int, std::shared_ptr<const EdbRelation>>* lazy,
    bool role, int id) const {
  auto it = resident.find(id);
  if (it != resident.end()) return it->second.get();
  if (source_ == nullptr ||
      !std::binary_search(cold.begin(), cold.end(), id)) {
    return nullptr;
  }
  // Cold column: fault it in once and publish it in the overlay.  The
  // mutex serializes concurrent first touches of different columns too —
  // acceptable, a load is one memcpy plus one table-placement pass.
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  auto lazy_it = lazy->find(id);
  if (lazy_it == lazy->end()) {
    std::shared_ptr<const EdbRelation> rel = source_->LoadColumn(role, id);
    lazy_it = lazy->emplace(id, std::move(rel)).first;
    OWLQR_COUNT("store/cold_column_faults", 1);
  }
  return lazy_it->second.get();
}

const EdbRelation* DataSnapshot::Concept(int concept_id) const {
  return LookupOrFault(concepts_, cold_concepts_, &lazy_concepts_,
                       /*role=*/false, concept_id);
}

const EdbRelation* DataSnapshot::Role(int role_id) const {
  return LookupOrFault(roles_, cold_roles_, &lazy_roles_,
                       /*role=*/true, role_id);
}

size_t DataSnapshot::ResidentColumns() const {
  size_t resident = concepts_.size() + roles_.size();
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mutex_);
    resident += lazy_concepts_.size() + lazy_roles_.size();
  }
  return resident;
}

size_t DataSnapshot::ColdColumns() const {
  if (source_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  return cold_concepts_.size() + cold_roles_.size() - lazy_concepts_.size() -
         lazy_roles_.size();
}

const EdbRelation* DataSnapshot::Table(int table_id) const {
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.get();
}

}  // namespace owlqr
