#ifndef OWLQR_STORE_STORE_H_
#define OWLQR_STORE_STORE_H_

// The pluggable durability seam (DESIGN.md §14.1).  owlqr::store::Store is
// what the Engine talks to: recover state at open, append one record per
// acknowledged ApplyFacts batch, checkpoint a snapshot when the log grows
// past its budget.  DurableStore is the default backend — one directory per
// engine holding
//
//   LOG              the append-only checksummed fact log (store/log.h)
//   CURRENT          the durable pointer naming the live segment directory
//   seg-<version>/   one columnar snapshot segment (store/segment.h)
//
// Compaction protocol (all steps durable before the next begins):
//   1. write seg-<V>/ for the current snapshot (columns first, META last)
//   2. install CURRENT -> seg-<V> via tmp + rename + dir fsync
//   3. reset LOG to empty, then delete the previous segment directory
// A crash between any two steps leaves a recoverable store: an orphan
// segment directory is overwritten next time, a stale LOG prefix is
// skipped by version at recovery, a leftover old segment is just garbage.
//
// Recovery state machine:
//   CURRENT present        -> open + CRC-check the segment, scan the LOG,
//                             replay records with version > segment version
//   no CURRENT, no LOG     -> fresh store (the engine seeds a checkpoint)
//   LOG without CURRENT    -> data loss: facts were acknowledged against a
//                             baseline that no longer exists

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/snapshot.h"
#include "ontology/vocabulary.h"
#include "store/log.h"
#include "store/segment.h"
#include "util/status.h"

namespace owlqr {
namespace store {

struct StoreOptions {
  // Root directory for this engine's durable state.
  std::string dir;
  // fsync the log on every append.  Off trades crash durability for
  // throughput — recovery still never serves a torn record, it just may
  // lose the unsynced log suffix.  Checkpoint files (segment columns, META,
  // CURRENT) and the log header are always synced regardless: losing them
  // would make the store permanently unopenable, not merely stale.
  bool fsync = true;
  // Checkpoint once the log holds this many bytes (0 = never by size;
  // explicit Engine::Checkpoint still works).
  uint64_t compact_log_bytes = 64ull << 20;
};

// A consistent sample of the store's meters, for /metrics and trace JSON.
struct StoreCounters {
  uint64_t log_bytes = 0;            // Current log size (incl. header).
  uint64_t log_records = 0;          // Records in the current log.
  uint64_t appended_batches = 0;     // Appends since this process opened.
  uint64_t log_dropped_bytes = 0;    // Torn tail dropped at recovery.
  uint64_t segments_written = 0;     // Checkpoints completed.
  uint64_t compactions_failed = 0;   // Checkpoints that returned an error.
  uint64_t recovered_records = 0;    // Log-tail records replayed at open.
};

// What Recover hands the engine: either a fresh store (seed it with a
// checkpoint before appending) or a rebuilt base snapshot plus the log
// tail to replay through the normal ApplyFacts delta path.
struct RecoveredState {
  bool fresh = false;
  std::shared_ptr<const DataSnapshot> base;  // Null when fresh.
  std::vector<LogRecord> tail;               // Versions > base->version().
};

class Store {
 public:
  virtual ~Store() = default;

  // Loads durable state.  `tbox_fingerprint` must match the fingerprint the
  // store was created with (a store is bound to one ontology); `vocab` is
  // grown with the stored symbol names.  `max_resident_bytes` caps the
  // column bytes loaded eagerly into the base snapshot (0 = everything
  // resident); the rest stays cold behind the snapshot's ColumnSource.
  // Called exactly once, before any other method.
  virtual Status Recover(Vocabulary* vocab, uint64_t tbox_fingerprint,
                         size_t max_resident_bytes, RecoveredState* out) = 0;

  // Durably appends one acknowledged batch.  The engine calls this BETWEEN
  // building the new snapshot and installing it — a failure here means the
  // version is never acknowledged.
  virtual Status AppendBatch(uint64_t version, const NamedFactBatch& batch) = 0;

  // Writes a full segment for `snapshot`, switches CURRENT to it and resets
  // the log.  Failure is non-fatal to serving (the old segment + log still
  // recover); the engine just counts it and retries later.
  virtual Status Checkpoint(const DataSnapshot& snapshot,
                            const Vocabulary& vocab) = 0;

  // True once the log has outgrown the compaction budget.
  virtual bool ShouldCompact() const = 0;

  virtual StoreCounters counters() const = 0;
};

class DurableStore : public Store {
 public:
  // Validates / creates the directory.  Cheap: all IO happens in Recover.
  static Status Open(const StoreOptions& options,
                     std::shared_ptr<DurableStore>* out);

  Status Recover(Vocabulary* vocab, uint64_t tbox_fingerprint,
                 size_t max_resident_bytes, RecoveredState* out) override;
  Status AppendBatch(uint64_t version, const NamedFactBatch& batch) override;
  Status Checkpoint(const DataSnapshot& snapshot,
                    const Vocabulary& vocab) override;
  bool ShouldCompact() const override;
  StoreCounters counters() const override;

  const StoreOptions& options() const { return options_; }

 private:
  explicit DurableStore(StoreOptions options)
      : options_(std::move(options)) {}

  // Reads + validates CURRENT; empty string when the file doesn't exist.
  Status ReadCurrent(std::string* segment_name) const;
  Status WriteCurrent(const std::string& segment_name);

  const StoreOptions options_;
  uint64_t tbox_fingerprint_ = 0;

  // Guards the log handle and counters.  The engine already serializes
  // Append/Checkpoint under its apply mutex; this mutex exists so stats
  // reads are safe against them.
  mutable std::mutex mutex_;
  std::unique_ptr<FactLog> log_;
  std::string current_segment_;  // Directory name CURRENT points at.
  StoreCounters counters_;
};

}  // namespace store
}  // namespace owlqr

#endif  // OWLQR_STORE_STORE_H_
