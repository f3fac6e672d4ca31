#include "store/store.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "store/format.h"
#include "store/fs.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {
namespace store {

namespace {

std::string SegmentDirName(uint64_t version) {
  return "seg-" + std::to_string(version);
}

}  // namespace

Status DurableStore::Open(const StoreOptions& options,
                          std::shared_ptr<DurableStore>* out) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("store directory must not be empty");
  }
  Status status = MakeDir(options.dir);
  if (!status.ok()) return status;
  out->reset(new DurableStore(options));
  return Status::Ok();
}

Status DurableStore::ReadCurrent(std::string* segment_name) const {
  segment_name->clear();
  const std::string path = options_.dir + "/CURRENT";
  if (!PathExists(path)) return Status::Ok();
  std::string bytes;
  Status status = ReadWholeFile(path, &bytes);
  if (!status.ok()) return status;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  status = CheckFileHeader(data, bytes.size(), FileType::kCurrent, "CURRENT");
  if (!status.ok()) return status;
  ByteReader r(data + kFileHeaderBytes, bytes.size() - kFileHeaderBytes);
  std::string name;
  uint32_t crc = 0;
  if (!r.ReadString(&name) || !r.ReadU32(&crc) || r.remaining() != 0) {
    return Status::DataLoss("CURRENT: truncated or oversized payload");
  }
  if (Crc32(name.data(), name.size()) != crc) {
    return Status::DataLoss("CURRENT: segment-name checksum mismatch");
  }
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::DataLoss("CURRENT: invalid segment name '" + name + "'");
  }
  *segment_name = std::move(name);
  return Status::Ok();
}

Status DurableStore::WriteCurrent(const std::string& segment_name) {
  std::string bytes;
  AppendFileHeader(&bytes, FileType::kCurrent);
  PutString(&bytes, segment_name);
  PutU32(&bytes, Crc32(segment_name.data(), segment_name.size()));
  // CURRENT is the commit point of a checkpoint, so it is synced even under
  // fsync=never — losing unsynced log suffix is the policy the flag buys,
  // losing the pointer to an already-written segment is not.
  return WriteFileDurable(options_.dir + "/CURRENT", bytes, /*fsync=*/true);
}

Status DurableStore::Recover(Vocabulary* vocab, uint64_t tbox_fingerprint,
                             size_t max_resident_bytes, RecoveredState* out) {
  OWLQR_NAMED_SPAN(span, "store/recover");
  const auto t0 = std::chrono::steady_clock::now();
  *out = RecoveredState();
  tbox_fingerprint_ = tbox_fingerprint;

  std::string segment_name;
  Status status = ReadCurrent(&segment_name);
  if (!status.ok()) return status;
  const std::string log_path = options_.dir + "/LOG";

  if (segment_name.empty()) {
    if (PathExists(log_path)) {
      // Facts were acknowledged against a baseline segment that no longer
      // exists; replaying them against nothing would silently drop the
      // baseline's facts.
      return Status::DataLoss(
          "store has a LOG but no CURRENT segment pointer");
    }
    // Fresh store.  The LOG is NOT created here: the engine must first
    // checkpoint its seed snapshot (Checkpoint creates the log), so a crash
    // before that seed leaves the directory fresh instead of in the
    // LOG-without-CURRENT data-loss state.
    out->fresh = true;
    return Status::Ok();
  }

  std::shared_ptr<SegmentReader> segment;
  status = SegmentReader::Open(options_.dir + "/" + segment_name, &segment);
  if (!status.ok()) return status;
  if (segment->meta().tbox_fingerprint != tbox_fingerprint) {
    return Status::DataLoss(
        "store segment was checkpointed under a different ontology "
        "(TBox fingerprint mismatch)");
  }
  status = segment->Bind(vocab);
  if (!status.ok()) return status;

  // Residency plan: smallest columns first until the budget is spent, so a
  // tight budget keeps the many small predicate extensions hot and leaves
  // the few giant ones to fault in on demand.
  std::vector<size_t> order(segment->live_columns().size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return segment->live_columns()[a].bytes < segment->live_columns()[b].bytes;
  });
  std::unordered_map<int, std::shared_ptr<const EdbRelation>> concepts;
  std::unordered_map<int, std::shared_ptr<const EdbRelation>> roles;
  std::vector<int> cold_concepts;
  std::vector<int> cold_roles;
  long num_atoms = 0;
  size_t resident_bytes = 0;
  for (size_t idx : order) {
    const SegmentReader::LiveColumn& col = segment->live_columns()[idx];
    num_atoms += static_cast<long>(col.num_rows);
    const bool fits = max_resident_bytes == 0 ||
                      resident_bytes + col.bytes <= max_resident_bytes;
    if (fits) {
      resident_bytes += col.bytes;
      auto& target = col.role ? roles : concepts;
      target.emplace(col.live_id, segment->LoadColumn(col.role, col.live_id));
    } else {
      (col.role ? cold_roles : cold_concepts).push_back(col.live_id);
    }
  }
  std::sort(cold_concepts.begin(), cold_concepts.end());
  std::sort(cold_roles.begin(), cold_roles.end());

  out->base = DataSnapshot::FromColumns(
      segment->meta().snapshot_version, num_atoms, segment->LiveActiveDomain(),
      std::move(concepts), std::move(roles), std::move(cold_concepts),
      std::move(cold_roles), segment);

  // Open (creating if missing — a crash can land between the CURRENT
  // install and the log creation) and scan the log, keeping only the tail
  // past the segment: a prefix at or below the segment version is the
  // normal residue of a crash between the CURRENT install and the log
  // reset.
  std::vector<LogRecord> recovered;
  uint64_t dropped = 0;
  std::unique_ptr<FactLog> log;
  status = FactLog::Open(log_path, options_.fsync, &log, &recovered, &dropped);
  if (!status.ok()) return status;
  const uint64_t base_version = segment->meta().snapshot_version;
  for (LogRecord& record : recovered) {
    if (record.version <= base_version) continue;
    out->tail.push_back(std::move(record));
  }

  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    log_ = std::move(log);
    current_segment_ = segment_name;
    counters_.log_bytes = log_->bytes();
    counters_.log_records = log_->records();
    counters_.log_dropped_bytes = dropped;
    counters_.recovered_records = out->tail.size();
  }
  span.Attr("tail_records", static_cast<long>(out->tail.size()));
  span.Attr("resident_bytes", static_cast<long>(resident_bytes));
  OWLQR_RECORD("store/recovery_ms", ms);
  return Status::Ok();
}

Status DurableStore::AppendBatch(uint64_t version,
                                 const NamedFactBatch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (log_ == nullptr) {
    return Status::DataLoss(
        "store log is not open (seed checkpoint has not completed)");
  }
  LogRecord record;
  record.version = version;
  record.batch = batch;
  Status status = log_->Append(record);
  if (!status.ok()) return status;
  counters_.log_bytes = log_->bytes();
  counters_.log_records = log_->records();
  ++counters_.appended_batches;
  return Status::Ok();
}

Status DurableStore::Checkpoint(const DataSnapshot& snapshot,
                                const Vocabulary& vocab) {
  OWLQR_NAMED_SPAN(span, "store/checkpoint");
  const std::string name = SegmentDirName(snapshot.version());
  const std::string dir = options_.dir + "/" + name;
  std::string previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    previous = current_segment_;
  }
  const auto fail = [&](Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.compactions_failed;
    return status;
  };

  if (name != previous && PathExists(dir)) {
    // A leftover from a checkpoint that crashed before its CURRENT install;
    // it was never visible, so rewrite it from scratch.
    Status status = RemoveDirRecursive(dir);
    if (!status.ok()) return fail(std::move(status));
  }
  // Segment files are synced even under fsync=never: CURRENT is always
  // durable, so a crash must not leave it pointing at a segment whose data
  // never reached disk — recovery would fail with DataLoss on every open,
  // which is strictly worse than the flag's lost-log-suffix contract.
  // Checkpoints are rare, so the cost is bounded.
  Status status = WriteSegment(dir, snapshot, vocab, tbox_fingerprint_,
                               /*fsync=*/true);
  if (!status.ok()) return fail(std::move(status));
  status = WriteCurrent(name);
  if (!status.ok()) return fail(std::move(status));

  std::lock_guard<std::mutex> lock(mutex_);
  current_segment_ = name;
  if (log_ == nullptr) {
    // First checkpoint of a fresh store: the log starts empty now that a
    // baseline exists for its records to be relative to.
    std::vector<LogRecord> recovered;
    uint64_t dropped = 0;
    status = FactLog::Open(options_.dir + "/LOG", options_.fsync, &log_,
                           &recovered, &dropped);
    if (!status.ok()) {
      ++counters_.compactions_failed;
      return status;
    }
  } else {
    status = log_->Reset();
    if (!status.ok()) {
      // The new segment is installed, so every log record is now <= its
      // version and recovery skips them — a failed reset wastes bytes but
      // loses nothing.
      ++counters_.compactions_failed;
      return status;
    }
  }
  counters_.log_bytes = log_->bytes();
  counters_.log_records = log_->records();
  ++counters_.segments_written;

  if (!previous.empty() && previous != name) {
    // Best-effort: the old segment is garbage now (live snapshots keep
    // their columns through the surviving mmap, not the directory entry).
    RemoveDirRecursive(options_.dir + "/" + previous).ok();
  }
  span.Attr("version", static_cast<long>(snapshot.version()));
  return Status::Ok();
}

bool DurableStore::ShouldCompact() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.compact_log_bytes > 0 && log_ != nullptr &&
         log_->bytes() >= options_.compact_log_bytes;
}

StoreCounters DurableStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace store
}  // namespace owlqr
