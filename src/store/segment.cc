#include "store/segment.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "store/format.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {
namespace store {

namespace {

// Sanity ceilings for DecodeMeta: large enough for any real scenario, small
// enough that a lying count can't drive a multi-gigabyte reserve.  Actual
// contents are still bounds-checked element by element.
constexpr uint64_t kMaxNameTable = 64u << 20;  // 64M symbols.
constexpr uint64_t kMaxColumns = 64u << 20;

std::string ColumnFileName(const ColumnInfo& col) {
  return (col.role ? "r" : "c") + std::to_string(col.stored_id);
}

// The cell payload of one in-memory relation version, as segment file
// bytes: only the version's own rows, never rows a later version appended
// to the store it shares.
std::string EncodeColumnFile(const Rows& rows, uint32_t* crc_out) {
  std::string out;
  AppendFileHeader(&out, FileType::kColumn);
  const size_t cell_bytes = rows.size() * static_cast<size_t>(rows.arity) *
                            sizeof(int32_t);
  out.append(reinterpret_cast<const char*>(rows.row(0)), cell_bytes);
  *crc_out = Crc32(out.data() + kFileHeaderBytes, cell_bytes);
  return out;
}

void PutNameTable(std::string* out, const std::vector<std::string>& names) {
  PutU32(out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) PutString(out, name);
}

bool ReadNameTable(ByteReader* r, std::vector<std::string>* out,
                   const char* field, Status* status) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > kMaxNameTable) {
    *status = Status::DataLoss(std::string("segment META: bad ") + field +
                               " count");
    return false;
  }
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    if (!r->ReadString(&name)) {
      *status = Status::DataLoss(std::string("segment META: truncated ") +
                                 field + " table");
      return false;
    }
    out->push_back(std::move(name));
  }
  return true;
}

}  // namespace

void EncodeMeta(const SegmentMeta& meta, std::string* out) {
  const size_t start = out->size();  // The caller may have a header here.
  PutU64(out, meta.snapshot_version);
  PutU64(out, meta.tbox_fingerprint);
  PutNameTable(out, meta.concept_names);
  PutNameTable(out, meta.predicate_names);
  PutNameTable(out, meta.individual_names);
  PutU64(out, meta.num_adom);
  PutU32(out, meta.adom_crc);
  PutU32(out, static_cast<uint32_t>(meta.columns.size()));
  for (const ColumnInfo& col : meta.columns) {
    PutU32(out, col.role ? 1 : 0);
    PutU32(out, col.stored_id);
    PutU32(out, col.arity);
    PutU64(out, col.num_rows);
    PutU32(out, col.crc);
  }
  // Trailing CRC over everything above (this call's bytes only), so a
  // flipped bit anywhere in the directory itself is caught before any
  // column is trusted.
  PutU32(out, Crc32(out->data() + start, out->size() - start));
}

Status DecodeMeta(const uint8_t* data, size_t size, SegmentMeta* out) {
  *out = SegmentMeta();
  if (size < sizeof(uint32_t)) {
    return Status::DataLoss("segment META: too short for its checksum");
  }
  const size_t body = size - sizeof(uint32_t);
  ByteReader tail(data + body, sizeof(uint32_t));
  uint32_t stored_crc = 0;
  tail.ReadU32(&stored_crc);
  if (Crc32(data, body) != stored_crc) {
    return Status::DataLoss("segment META: checksum mismatch");
  }

  ByteReader r(data, body);
  Status status;
  if (!r.ReadU64(&out->snapshot_version) ||
      !r.ReadU64(&out->tbox_fingerprint)) {
    return Status::DataLoss("segment META: truncated header fields");
  }
  if (!ReadNameTable(&r, &out->concept_names, "concept-name", &status) ||
      !ReadNameTable(&r, &out->predicate_names, "predicate-name", &status) ||
      !ReadNameTable(&r, &out->individual_names, "individual-name", &status)) {
    return status;
  }
  if (!r.ReadU64(&out->num_adom) || !r.ReadU32(&out->adom_crc)) {
    return Status::DataLoss("segment META: truncated adom fields");
  }
  uint32_t n_columns = 0;
  if (!r.ReadU32(&n_columns) || n_columns > kMaxColumns) {
    return Status::DataLoss("segment META: bad column count");
  }
  out->columns.reserve(n_columns);
  for (uint32_t i = 0; i < n_columns; ++i) {
    ColumnInfo col;
    uint32_t role_tag = 0;
    if (!r.ReadU32(&role_tag) || role_tag > 1 || !r.ReadU32(&col.stored_id) ||
        !r.ReadU32(&col.arity) || !r.ReadU64(&col.num_rows) ||
        !r.ReadU32(&col.crc)) {
      return Status::DataLoss("segment META: truncated column directory");
    }
    col.role = role_tag == 1;
    if (col.arity != (col.role ? 2u : 1u)) {
      return Status::DataLoss("segment META: column " + ColumnFileName(col) +
                              " has arity " + std::to_string(col.arity));
    }
    const std::vector<std::string>& table =
        col.role ? out->predicate_names : out->concept_names;
    if (col.stored_id >= table.size()) {
      return Status::DataLoss("segment META: column " + ColumnFileName(col) +
                              " names an id outside its name table");
    }
    out->columns.push_back(col);
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("segment META: trailing bytes after directory");
  }
  return Status::Ok();
}

Status WriteSegment(const std::string& dir, const DataSnapshot& snapshot,
                    const Vocabulary& vocab, uint64_t tbox_fingerprint,
                    bool fsync) {
  OWLQR_NAMED_SPAN(span, "store/write-segment");
  Status status = MakeDir(dir);
  if (!status.ok()) return status;

  SegmentMeta meta;
  meta.snapshot_version = snapshot.version();
  meta.tbox_fingerprint = tbox_fingerprint;
  meta.concept_names.reserve(vocab.num_concepts());
  for (int id = 0; id < vocab.num_concepts(); ++id) {
    meta.concept_names.push_back(vocab.ConceptName(id));
  }
  meta.predicate_names.reserve(vocab.num_predicates());
  for (int id = 0; id < vocab.num_predicates(); ++id) {
    meta.predicate_names.push_back(vocab.PredicateName(id));
  }
  meta.individual_names.reserve(vocab.num_individuals());
  for (int id = 0; id < vocab.num_individuals(); ++id) {
    meta.individual_names.push_back(vocab.IndividualName(id));
  }

  // The active domain, as a header + raw i32 file like every column.
  {
    const std::vector<int>& adom = snapshot.active_domain();
    std::string file;
    AppendFileHeader(&file, FileType::kColumn);
    file.append(reinterpret_cast<const char*>(adom.data()),
                adom.size() * sizeof(int32_t));
    meta.num_adom = adom.size();
    meta.adom_crc = Crc32(file.data() + kFileHeaderBytes,
                          file.size() - kFileHeaderBytes);
    status = WriteFileDurable(dir + "/adom", file, fsync);
    if (!status.ok()) return status;
  }

  // One column file per non-empty relation.  Stored ids are the live ids at
  // write time (the name tables above make them portable); cold columns are
  // streamed from the snapshot's ColumnSource without being published.
  const auto emit = [&](bool role, int id,
                        const EdbRelation& rel) -> Status {
    if (rel.rows().size() == 0) return Status::Ok();
    ColumnInfo col;
    col.role = role;
    col.stored_id = static_cast<uint32_t>(id);
    col.arity = role ? 2 : 1;
    col.num_rows = rel.rows().size();
    const std::string file = EncodeColumnFile(rel.rows(), &col.crc);
    Status st = WriteFileDurable(dir + "/" + ColumnFileName(col), file, fsync);
    if (!st.ok()) return st;
    meta.columns.push_back(col);
    return Status::Ok();
  };
  for (const auto& [id, rel] : snapshot.concepts()) {
    status = emit(false, id, *rel);
    if (!status.ok()) return status;
  }
  for (const auto& [id, rel] : snapshot.roles()) {
    status = emit(true, id, *rel);
    if (!status.ok()) return status;
  }
  if (snapshot.column_source() != nullptr) {
    const ColumnSource& source = *snapshot.column_source();
    for (int id : snapshot.cold_concepts()) {
      status = emit(false, id, *source.LoadColumn(false, id));
      if (!status.ok()) return status;
    }
    for (int id : snapshot.cold_roles()) {
      status = emit(true, id, *source.LoadColumn(true, id));
      if (!status.ok()) return status;
    }
  }

  std::string meta_file;
  AppendFileHeader(&meta_file, FileType::kSegmentMeta);
  EncodeMeta(meta, &meta_file);
  status = WriteFileDurable(dir + "/META", meta_file, fsync);
  if (!status.ok()) return status;

  span.Attr("columns", static_cast<long>(meta.columns.size()));
  span.Attr("version", static_cast<long>(meta.snapshot_version));
  OWLQR_COUNT("store/segments_written", 1);
  return Status::Ok();
}

Status SegmentReader::Open(const std::string& dir,
                           std::shared_ptr<SegmentReader>* out) {
  OWLQR_NAMED_SPAN(span, "store/open-segment");
  std::shared_ptr<SegmentReader> reader(new SegmentReader());
  reader->dir_ = dir;

  std::string meta_bytes;
  Status status = ReadWholeFile(dir + "/META", &meta_bytes);
  if (!status.ok()) return status;
  const uint8_t* meta_data =
      reinterpret_cast<const uint8_t*>(meta_bytes.data());
  status = CheckFileHeader(meta_data, meta_bytes.size(),
                           FileType::kSegmentMeta, "segment META");
  if (!status.ok()) return status;
  status = DecodeMeta(meta_data + kFileHeaderBytes,
                      meta_bytes.size() - kFileHeaderBytes, &reader->meta_);
  if (!status.ok()) return status;

  // Map and CRC-check every column file now.  Recovery eats the cost once;
  // in exchange a cold-column fault during query evaluation can never fail.
  const auto check_column = [&](const std::string& path, MappedFile* map,
                                uint64_t num_rows, uint32_t arity,
                                uint32_t crc, const std::string& what) {
    Status st = map->Open(path);
    if (!st.ok()) return st;
    st = CheckFileHeader(map->data(), map->size(), FileType::kColumn, what);
    if (!st.ok()) return st;
    const size_t want = num_rows * static_cast<size_t>(arity) *
                        sizeof(int32_t);
    if (map->size() - kFileHeaderBytes != want) {
      return Status::DataLoss(what + ": " +
                              std::to_string(map->size() - kFileHeaderBytes) +
                              " cell bytes, META promised " +
                              std::to_string(want));
    }
    if (Crc32(map->data() + kFileHeaderBytes, want) != crc) {
      return Status::DataLoss(what + ": cell checksum mismatch");
    }
    // Cells are stored individual ids: bound them here, so a hostile file
    // with a self-consistent checksum still can't index the remap tables
    // out of bounds later.
    const int32_t* cells =
        reinterpret_cast<const int32_t*>(map->data() + kFileHeaderBytes);
    const int32_t limit =
        static_cast<int32_t>(reader->meta_.individual_names.size());
    for (size_t c = 0; c < want / sizeof(int32_t); ++c) {
      if (cells[c] < 0 || cells[c] >= limit) {
        return Status::DataLoss(what + ": cell " + std::to_string(c) +
                                " holds individual id " +
                                std::to_string(cells[c]) + ", table has " +
                                std::to_string(limit));
      }
    }
    return Status::Ok();
  };

  status = check_column(dir + "/adom", &reader->adom_map_, reader->meta_.num_adom,
                        1, reader->meta_.adom_crc, "segment adom");
  if (!status.ok()) return status;

  reader->column_maps_.resize(reader->meta_.columns.size());
  for (size_t i = 0; i < reader->meta_.columns.size(); ++i) {
    const ColumnInfo& col = reader->meta_.columns[i];
    const std::string name = ColumnFileName(col);
    status = check_column(dir + "/" + name, &reader->column_maps_[i],
                          col.num_rows, col.arity, col.crc,
                          "segment column " + name);
    if (!status.ok()) return status;
  }

  span.Attr("columns", static_cast<long>(reader->meta_.columns.size()));
  *out = std::move(reader);
  return Status::Ok();
}

Status SegmentReader::Bind(Vocabulary* vocab) {
  OWLQR_CHECK_MSG(!bound_, "SegmentReader::Bind called twice");
  bound_ = true;

  // Intern (not Find): a stored symbol the current ontology no longer
  // mentions is still data and must round-trip — interning is idempotent
  // for symbols that already exist.
  std::vector<int> concept_live(meta_.concept_names.size());
  for (size_t i = 0; i < meta_.concept_names.size(); ++i) {
    concept_live[i] = vocab->InternConcept(meta_.concept_names[i]);
  }
  std::vector<int> predicate_live(meta_.predicate_names.size());
  for (size_t i = 0; i < meta_.predicate_names.size(); ++i) {
    predicate_live[i] = vocab->InternPredicate(meta_.predicate_names[i]);
  }
  individual_live_.resize(meta_.individual_names.size());
  identity_individuals_ = true;
  for (size_t i = 0; i < meta_.individual_names.size(); ++i) {
    individual_live_[i] = vocab->InternIndividual(meta_.individual_names[i]);
    if (individual_live_[i] != static_cast<int>(i)) {
      identity_individuals_ = false;
    }
  }

  live_.reserve(meta_.columns.size());
  for (size_t i = 0; i < meta_.columns.size(); ++i) {
    const ColumnInfo& col = meta_.columns[i];
    LiveColumn live;
    live.role = col.role;
    live.live_id = col.role ? predicate_live[col.stored_id]
                            : concept_live[col.stored_id];
    live.arity = col.arity;
    live.num_rows = col.num_rows;
    live.bytes = static_cast<size_t>(col.num_rows) * col.arity *
                 sizeof(int32_t);
    live.index = i;
    auto& by_live = col.role ? role_by_live_ : concept_by_live_;
    if (!by_live.emplace(live.live_id, i).second) {
      return Status::DataLoss("segment META: two columns bind to live " +
                              std::string(col.role ? "role " : "concept ") +
                              std::to_string(live.live_id));
    }
    live_.push_back(live);
  }
  return Status::Ok();
}

std::vector<int> SegmentReader::LiveActiveDomain() const {
  OWLQR_CHECK_MSG(bound_, "SegmentReader used before Bind");
  const int32_t* cells =
      reinterpret_cast<const int32_t*>(adom_map_.data() + kFileHeaderBytes);
  std::vector<int> out(cells, cells + meta_.num_adom);
  if (!identity_individuals_) {
    for (int& id : out) id = individual_live_[id];
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::shared_ptr<const EdbRelation> SegmentReader::LoadColumn(bool role,
                                                             int id) const {
  OWLQR_CHECK_MSG(bound_, "SegmentReader used before Bind");
  const auto& by_live = role ? role_by_live_ : concept_by_live_;
  auto it = by_live.find(id);
  OWLQR_CHECK_MSG(it != by_live.end(),
                  "LoadColumn for an id the segment never advertised");
  const ColumnInfo& col = meta_.columns[it->second];
  const MappedFile& map = column_maps_[it->second];
  const int32_t* cells =
      reinterpret_cast<const int32_t*>(map.data() + kFileHeaderBytes);

  // A fresh store, so updates on the loaded snapshot append in place.
  auto store =
      std::make_shared<RowStore>(static_cast<int>(col.arity), col.num_rows);
  if (identity_individuals_) {
    // Fast path: stored ids == live ids, adopt the mmap'd arena verbatim.
    store->mutable_rows()->AdoptColumn(static_cast<int>(col.arity), cells,
                                       col.num_rows);
  } else {
    const size_t n_cells = col.num_rows * static_cast<size_t>(col.arity);
    std::vector<int> remapped(n_cells);
    for (size_t i = 0; i < n_cells; ++i) {
      remapped[i] = individual_live_[cells[i]];
    }
    // Remapping is injective (both sides are interned name tables), so the
    // rows stay distinct and AdoptColumn's no-duplicate contract holds.
    store->mutable_rows()->AdoptColumn(static_cast<int>(col.arity),
                                       remapped.data(), col.num_rows);
  }
  return std::make_shared<EdbRelation>(std::move(store));
}

}  // namespace store
}  // namespace owlqr
