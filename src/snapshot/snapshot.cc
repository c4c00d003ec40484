#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstring>
#include <limits>

#include "util/strings.h"

namespace aggchecker {
namespace snapshot {

namespace {

using db::Column;
using db::ColumnSnapshotData;
using db::Value;
using db::ValueType;
using fragments::FragmentCatalog;
using fragments::FragmentType;
using fragments::QueryFragment;
using ir::InvertedIndex;

Status Corrupt(const std::string& what) {
  return Status::ParseError("snapshot: " + what);
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

void WriteValue(ByteWriter* w, const Value& v) {
  w->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kLong:
      w->I64(v.AsLong());
      break;
    case ValueType::kDouble:
      // Raw 8 bytes: exact round trip including NaN payloads and -0.0.
      w->F64(v.AsDoubleExact());
      break;
    case ValueType::kString:
      w->Str(v.AsString());
      break;
  }
}

Value ReadValue(ByteReader* r) {
  switch (static_cast<ValueType>(r->U8())) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kLong:
      return Value(r->I64());
    case ValueType::kDouble:
      return Value(r->F64());
    case ValueType::kString:
      return Value(r->Str());
  }
  r->Fail();  // an unknown tag is malformed, never a NULL
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Columns: typed arrays with the exact semantics of Column::BuildFlat /
// BuildDictionary, so a loaded column is bit-identical to a rebuilt one.
// ---------------------------------------------------------------------------

constexpr uint8_t kHasLongs = 1;
constexpr uint8_t kHasDoubles = 2;
constexpr uint8_t kHasStrings = 4;

Status WriteColumn(ByteWriter* w, const Column& col) {
  const std::vector<Value>& values = col.values();
  const size_t rows = values.size();

  w->Str(col.name());
  w->U8(static_cast<uint8_t>(col.type()));
  w->U64(rows);
  w->U64(col.null_count());

  bool any_long = false, any_double = false, any_string = false;
  size_t heap_bytes = 0;
  for (const Value& v : values) {
    switch (v.type()) {
      case ValueType::kLong:
        any_long = true;
        break;
      case ValueType::kDouble:
        any_double = true;
        break;
      case ValueType::kString:
        any_string = true;
        heap_bytes += v.AsString().size();
        break;
      case ValueType::kNull:
        break;
    }
  }
  // The flat-view contract: numeric columns always expose `doubles`, LONG
  // columns always expose `longs` — even when every cell is NULL.
  const bool has_longs = any_long || col.type() == ValueType::kLong;
  const bool has_doubles = any_double || col.is_numeric();
  const bool has_strings = any_string;
  if (heap_bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::Unsupported(strings::Format(
        "snapshot: column %s string heap exceeds 4 GiB", col.name().c_str()));
  }
  w->U8(static_cast<uint8_t>((has_longs ? kHasLongs : 0) |
                             (has_doubles ? kHasDoubles : 0) |
                             (has_strings ? kHasStrings : 0)));

  w->Align8();
  for (const Value& v : values) w->U8(v.is_null() ? 1 : 0);
  for (const Value& v : values) w->U8(static_cast<uint8_t>(v.type()));
  w->Align8();
  if (has_longs) {
    // BuildFlat's `longs` formula: AsLong for LONG cells, 0 otherwise.
    for (const Value& v : values) {
      w->I64(v.type() == ValueType::kLong ? v.AsLong() : 0);
    }
  }
  if (has_doubles) {
    // BuildFlat's `doubles` formula: ToDouble of every cell, 0.0 for NULL.
    for (const Value& v : values) {
      w->F64(v.is_null() ? 0.0 : v.ToDouble());
    }
  }
  if (has_strings) {
    uint32_t offset = 0;
    for (const Value& v : values) {
      w->U32(offset);
      if (v.type() == ValueType::kString) {
        offset += static_cast<uint32_t>(v.AsString().size());
      }
    }
    w->U32(offset);
    for (const Value& v : values) {
      if (v.type() == ValueType::kString) {
        w->Raw(v.AsString().data(), v.AsString().size());
      }
    }
    w->Align8();
  }

  // Dictionary: serialized as built (builds it now if the source column
  // never did), so the loaded column's distinct ids and codes — and with
  // them cube bucketing and fragment order — match a fresh build.
  const std::vector<Value>& distinct = col.DistinctValues();
  const std::vector<int32_t>& codes = col.Codes();
  w->U32(static_cast<uint32_t>(distinct.size()));
  for (const Value& v : distinct) WriteValue(w, v);
  w->Align8();
  w->Raw(codes.data(), codes.size() * sizeof(int32_t));
  w->Align8();
  return Status::OK();
}

Result<std::unique_ptr<Column>> ReadColumn(
    ByteReader* r, const std::shared_ptr<const MappedFile>& image) {
  std::string name = r->Str();
  uint8_t type_tag = r->U8();
  uint64_t rows = r->U64();
  uint64_t null_count = r->U64();
  uint8_t flags = r->U8();
  if (!r->ok() || type_tag > static_cast<uint8_t>(ValueType::kString) ||
      rows > r->remaining() || null_count > rows) {
    return Corrupt("malformed column header");
  }
  ValueType type = static_cast<ValueType>(type_tag);

  ColumnSnapshotData data;
  data.rows = rows;
  data.null_count = null_count;
  data.keepalive = image;

  r->Align8();
  data.nulls = r->Array<uint8_t>(rows);
  data.tags = r->Array<uint8_t>(rows);
  r->Align8();
  if (flags & kHasLongs) data.longs = r->Array<int64_t>(rows);
  if (flags & kHasDoubles) data.doubles = r->Array<double>(rows);
  if (flags & kHasStrings) {
    data.string_offsets = r->Array<uint32_t>(rows + 1);
    if (!r->ok()) return Corrupt("truncated column strings");
    data.string_heap = reinterpret_cast<const char*>(
        r->Bytes(data.string_offsets[rows]));
    r->Align8();
  }

  uint32_t distinct_count = r->U32();
  if (!r->ok() || distinct_count > rows) {
    return Corrupt("malformed column dictionary");
  }
  data.distinct.reserve(distinct_count);
  for (uint32_t i = 0; i < distinct_count; ++i) {
    data.distinct.push_back(ReadValue(r));
  }
  r->Align8();
  data.codes = r->Array<int32_t>(rows);
  r->Align8();
  if (!r->ok()) return Corrupt("truncated or malformed column payload");

  // The arrays must agree with each other as a build would leave them, or
  // a kernel, the boxed values and the dictionary would each read the
  // column differently, some past an array's end. The checksums passed,
  // so a failure here is a writer bug or a deliberate edit.
  if ((type == ValueType::kLong || type == ValueType::kDouble) &&
      data.doubles == nullptr) {
    return Corrupt("numeric column without doubles");
  }
  if (data.string_offsets != nullptr && data.string_offsets[0] != 0) {
    return Corrupt("string offsets do not start at 0");
  }
  uint64_t null_cells = 0;
  for (uint64_t row = 0; row < rows; ++row) {
    if (data.tags[row] > static_cast<uint8_t>(ValueType::kString)) {
      return Corrupt("unknown cell tag");
    }
    const ValueType cell = static_cast<ValueType>(data.tags[row]);
    const bool is_null = cell == ValueType::kNull;
    if ((cell == ValueType::kLong && data.longs == nullptr) ||
        (cell == ValueType::kDouble && data.doubles == nullptr) ||
        (cell == ValueType::kString && data.string_heap == nullptr)) {
      return Corrupt("cell without backing array");
    }
    if ((data.nulls[row] != 0) != is_null) {
      return Corrupt("NULL flag disagrees with cell tag");
    }
    null_cells += is_null ? 1 : 0;
    const int32_t code = data.codes[row];
    if (is_null ? code != -1
                : (code < 0 || static_cast<uint32_t>(code) >= distinct_count)) {
      return Corrupt("dictionary code out of range");
    }
    if (data.string_offsets != nullptr &&
        data.string_offsets[row + 1] < data.string_offsets[row]) {
      return Corrupt("string offsets decrease");
    }
  }
  if (null_cells != null_count) {
    return Corrupt("NULL count disagrees with NULL flags");
  }
  return Column::FromSnapshot(std::move(name), type, std::move(data));
}

// ---------------------------------------------------------------------------
// Database section
// ---------------------------------------------------------------------------

Status WriteDatabase(ByteWriter* w, const db::Database& db) {
  w->Str(db.name());
  w->U32(static_cast<uint32_t>(db.num_tables()));
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const db::Table& table = db.table(t);
    w->Str(table.name());
    w->U32(static_cast<uint32_t>(table.num_columns()));
    w->U64(table.num_rows());
    w->U64(table.version());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      Status s = WriteColumn(w, table.column(c));
      if (!s.ok()) return s;
    }
  }
  const auto& fks = db.foreign_keys();
  w->U32(static_cast<uint32_t>(fks.size()));
  for (const db::ForeignKey& fk : fks) {
    w->Str(fk.from.table);
    w->Str(fk.from.column);
    w->Str(fk.to.table);
    w->Str(fk.to.column);
  }
  w->Align8();
  return Status::OK();
}

Result<db::Database> ReadDatabase(
    ByteReader* r, const std::shared_ptr<const MappedFile>& image) {
  db::Database database(r->Str());
  uint32_t num_tables = r->U32();
  if (!r->ok() || num_tables > r->remaining()) {
    return Corrupt("malformed database header");
  }
  for (uint32_t t = 0; t < num_tables; ++t) {
    std::string table_name = r->Str();
    uint32_t num_columns = r->U32();
    uint64_t num_rows = r->U64();
    uint64_t data_version = r->U64();
    if (!r->ok() || num_columns > r->remaining() || data_version == 0) {
      return Corrupt("malformed table header");
    }
    std::vector<std::unique_ptr<Column>> columns;
    columns.reserve(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      auto column = ReadColumn(r, image);
      if (!column.ok()) return column.status();
      columns.push_back(std::move(*column));
    }
    auto table = db::Table::FromSnapshotParts(
        std::move(table_name), std::move(columns), num_rows, data_version);
    if (!table.ok()) return table.status();
    Status s = database.AddTable(std::move(*table));
    if (!s.ok()) return s;
  }
  uint32_t num_fks = r->U32();
  if (!r->ok() || num_fks > r->remaining()) {
    return Corrupt("malformed foreign keys");
  }
  for (uint32_t i = 0; i < num_fks; ++i) {
    db::ColumnRef from{r->Str(), r->Str()};
    db::ColumnRef to{r->Str(), r->Str()};
    if (!r->ok()) return Corrupt("truncated foreign key");
    Status s = database.AddForeignKey(from, to);
    if (!s.ok()) return s;
  }
  return database;
}

// ---------------------------------------------------------------------------
// Catalog section
// ---------------------------------------------------------------------------

void WriteIndex(ByteWriter* w, const InvertedIndex& index) {
  const std::vector<double>& norms = index.doc_norms();
  w->U32(static_cast<uint32_t>(norms.size()));
  w->Align8();
  w->Raw(norms.data(), norms.size() * sizeof(double));
  std::vector<InvertedIndex::TermPostings> postings = index.ExportPostings();
  w->U32(static_cast<uint32_t>(postings.size()));
  for (const auto& tp : postings) {
    w->Str(tp.term);
    w->U32(static_cast<uint32_t>(tp.postings.size()));
    w->Align8();
    // Split id / weight arrays: fixed-width on disk regardless of struct
    // padding, and 8-alignable for the weights.
    for (const auto& p : tp.postings) w->I32(p.doc_id);
    w->Align8();
    for (const auto& p : tp.postings) w->F64(p.weight);
  }
  w->Align8();
}

Result<InvertedIndex> ReadIndex(ByteReader* r) {
  uint32_t num_docs = r->U32();
  r->Align8();
  if (!r->ok() || num_docs > r->remaining()) return Corrupt("index norms");
  const double* norms = r->Array<double>(num_docs);
  uint32_t num_terms = r->U32();
  if (!r->ok() || num_terms > r->remaining()) return Corrupt("index terms");
  std::vector<InvertedIndex::TermPostings> postings;
  postings.reserve(num_terms);
  for (uint32_t i = 0; i < num_terms; ++i) {
    InvertedIndex::TermPostings tp;
    tp.term = r->Str();
    uint32_t n = r->U32();
    r->Align8();
    if (!r->ok() || n > r->remaining()) return Corrupt("index postings");
    const int32_t* ids = r->Array<int32_t>(n);
    r->Align8();
    const double* weights = r->Array<double>(n);
    if (!r->ok()) return Corrupt("truncated index postings");
    tp.postings.reserve(n);
    for (uint32_t p = 0; p < n; ++p) {
      tp.postings.push_back(InvertedIndex::Posting{ids[p], weights[p]});
    }
    postings.push_back(std::move(tp));
  }
  r->Align8();
  if (!r->ok()) return Corrupt("truncated index");
  return InvertedIndex::FromParts(
      std::move(postings), std::vector<double>(norms, norms + num_docs));
}

void WriteCatalog(ByteWriter* w, const FragmentCatalog& catalog) {
  for (int t = 0; t < fragments::kNumFragmentTypes; ++t) {
    FragmentType type = static_cast<FragmentType>(t);
    const auto& frags = catalog.fragments(type);
    w->U32(static_cast<uint32_t>(frags.size()));
    for (const QueryFragment& f : frags) {
      w->U8(static_cast<uint8_t>(f.type));
      w->U8(static_cast<uint8_t>(f.fn));
      w->Str(f.column.table);
      w->Str(f.column.column);
      WriteValue(w, f.value);
    }
    WriteIndex(w, catalog.index(type));
  }
  const auto& pred_columns = catalog.predicate_columns();
  w->U32(static_cast<uint32_t>(pred_columns.size()));
  for (const db::ColumnRef& ref : pred_columns) {
    w->Str(ref.table);
    w->Str(ref.column);
  }
  w->Align8();
}

Result<FragmentCatalog> ReadCatalog(ByteReader* r) {
  FragmentCatalog::Parts parts;
  for (int t = 0; t < fragments::kNumFragmentTypes; ++t) {
    uint32_t num_fragments = r->U32();
    if (!r->ok() || num_fragments > r->remaining()) {
      return Corrupt("malformed catalog");
    }
    parts.fragments[t].reserve(num_fragments);
    for (uint32_t i = 0; i < num_fragments; ++i) {
      QueryFragment f;
      const uint8_t type = r->U8();
      const uint8_t fn = r->U8();
      f.type = static_cast<FragmentType>(type);
      f.fn = static_cast<db::AggFn>(fn);
      f.column.table = r->Str();
      f.column.column = r->Str();
      f.value = ReadValue(r);
      if (!r->ok() || type != t || fn >= db::kNumAggFns) {
        return Corrupt("truncated or malformed catalog fragment");
      }
      parts.fragments[t].push_back(std::move(f));
    }
    auto index = ReadIndex(r);
    if (!index.ok()) return index.status();
    parts.indexes[t] = std::move(*index);
  }
  uint32_t num_pred_columns = r->U32();
  if (!r->ok() || num_pred_columns > r->remaining()) {
    return Corrupt("malformed predicate columns");
  }
  parts.predicate_columns.reserve(num_pred_columns);
  for (uint32_t i = 0; i < num_pred_columns; ++i) {
    db::ColumnRef ref;
    ref.table = r->Str();
    ref.column = r->Str();
    parts.predicate_columns.push_back(std::move(ref));
  }
  if (!r->ok()) return Corrupt("truncated catalog");
  return FragmentCatalog::FromParts(std::move(parts));
}

// ---------------------------------------------------------------------------
// File assembly
// ---------------------------------------------------------------------------

Status WriteFileAtomic(const std::string& path, const FileHeader& header,
                       const std::vector<SectionEntry>& table,
                       const std::vector<const ByteWriter*>& sections) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("snapshot: cannot open " + tmp);
  }
  auto write_all = [f](const void* data, size_t size) {
    return size == 0 || std::fwrite(data, 1, size, f) == size;
  };
  bool ok = write_all(&header, sizeof(header)) &&
            write_all(table.data(), table.size() * sizeof(SectionEntry));
  for (const ByteWriter* w : sections) {
    ok = ok && write_all(w->bytes().data(), w->size());
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Unavailable("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("snapshot: cannot rename into " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const std::string& path, const db::Database& db,
                     const fragments::FragmentCatalog* catalog,
                     SnapshotStats* stats) {
  ByteWriter db_section;
  Status s = WriteDatabase(&db_section, db);
  if (!s.ok()) return s;

  ByteWriter catalog_section;
  if (catalog != nullptr) WriteCatalog(&catalog_section, *catalog);

  std::vector<std::pair<SectionKind, const ByteWriter*>> sections;
  sections.push_back({SectionKind::kDatabase, &db_section});
  if (catalog != nullptr) {
    sections.push_back({SectionKind::kCatalog, &catalog_section});
  }

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = static_cast<uint32_t>(sections.size());

  std::vector<SectionEntry> table;
  std::vector<const ByteWriter*> payloads;
  // Sections start right after the table; every section buffer ends on an
  // Align8, so each offset stays 8-aligned.
  uint64_t offset = sizeof(FileHeader) + sections.size() * sizeof(SectionEntry);
  for (const auto& [kind, w] : sections) {
    SectionEntry entry;
    entry.kind = static_cast<uint32_t>(kind);
    entry.reserved = 0;
    entry.offset = offset;
    entry.size = w->size();
    entry.checksum = Fnv1a64(
        reinterpret_cast<const uint8_t*>(w->bytes().data()), w->size());
    table.push_back(entry);
    payloads.push_back(w);
    offset += w->size();
  }
  header.table_checksum =
      Fnv1a64(reinterpret_cast<const uint8_t*>(table.data()),
              table.size() * sizeof(SectionEntry));

  s = WriteFileAtomic(path, header, table, payloads);
  if (!s.ok()) return s;
  if (stats != nullptr) {
    stats->file_bytes = offset;
    stats->database_bytes = db_section.size();
    stats->catalog_bytes = catalog_section.size();
  }
  return Status::OK();
}

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  auto mapped = MappedFile::Map(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<const MappedFile> image = std::move(*mapped);
  const uint8_t* data = image->data();
  const size_t size = image->size();

  if (size < sizeof(FileHeader)) return Corrupt("file shorter than header");
  FileHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a snapshot file)");
  }
  if (header.version != kFormatVersion) {
    return Status::Unsupported(strings::Format(
        "snapshot format version %u, this reader expects %u",
        header.version, kFormatVersion));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_count > 64 ||
      sizeof(FileHeader) + table_bytes > size) {
    return Corrupt("malformed section table");
  }
  if (Fnv1a64(data + sizeof(FileHeader), table_bytes) !=
      header.table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), data + sizeof(FileHeader), table_bytes);
  const SectionEntry* db_entry = nullptr;
  const SectionEntry* catalog_entry = nullptr;
  for (const SectionEntry& entry : table) {
    if (entry.offset % 8 != 0 || entry.offset > size ||
        entry.size > size - entry.offset) {
      return Corrupt("section out of bounds");
    }
    if (Fnv1a64(data + entry.offset, entry.size) != entry.checksum) {
      return Corrupt(strings::Format("section %u checksum mismatch",
                                     entry.kind));
    }
    switch (static_cast<SectionKind>(entry.kind)) {
      case SectionKind::kDatabase:
        db_entry = &entry;
        break;
      case SectionKind::kCatalog:
        catalog_entry = &entry;
        break;
      default:
        break;  // unknown sections are ignored, not fatal
    }
  }
  if (db_entry == nullptr) return Corrupt("no database section");

  LoadedSnapshot loaded;
  {
    ByteReader r(data + db_entry->offset, db_entry->size, db_entry->offset);
    auto database = ReadDatabase(&r, image);
    if (!database.ok()) return database.status();
    loaded.database = std::move(*database);
  }
  if (catalog_entry != nullptr) {
    ByteReader r(data + catalog_entry->offset, catalog_entry->size,
                 catalog_entry->offset);
    auto catalog = ReadCatalog(&r);
    if (!catalog.ok()) return catalog.status();
    loaded.catalog = std::make_shared<const fragments::FragmentCatalog>(
        std::move(*catalog));
  }
  return loaded;
}

}  // namespace snapshot
}  // namespace aggchecker
