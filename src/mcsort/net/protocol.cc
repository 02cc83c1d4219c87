#include "mcsort/net/protocol.h"

#include <algorithm>
#include <cstring>

namespace mcsort {
namespace net {
namespace {

// Clause-count sanity bound. Real specs have a handful of entries; a
// decoder that trusts a u16 count of 65535 would loop pointlessly over a
// short payload (each entry read fails), so cap early instead.
constexpr uint32_t kMaxClauseCount = 256;

bool ValidCount(const WireReader& reader, uint32_t count,
                size_t min_entry_bytes) {
  return count <= kMaxClauseCount &&
         count * min_entry_bytes <= reader.remaining();
}

template <typename T>
void WriteArraySlice(WireWriter* w, const T* data, size_t count) {
  w->U32(static_cast<uint32_t>(count));
  w->Bytes(data, count * sizeof(T));
}

}  // namespace

// --------------------------------------------------------------------------
// HELLO
// --------------------------------------------------------------------------

std::string EncodeHello(const HelloRequest& hello) {
  std::string out;
  WireWriter w(&out);
  w.U16(hello.version);
  w.U32(hello.capabilities);
  w.Str(hello.client_name);
  return out;
}

bool DecodeHello(const std::string& payload, HelloRequest* hello) {
  WireReader r(payload);
  hello->version = r.U16();
  hello->capabilities = r.U32();
  hello->client_name = r.Str();
  return r.ok();
}

std::string EncodeHelloReply(const HelloReply& reply) {
  std::string out;
  WireWriter w(&out);
  w.U16(reply.version);
  w.U16(reply.min_version);
  w.U32(reply.capabilities);
  w.Str(reply.server_name);
  w.Str(reply.default_table);
  return out;
}

bool DecodeHelloReply(const std::string& payload, HelloReply* reply) {
  WireReader r(payload);
  reply->version = r.U16();
  reply->min_version = r.U16();
  reply->capabilities = r.U32();
  reply->server_name = r.Str();
  reply->default_table = r.Str();
  return r.ok();
}

// --------------------------------------------------------------------------
// ERROR
// --------------------------------------------------------------------------

std::string EncodeError(const ErrorInfo& error) {
  std::string out;
  WireWriter w(&out);
  w.U16(static_cast<uint16_t>(error.code));
  w.Str(error.detail);
  return out;
}

bool DecodeError(const std::string& payload, ErrorInfo* error) {
  WireReader r(payload);
  error->code = static_cast<ErrorCode>(r.U16());
  error->detail = r.Str();
  return r.ok();
}

// --------------------------------------------------------------------------
// QUERY
// --------------------------------------------------------------------------

std::string EncodeQuery(const QueryEnvelope& query) {
  std::string out;
  WireWriter w(&out);
  w.U64(query.deadline_micros);
  w.Str(query.table);
  const QuerySpec& spec = query.spec;
  w.Str(spec.id);
  w.U16(static_cast<uint16_t>(spec.filters.size()));
  for (const FilterSpec& f : spec.filters) {
    w.Str(f.column);
    w.U8(static_cast<uint8_t>(f.op));
    w.U8(f.is_between ? 1 : 0);
    w.U64(f.literal);
    w.U64(f.literal2);
  }
  w.U16(static_cast<uint16_t>(spec.group_by.size()));
  for (const std::string& c : spec.group_by) w.Str(c);
  w.U16(static_cast<uint16_t>(spec.order_by.size()));
  for (const auto& [column, order] : spec.order_by) {
    w.Str(column);
    w.U8(static_cast<uint8_t>(order));
  }
  w.U16(static_cast<uint16_t>(spec.partition_by.size()));
  for (const std::string& c : spec.partition_by) w.Str(c);
  w.Str(spec.window_order_column);
  w.U16(static_cast<uint16_t>(spec.aggregates.size()));
  for (const AggregateSpec& a : spec.aggregates) {
    w.U8(static_cast<uint8_t>(a.op));
    w.Str(a.column);
  }
  w.U16(static_cast<uint16_t>(spec.result_order.size()));
  for (const ResultOrderSpec& ro : spec.result_order) {
    w.Str(ro.key);
    w.U8(static_cast<uint8_t>(ro.order));
  }
  // Protocol v2: distributed execution fields.
  w.U8(spec.fixed_column_order ? 1 : 0);
  w.U16(static_cast<uint16_t>(
      std::clamp(spec.merge_fan_in, 0, 65535)));
  w.U8(query.want_merge_keys ? 1 : 0);
  return out;
}

bool DecodeQuery(const std::string& payload, QueryEnvelope* query) {
  WireReader r(payload);
  query->deadline_micros = r.U64();
  query->table = r.Str();
  QuerySpec& spec = query->spec;
  spec = QuerySpec();
  spec.id = r.Str();

  const uint16_t n_filters = r.U16();
  if (!ValidCount(r, n_filters, 2 + 2 + 16)) return false;
  spec.filters.resize(n_filters);
  for (FilterSpec& f : spec.filters) {
    f.column = r.Str();
    const uint8_t op = r.U8();
    if (op > static_cast<uint8_t>(CompareOp::kNeq)) return false;
    f.op = static_cast<CompareOp>(op);
    f.is_between = r.U8() != 0;
    f.literal = r.U64();
    f.literal2 = r.U64();
  }

  const uint16_t n_group = r.U16();
  if (!ValidCount(r, n_group, 2)) return false;
  spec.group_by.resize(n_group);
  for (std::string& c : spec.group_by) c = r.Str();

  const uint16_t n_order = r.U16();
  if (!ValidCount(r, n_order, 3)) return false;
  spec.order_by.resize(n_order);
  for (auto& [column, order] : spec.order_by) {
    column = r.Str();
    const uint8_t o = r.U8();
    if (o > static_cast<uint8_t>(SortOrder::kDescending)) return false;
    order = static_cast<SortOrder>(o);
  }

  const uint16_t n_partition = r.U16();
  if (!ValidCount(r, n_partition, 2)) return false;
  spec.partition_by.resize(n_partition);
  for (std::string& c : spec.partition_by) c = r.Str();
  spec.window_order_column = r.Str();

  const uint16_t n_aggs = r.U16();
  if (!ValidCount(r, n_aggs, 3)) return false;
  spec.aggregates.resize(n_aggs);
  for (AggregateSpec& a : spec.aggregates) {
    const uint8_t op = r.U8();
    if (op > static_cast<uint8_t>(AggOp::kMax)) return false;
    a.op = static_cast<AggOp>(op);
    a.column = r.Str();
  }

  const uint16_t n_ro = r.U16();
  if (!ValidCount(r, n_ro, 3)) return false;
  spec.result_order.resize(n_ro);
  for (ResultOrderSpec& ro : spec.result_order) {
    ro.key = r.Str();
    const uint8_t o = r.U8();
    if (o > static_cast<uint8_t>(SortOrder::kDescending)) return false;
    ro.order = static_cast<SortOrder>(o);
  }
  spec.fixed_column_order = r.U8() != 0;
  spec.merge_fan_in = r.U16();
  query->want_merge_keys = r.U8() != 0;
  // Trailing garbage after a well-formed spec is a framing lie: reject.
  return r.AtEnd();
}

// --------------------------------------------------------------------------
// SCHEMA
// --------------------------------------------------------------------------

TableSchema SchemaOf(const std::string& name, const Table& table) {
  TableSchema schema;
  schema.name = name;
  schema.row_count = table.row_count();
  for (const std::string& column_name : table.column_names()) {
    const EncodedColumn& column = table.column(column_name);
    ColumnInfo info;
    info.name = column_name;
    info.width = column.width();
    info.physical_bytes = BytesOfPhysicalType(column.type());
    info.has_dictionary = table.HasDictionary(column_name);
    info.domain_base = table.domain_base(column_name);
    schema.columns.push_back(std::move(info));
  }
  return schema;
}

std::string EncodeSchemaReply(const SchemaReply& reply) {
  std::string out;
  WireWriter w(&out);
  w.U16(static_cast<uint16_t>(reply.tables.size()));
  for (const TableSchema& table : reply.tables) {
    w.Str(table.name);
    w.U64(table.row_count);
    w.U64(table.epoch);
    w.U64(table.delta_rows);
    w.U16(static_cast<uint16_t>(table.columns.size()));
    for (const ColumnInfo& c : table.columns) {
      w.Str(c.name);
      w.U8(static_cast<uint8_t>(c.width));
      w.U8(static_cast<uint8_t>(c.physical_bytes));
      w.U8(c.has_dictionary ? 1 : 0);
      w.I64(c.domain_base);
    }
  }
  return out;
}

bool DecodeSchemaReply(const std::string& payload, SchemaReply* reply) {
  WireReader r(payload);
  const uint16_t n_tables = r.U16();
  if (!ValidCount(r, n_tables, 12)) return false;
  reply->tables.resize(n_tables);
  for (TableSchema& table : reply->tables) {
    table.name = r.Str();
    table.row_count = r.U64();
    table.epoch = r.U64();
    table.delta_rows = r.U64();
    const uint16_t n_cols = r.U16();
    if (!ValidCount(r, n_cols, 2 + 3 + 8)) return false;
    table.columns.resize(n_cols);
    for (ColumnInfo& c : table.columns) {
      c.name = r.Str();
      c.width = r.U8();
      c.physical_bytes = r.U8();
      c.has_dictionary = r.U8() != 0;
      c.domain_base = r.I64();
    }
  }
  return r.ok();
}

// --------------------------------------------------------------------------
// DML
// --------------------------------------------------------------------------

namespace {

// Rows per DML frame. The ceiling keeps one decoded command's memory
// proportional to its payload; bulk loads batch into multiple frames.
constexpr uint32_t kMaxDmlRows = 4096;

constexpr uint8_t kDmlTagInt = 0;
constexpr uint8_t kDmlTagString = 1;

void WriteDmlValue(WireWriter* w, const delta::DmlValue& value) {
  if (value.is_string) {
    w->U8(kDmlTagString);
    w->Str(value.str);
  } else {
    w->U8(kDmlTagInt);
    w->I64(value.i64);
  }
}

bool ReadDmlValue(WireReader* r, delta::DmlValue* value) {
  const uint8_t tag = r->U8();
  if (tag == kDmlTagInt) {
    value->is_string = false;
    value->i64 = r->I64();
  } else if (tag == kDmlTagString) {
    value->is_string = true;
    value->str = r->Str();
  } else {
    return false;
  }
  return r->ok();
}

}  // namespace

std::string EncodeDml(const delta::DmlCommand& cmd) {
  std::string out;
  WireWriter w(&out);
  w.U8(static_cast<uint8_t>(cmd.op));
  w.Str(cmd.table);
  w.U16(static_cast<uint16_t>(cmd.columns.size()));
  for (const std::string& c : cmd.columns) w.Str(c);
  w.U32(static_cast<uint32_t>(cmd.rows.size()));
  for (const std::vector<delta::DmlValue>& row : cmd.rows) {
    // Arity is structural on the wire: exactly one value per named column.
    for (size_t k = 0; k < cmd.columns.size(); ++k) {
      WriteDmlValue(&w, k < row.size() ? row[k]
                                       : delta::DmlValue::Int(0));
    }
  }
  w.U8(cmd.has_predicate ? 1 : 0);
  if (cmd.has_predicate) {
    w.Str(cmd.predicate.column);
    w.U8(static_cast<uint8_t>(cmd.predicate.op));
    WriteDmlValue(&w, cmd.predicate.value);
  }
  return out;
}

bool DecodeDml(const std::string& payload, delta::DmlCommand* cmd) {
  WireReader r(payload);
  const uint8_t op = r.U8();
  if (op < static_cast<uint8_t>(delta::DmlOp::kInsert) ||
      op > static_cast<uint8_t>(delta::DmlOp::kUpdate)) {
    return false;
  }
  cmd->op = static_cast<delta::DmlOp>(op);
  cmd->table = r.Str();

  const uint16_t n_columns = r.U16();
  if (!ValidCount(r, n_columns, 2)) return false;
  cmd->columns.resize(n_columns);
  for (std::string& c : cmd->columns) c = r.Str();

  const uint32_t n_rows = r.U32();
  // Each value is at least a tag byte; an absurd count over a short
  // payload is rejected before any allocation happens.
  const size_t min_row_bytes = n_columns > 0 ? size_t{n_columns} : 1;
  if (n_rows > kMaxDmlRows || n_rows * min_row_bytes > r.remaining()) {
    return false;
  }
  cmd->rows.resize(n_rows);
  for (std::vector<delta::DmlValue>& row : cmd->rows) {
    row.resize(n_columns);
    for (delta::DmlValue& value : row) {
      if (!ReadDmlValue(&r, &value)) return false;
    }
  }

  cmd->has_predicate = r.U8() != 0;
  if (cmd->has_predicate) {
    cmd->predicate.column = r.Str();
    const uint8_t pred_op = r.U8();
    if (pred_op > static_cast<uint8_t>(delta::DmlCompareOp::kGe)) return false;
    cmd->predicate.op = static_cast<delta::DmlCompareOp>(pred_op);
    if (!ReadDmlValue(&r, &cmd->predicate.value)) return false;
  }
  // Trailing garbage after a well-formed command is a framing lie: reject.
  return r.AtEnd();
}

std::string EncodeDmlReply(const DmlReply& reply) {
  std::string out;
  WireWriter w(&out);
  w.U8(reply.ok ? 1 : 0);
  w.U8(reply.status_code);
  w.Str(reply.detail);
  w.U64(reply.rows_affected);
  w.U64(reply.rows_rejected);
  w.U64(reply.delta_rows);
  w.U64(reply.epoch);
  const size_t n_errors = std::min<size_t>(reply.row_errors.size(),
                                           kMaxClauseCount);
  w.U16(static_cast<uint16_t>(n_errors));
  for (size_t i = 0; i < n_errors; ++i) {
    const delta::DmlRowError& e = reply.row_errors[i];
    w.U32(e.row);
    w.U8(static_cast<uint8_t>(e.code));
    w.Str(e.detail);
  }
  return out;
}

bool DecodeDmlReply(const std::string& payload, DmlReply* reply) {
  WireReader r(payload);
  reply->ok = r.U8() != 0;
  reply->status_code = r.U8();
  if (reply->status_code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return false;
  }
  reply->detail = r.Str();
  reply->rows_affected = r.U64();
  reply->rows_rejected = r.U64();
  reply->delta_rows = r.U64();
  reply->epoch = r.U64();
  const uint16_t n_errors = r.U16();
  if (!ValidCount(r, n_errors, 4 + 1 + 2)) return false;
  reply->row_errors.resize(n_errors);
  for (delta::DmlRowError& e : reply->row_errors) {
    e.row = r.U32();
    const uint8_t code = r.U8();
    if (code > static_cast<uint8_t>(StatusCode::kInternal)) return false;
    e.code = static_cast<StatusCode>(code);
    e.detail = r.Str();
  }
  return r.AtEnd();
}

// --------------------------------------------------------------------------
// SAVE_TABLE / LOAD_TABLE
// --------------------------------------------------------------------------

std::string EncodeTableOp(const TableOpRequest& request) {
  std::string out;
  WireWriter w(&out);
  w.Str(request.table);
  return out;
}

bool DecodeTableOp(const std::string& payload, TableOpRequest* request) {
  WireReader r(payload);
  request->table = r.Str();
  return r.AtEnd();
}

std::string EncodeTableOpReply(const TableOpReply& reply) {
  std::string out;
  WireWriter w(&out);
  w.U8(reply.ok ? 1 : 0);
  w.U8(reply.status_code);
  w.Str(reply.detail);
  w.F64(reply.seconds);
  w.U64(reply.rows);
  return out;
}

bool DecodeTableOpReply(const std::string& payload, TableOpReply* reply) {
  WireReader r(payload);
  reply->ok = r.U8() != 0;
  reply->status_code = r.U8();
  reply->detail = r.Str();
  reply->seconds = r.F64();
  reply->rows = r.U64();
  return r.ok();
}

// --------------------------------------------------------------------------
// RESULT stream
// --------------------------------------------------------------------------

namespace {

std::string EncodeSummaryChunk(const QueryResult& result) {
  std::string out;
  WireWriter w(&out);
  w.U8(static_cast<uint8_t>(ResultSection::kSummary));
  w.U64(result.input_rows);
  w.U64(result.filtered_rows);
  w.U64(result.num_groups);
  w.F64(result.scan_seconds);
  w.F64(result.materialize_seconds);
  w.F64(result.plan_seconds);
  w.F64(result.mcs_seconds);
  w.F64(result.post_seconds);
  w.U8(result.degraded ? 1 : 0);
  w.U32(static_cast<uint32_t>(result.bank_cap));
  w.U16(static_cast<uint16_t>(result.aggregate_values.size()));
  return out;
}

// Splits one array into data chunks of at most `chunk_bytes` element data.
// Each frame is built once: the array bytes go straight behind a reserved
// header, which SealFrameInPlace fills after checksumming them in place.
template <typename T>
void ChunkArray(ResultSection section, uint16_t index, const T* data,
                size_t count, size_t chunk_bytes, uint64_t request_id,
                bool is_final_section, std::vector<std::string>* frames) {
  constexpr size_t kChunkPrefix = 1 + 2 + 4;  // section, index, count
  const size_t per_chunk = std::max<size_t>(1, chunk_bytes / sizeof(T));
  size_t offset = 0;
  do {
    const size_t n = std::min(per_chunk, count - offset);
    std::string frame;
    frame.reserve(kHeaderSize + kChunkPrefix + n * sizeof(T));
    frame.resize(kHeaderSize);
    WireWriter w(&frame);
    w.U8(static_cast<uint8_t>(section));
    w.U16(index);
    WriteArraySlice(&w, data + offset, n);
    offset += n;
    const bool last = is_final_section && offset >= count;
    SealFrameInPlace(FrameType::kResult, last ? kFlagLastChunk : 0,
                     request_id, &frame);
    frames->push_back(std::move(frame));
  } while (offset < count);
}

}  // namespace

void BuildResultFrames(uint64_t request_id, const QueryResult& result,
                       size_t chunk_bytes, std::vector<std::string>* frames,
                       const ResultExtras* extras) {
  // Collect the non-empty sections first so the last chunk of the last
  // section can carry the end-of-stream flag.
  struct Section {
    ResultSection id;
    uint16_t index;
    const void* data;
    size_t count;
    size_t elem;
  };
  std::vector<Section> sections;
  for (size_t i = 0; i < result.aggregate_values.size(); ++i) {
    const std::vector<int64_t>& values = result.aggregate_values[i];
    if (!values.empty()) {
      sections.push_back({ResultSection::kAggregateValues,
                          static_cast<uint16_t>(i), values.data(),
                          values.size(), sizeof(int64_t)});
    }
  }
  if (!result.aggregate_avg.empty()) {
    sections.push_back({ResultSection::kAggregateAvg, 0,
                        result.aggregate_avg.data(),
                        result.aggregate_avg.size(), sizeof(double)});
  }
  if (!result.ranks.empty()) {
    sections.push_back({ResultSection::kRanks, 0, result.ranks.data(),
                        result.ranks.size(), sizeof(uint32_t)});
  }
  if (!result.result_oids.empty()) {
    sections.push_back({ResultSection::kResultOids, 0,
                        result.result_oids.data(), result.result_oids.size(),
                        sizeof(uint32_t)});
  }
  if (!result.result_group_order.empty()) {
    sections.push_back({ResultSection::kGroupOrder, 0,
                        result.result_group_order.data(),
                        result.result_group_order.size(), sizeof(uint32_t)});
  }
  if (extras != nullptr) {
    if (!extras->merge_key_hi.empty()) {
      sections.push_back({ResultSection::kMergeKeyHi, 0,
                          extras->merge_key_hi.data(),
                          extras->merge_key_hi.size(), sizeof(uint64_t)});
    }
    if (!extras->merge_key_lo.empty()) {
      sections.push_back({ResultSection::kMergeKeyLo, 0,
                          extras->merge_key_lo.data(),
                          extras->merge_key_lo.size(), sizeof(uint64_t)});
    }
    if (!extras->group_sizes.empty()) {
      sections.push_back({ResultSection::kGroupSizes, 0,
                          extras->group_sizes.data(),
                          extras->group_sizes.size(), sizeof(uint32_t)});
    }
    if (!extras->global_oids.empty()) {
      sections.push_back({ResultSection::kGlobalOids, 0,
                          extras->global_oids.data(),
                          extras->global_oids.size(), sizeof(uint32_t)});
    }
  }

  const bool summary_is_last = sections.empty();
  frames->push_back(SealFrame(FrameType::kResult,
                              summary_is_last ? kFlagLastChunk : 0,
                              request_id, EncodeSummaryChunk(result)));
  for (size_t s = 0; s < sections.size(); ++s) {
    const Section& section = sections[s];
    const bool final_section = s + 1 == sections.size();
    switch (section.elem) {
      case sizeof(uint32_t):
        ChunkArray(section.id, section.index,
                   static_cast<const uint32_t*>(section.data), section.count,
                   chunk_bytes, request_id, final_section, frames);
        break;
      default:  // int64_t and double are both 8-byte raw copies
        ChunkArray(section.id, section.index,
                   static_cast<const uint64_t*>(section.data), section.count,
                   chunk_bytes, request_id, final_section, frames);
        break;
    }
  }
}

bool ResultAssembler::Consume(const std::string& payload, bool last) {
  if (done_) return false;  // frames after the end-of-stream flag
  WireReader r(payload);
  const uint8_t section = r.U8();
  switch (static_cast<ResultSection>(section)) {
    case ResultSection::kSummary: {
      ResultSummary& s = result_.summary;
      s.input_rows = r.U64();
      s.filtered_rows = r.U64();
      s.num_groups = r.U64();
      s.scan_seconds = r.F64();
      s.materialize_seconds = r.F64();
      s.plan_seconds = r.F64();
      s.mcs_seconds = r.F64();
      s.post_seconds = r.F64();
      s.degraded = r.U8() != 0;
      s.bank_cap = static_cast<int32_t>(r.U32());
      s.num_aggregates = r.U16();
      if (!r.ok()) return false;
      result_.aggregate_values.resize(s.num_aggregates);
      break;
    }
    case ResultSection::kAggregateValues: {
      const uint16_t index = r.U16();
      const uint32_t count = r.U32();
      if (index >= result_.aggregate_values.size()) return false;
      if (count * sizeof(int64_t) != r.remaining()) return false;
      std::vector<int64_t>& out = result_.aggregate_values[index];
      const size_t old = out.size();
      out.resize(old + count);
      if (!r.Array(out.data() + old, count, sizeof(int64_t))) return false;
      break;
    }
    case ResultSection::kAggregateAvg:
    case ResultSection::kRanks:
    case ResultSection::kResultOids:
    case ResultSection::kGroupOrder:
    case ResultSection::kMergeKeyHi:
    case ResultSection::kMergeKeyLo:
    case ResultSection::kGroupSizes:
    case ResultSection::kGlobalOids: {
      r.U16();  // index, unused outside aggregate sections
      const uint32_t count = r.U32();
      const ResultSection id = static_cast<ResultSection>(section);
      const size_t elem = id == ResultSection::kAggregateAvg
                              ? sizeof(double)
                          : (id == ResultSection::kMergeKeyHi ||
                             id == ResultSection::kMergeKeyLo)
                              ? sizeof(uint64_t)
                              : sizeof(uint32_t);
      if (count * elem != r.remaining()) return false;
      if (id == ResultSection::kAggregateAvg) {
        std::vector<double>& out = result_.aggregate_avg;
        const size_t old = out.size();
        out.resize(old + count);
        if (!r.Array(out.data() + old, count, elem)) return false;
      } else if (id == ResultSection::kMergeKeyHi ||
                 id == ResultSection::kMergeKeyLo) {
        std::vector<uint64_t>& out = id == ResultSection::kMergeKeyHi
                                         ? result_.extras.merge_key_hi
                                         : result_.extras.merge_key_lo;
        const size_t old = out.size();
        out.resize(old + count);
        if (!r.Array(out.data() + old, count, elem)) return false;
      } else {
        std::vector<uint32_t>* out =
            id == ResultSection::kRanks          ? &result_.ranks
            : id == ResultSection::kResultOids   ? &result_.result_oids
            : id == ResultSection::kGroupOrder   ? &result_.result_group_order
            : id == ResultSection::kGroupSizes   ? &result_.extras.group_sizes
                                                 : &result_.extras.global_oids;
        const size_t old = out->size();
        out->resize(old + count);
        if (!r.Array(out->data() + old, count, elem)) return false;
      }
      break;
    }
    default:
      return false;
  }
  if (last) done_ = true;
  return true;
}

}  // namespace net
}  // namespace mcsort
