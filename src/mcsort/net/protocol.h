// Message-level payload encodings of the mcsort wire protocol — what goes
// *inside* the frames wire.h frames. One encode/decode pair per frame
// type; decoders return false on any malformed payload (overrun, bad enum
// value, length lies) and never CHECK-fail, because their input is
// untrusted network bytes.
//
// RESULT streaming: one query's answer is a summary chunk followed by zero
// or more data chunks, each a self-describing section slice
// (section id, aggregate index, element count, raw little-endian
// elements), with kFlagLastChunk set on the final frame. The
// ResultAssembler on the client side re-concatenates slices in arrival
// order — the server emits each section's slices in offset order on one
// connection, so no reordering is needed.
#ifndef MCSORT_NET_PROTOCOL_H_
#define MCSORT_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/delta/dml.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/wire.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace net {

// --------------------------------------------------------------------------
// HELLO / HELLO_ACK
// --------------------------------------------------------------------------

struct HelloRequest {
  uint16_t version = kProtocolVersion;
  uint32_t capabilities = 0;  // kCap* bits the client understands
  std::string client_name;
};

struct HelloReply {
  uint16_t version = kProtocolVersion;
  uint16_t min_version = kMinProtocolVersion;  // oldest the server accepts
  uint32_t capabilities = 0;  // kCap* bits the server offers
  std::string server_name;
  std::string default_table;  // name QUERY resolves when `table` is empty
};

std::string EncodeHello(const HelloRequest& hello);
bool DecodeHello(const std::string& payload, HelloRequest* hello);
std::string EncodeHelloReply(const HelloReply& reply);
bool DecodeHelloReply(const std::string& payload, HelloReply* reply);

// --------------------------------------------------------------------------
// ERROR
// --------------------------------------------------------------------------

struct ErrorInfo {
  ErrorCode code = ErrorCode::kNone;
  std::string detail;
};

std::string EncodeError(const ErrorInfo& error);
bool DecodeError(const std::string& payload, ErrorInfo* error);

// --------------------------------------------------------------------------
// QUERY
// --------------------------------------------------------------------------

// The QUERY frame's payload: a per-query header (deadline, target table)
// followed by the full declarative QuerySpec.
struct QueryEnvelope {
  // Relative deadline in microseconds, measured from server receipt;
  // 0 = none. Mapped onto ExecContext::WithDeadline, so it bounds queue
  // wait + execution together.
  uint64_t deadline_micros = 0;
  // Coordinator fan-out: ask the server to append the composite merge-key
  // sections (kMergeKeyHi/Lo, kGroupSizes, kGlobalOids) to the RESULT
  // stream so sorted shard streams can be loser-tree merged without
  // shipping the sort columns themselves.
  bool want_merge_keys = false;
  std::string table;  // empty = the server's default table
  QuerySpec spec;
};

std::string EncodeQuery(const QueryEnvelope& query);
bool DecodeQuery(const std::string& payload, QueryEnvelope* query);

// --------------------------------------------------------------------------
// SCHEMA
// --------------------------------------------------------------------------

struct ColumnInfo {
  std::string name;
  int width = 0;           // code width in bits
  int physical_bytes = 0;  // 2 / 4 / 8
  bool has_dictionary = false;
  int64_t domain_base = 0;
};

struct TableSchema {
  std::string name;
  uint64_t row_count = 0;   // live rows (base minus tombstones plus delta)
  uint64_t epoch = 0;       // snapshot version; bumps on compaction/load
  uint64_t delta_rows = 0;  // live delta rows awaiting compaction
  std::vector<ColumnInfo> columns;
};

struct SchemaReply {
  std::vector<TableSchema> tables;
};

// Introspects `table` into the wire schema (columns in insertion order).
TableSchema SchemaOf(const std::string& name, const Table& table);

std::string EncodeSchemaReply(const SchemaReply& reply);
bool DecodeSchemaReply(const std::string& payload, SchemaReply* reply);

// --------------------------------------------------------------------------
// SAVE_TABLE / LOAD_TABLE
// --------------------------------------------------------------------------

// Payload of both kSaveTable and kLoadTable (the frame type carries the
// verb): name the table to snapshot to / load from the server's catalog
// directory. Empty = the server's default table (SAVE only; LOAD requires
// an explicit name since the table may not be registered yet).
struct TableOpRequest {
  std::string table;
};

// kTableOpReply payload: the operation's outcome. `status_code` is the
// mcsort::StatusCode as a u8 (0 = ok); `detail` carries the Status detail.
struct TableOpReply {
  bool ok = false;
  uint8_t status_code = 0;
  std::string detail;
  double seconds = 0;   // wall time of the save/load on the server
  uint64_t rows = 0;    // row count of the table operated on
};

std::string EncodeTableOp(const TableOpRequest& request);
bool DecodeTableOp(const std::string& payload, TableOpRequest* request);
std::string EncodeTableOpReply(const TableOpReply& reply);
bool DecodeTableOpReply(const std::string& payload, TableOpReply* reply);

// --------------------------------------------------------------------------
// DML (protocol v3)
// --------------------------------------------------------------------------

// kDml payload: one delta::DmlCommand in native-value space (tagged int64 /
// string values; encoding against the table's dictionary happens on the
// server). Row arity is structural — every row carries exactly one value
// per named column — so a truncated row fails the decode, not the apply.
std::string EncodeDml(const delta::DmlCommand& cmd);
bool DecodeDml(const std::string& payload, delta::DmlCommand* cmd);

// kDmlReply payload: the typed outcome. `status_code` is the op-level
// mcsort::StatusCode as a u8 (0 = ok); row-level INSERT rejects travel in
// `row_errors` (truncated to the clause cap — `rows_rejected` keeps the
// true count).
struct DmlReply {
  bool ok = false;
  uint8_t status_code = 0;
  std::string detail;
  uint64_t rows_affected = 0;
  uint64_t rows_rejected = 0;
  uint64_t delta_rows = 0;
  uint64_t epoch = 0;
  std::vector<delta::DmlRowError> row_errors;
};

std::string EncodeDmlReply(const DmlReply& reply);
bool DecodeDmlReply(const std::string& payload, DmlReply* reply);

// --------------------------------------------------------------------------
// RESULT stream
// --------------------------------------------------------------------------

// Section ids of the chunked result stream. 6-9 are the distributed
// merge sections, present only when the QUERY envelope asked for them
// (want_merge_keys, protocol v2 / kCapMergeKeys).
enum class ResultSection : uint8_t {
  kSummary = 0,
  kAggregateValues = 1,  // int64 elements; `index` = aggregate spec index
  kAggregateAvg = 2,     // double elements (kAvg specs, concatenated)
  kRanks = 3,            // uint32 elements
  kResultOids = 4,       // uint32 elements
  kGroupOrder = 5,       // uint32 elements
  kMergeKeyHi = 6,       // uint64: bits 127..64 of the composite sort key
  kMergeKeyLo = 7,       // uint64: bits 63..0 (per row / per group)
  kGroupSizes = 8,       // uint32: rows per group (GROUP BY merges)
  kGlobalOids = 9,       // uint32: pre-shard oids ("__goid") in row order
};

// Fixed summary carried by the first RESULT chunk — the scalar half of
// QueryResult (counts, per-phase timings, degradation flags).
struct ResultSummary {
  uint64_t input_rows = 0;
  uint64_t filtered_rows = 0;
  uint64_t num_groups = 0;
  double scan_seconds = 0;
  double materialize_seconds = 0;
  double plan_seconds = 0;
  double mcs_seconds = 0;
  double post_seconds = 0;
  bool degraded = false;
  int32_t bank_cap = 0;
  uint16_t num_aggregates = 0;
};

// The distributed merge sections (ResultSection 6-9), computed by
// dist/merge_keys.h on the server when the QUERY asked for them.
struct ResultExtras {
  std::vector<uint64_t> merge_key_hi;
  std::vector<uint64_t> merge_key_lo;
  std::vector<uint32_t> group_sizes;
  std::vector<uint32_t> global_oids;
};

// Everything a query sends back, reassembled (client side) or about to be
// chunked (server side).
struct ResultPayload {
  ResultSummary summary;
  std::vector<std::vector<int64_t>> aggregate_values;
  std::vector<double> aggregate_avg;
  std::vector<uint32_t> ranks;
  std::vector<uint32_t> result_oids;
  std::vector<uint32_t> result_group_order;
  ResultExtras extras;
};

// Chunks one successful QueryResult into sealed RESULT frames (header +
// payload, ready to write), each data chunk at most `chunk_bytes` of
// element data; the last frame carries kFlagLastChunk. Appends to *frames.
// `extras` (may be null) appends the distributed merge sections.
void BuildResultFrames(uint64_t request_id, const QueryResult& result,
                       size_t chunk_bytes, std::vector<std::string>* frames,
                       const ResultExtras* extras = nullptr);

// Client-side reassembly of the RESULT stream. Feed every RESULT payload
// in arrival order; `last` is the frame's kFlagLastChunk bit. Returns
// false on a malformed chunk.
class ResultAssembler {
 public:
  bool Consume(const std::string& payload, bool last);
  bool done() const { return done_; }
  ResultPayload& result() { return result_; }

 private:
  ResultPayload result_;
  bool done_ = false;
};

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_PROTOCOL_H_
