// mcsort_dml — the write-path driver CI runs against a live mcsort_server
// (scripts/dml_smoke.sh): INSERT/DELETE/UPDATE commands over the client
// library, a deterministic result digest for before/after-restart
// comparisons, a SCHEMA poller that waits for compaction to fold the
// delta, and timed churn/read loops for the concurrency phase.
//
// Usage: mcsort_dml <table> <verb> [args...]
//   insert <n> [seed]                      append n generated rows
//   delete <column> <op> <value>           tombstone matching rows
//   update <pcol> <op> <pval> <scol> <sval> rewrite matching rows
//   digest                                 print "digest=<hex> rows=<n>"
//   schema                                 print "rows=.. epoch=.. delta=.."
//   wait-compact [timeout_s]               poll until delta_rows == 0
//   churn <seconds> [seed]                 mixed insert/delete loop
//   read-loop <seconds>                    repeated digest queries
//   save / load                            SAVE_TABLE / LOAD_TABLE opcodes
// <op> is one of eq ne lt le gt ge; values with a leading digit or '-'
// parse as integers, anything else as a string.
//
// Environment: MCSORT_HOST / MCSORT_PORT select the server (port
// required); MCSORT_CONNECT_RETRIES (default 50 x 100ms) tolerates a
// server still starting up. Exits 0 on success, 1 on a failed check, 2 on
// usage/connect errors.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mcsort/common/env.h"
#include "mcsort/common/options.h"
#include "mcsort/common/random.h"
#include "mcsort/delta/dml.h"
#include "mcsort/net/client.h"

namespace mcsort {
namespace {

using net::McsortClient;
using net::RemoteResult;
using net::SchemaReply;
using net::TableSchema;

int Usage() {
  std::fprintf(stderr,
               "usage: mcsort_dml <table> "
               "insert|delete|update|digest|schema|wait-compact|churn|"
               "read-loop|save|load [args...]\n");
  return 2;
}

bool ParseOp(const std::string& s, delta::DmlCompareOp* op) {
  if (s == "eq") *op = delta::DmlCompareOp::kEq;
  else if (s == "ne") *op = delta::DmlCompareOp::kNe;
  else if (s == "lt") *op = delta::DmlCompareOp::kLt;
  else if (s == "le") *op = delta::DmlCompareOp::kLe;
  else if (s == "gt") *op = delta::DmlCompareOp::kGt;
  else if (s == "ge") *op = delta::DmlCompareOp::kGe;
  else return false;
  return true;
}

delta::DmlValue ParseValue(const std::string& s) {
  if (!s.empty() &&
      (s[0] == '-' || std::isdigit(static_cast<unsigned char>(s[0])))) {
    return delta::DmlValue::Int(std::strtoll(s.c_str(), nullptr, 10));
  }
  return delta::DmlValue::String(s);
}

bool FindTable(McsortClient& client, const std::string& table,
               TableSchema* out) {
  SchemaReply schema;
  if (!client.GetSchema(&schema)) return false;
  for (const TableSchema& t : schema.tables) {
    if (t.name == table) {
      *out = t;
      return true;
    }
  }
  return false;
}

// One generated row per schema: numeric columns draw from the column's
// existing domain (so deltas mostly re-encode without widening), string
// columns draw from a tiny synthetic vocabulary that mixes dictionary
// hits and overflow strings.
std::vector<delta::DmlValue> GenerateRow(const TableSchema& schema, Rng& rng) {
  std::vector<delta::DmlValue> row;
  for (const net::ColumnInfo& col : schema.columns) {
    if (col.has_dictionary) {
      row.push_back(delta::DmlValue::String(
          "w" + std::to_string(rng.NextBounded(64))));
    } else {
      const int width = col.width > 0 && col.width < 20 ? col.width : 16;
      row.push_back(delta::DmlValue::Int(
          col.domain_base +
          static_cast<int64_t>(rng.NextBounded(uint64_t{1} << width))));
    }
  }
  return row;
}

bool SendDml(McsortClient& client, const delta::DmlCommand& cmd,
             uint64_t* affected) {
  const net::DmlResult result = client.ExecuteDml(cmd);
  if (!result.transport_ok) {
    std::fprintf(stderr, "mcsort_dml: %s failed: transport failure: %s\n",
                 delta::DmlOpName(cmd.op), result.error_detail.c_str());
    return false;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "mcsort_dml: %s failed: %s %s (status %u: %s)\n",
                 delta::DmlOpName(cmd.op), net::ErrorCodeName(result.error),
                 result.error_detail.c_str(), result.reply.status_code,
                 result.reply.detail.c_str());
    return false;
  }
  if (affected != nullptr) *affected = result.reply.rows_affected;
  return true;
}

// FNV-1a over the canonical group-by result: group the first two columns,
// sum + count the last — deterministic for a given table content, so equal
// digests before a kill and after restart+LOAD prove the write path's
// durability story.
bool Digest(McsortClient& client, const std::string& table, uint64_t* digest,
            uint64_t* rows) {
  TableSchema schema;
  if (!FindTable(client, table, &schema) || schema.columns.size() < 2) {
    std::fprintf(stderr, "mcsort_dml: no schema for table '%s'\n",
                 table.c_str());
    return false;
  }
  std::vector<std::string> group;
  for (size_t i = 0; i < schema.columns.size() && i < 2; ++i) {
    group.push_back(schema.columns[i].name);
  }
  const std::string& sum_col = schema.columns.back().name;
  const QuerySpec spec = QuerySpecBuilder("dml_digest")
                             .GroupBy(group)
                             .Sum(sum_col)
                             .Count()
                             .Build();
  net::QueryCallOptions call;
  call.table = table;
  const RemoteResult result = client.Query(spec, call);
  if (!result.ok()) {
    std::fprintf(stderr, "mcsort_dml: digest query failed: %s\n",
                 result.status.ToString().c_str());
    return false;
  }
  uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  fold(result.summary.input_rows);
  fold(result.summary.num_groups);
  for (const std::vector<int64_t>& agg : result.aggregate_values) {
    for (int64_t v : agg) fold(static_cast<uint64_t>(v));
  }
  *digest = h;
  *rows = result.summary.input_rows;
  return true;
}

}  // namespace
}  // namespace mcsort

int main(int argc, char** argv) {
  using namespace mcsort;
  if (argc < 3) return Usage();
  const std::string table = argv[1];
  const std::string verb = argv[2];

  const ServerOptions server_env = ServerOptions::FromEnv();
  if (server_env.port == 0) {
    std::fprintf(stderr, "mcsort_dml: set MCSORT_PORT to the server port\n");
    return 2;
  }
  net::ClientOptions client_options;
  client_options.host = server_env.host;
  client_options.port = server_env.port;
  client_options.io_timeout_seconds = 10;
  client_options.client_name = "mcsort_dml";
  net::McsortClient client(client_options);
  const int retries = static_cast<int>(EnvU64("MCSORT_CONNECT_RETRIES", 50));
  std::string error;
  bool connected = false;
  for (int i = 0; i < retries; ++i) {
    if (client.Connect(&error)) {
      connected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!connected) {
    std::fprintf(stderr, "mcsort_dml: cannot connect to %s:%u: %s\n",
                 server_env.host.c_str(), server_env.port, error.c_str());
    return 2;
  }

  if (verb == "insert") {
    if (argc < 4) return Usage();
    const uint64_t n = std::strtoull(argv[3], nullptr, 10);
    const uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 99;
    TableSchema schema;
    if (!FindTable(client, table, &schema)) {
      std::fprintf(stderr, "mcsort_dml: unknown table '%s'\n", table.c_str());
      return 1;
    }
    Rng rng(seed);
    delta::DmlCommand cmd;
    cmd.op = delta::DmlOp::kInsert;
    cmd.table = table;
    for (const net::ColumnInfo& col : schema.columns) {
      cmd.columns.push_back(col.name);
    }
    uint64_t inserted = 0;
    // Batches keep each frame well under the row cap while still
    // exercising multi-row payloads.
    const uint64_t batch = 512;
    while (inserted < n) {
      cmd.rows.clear();
      for (uint64_t r = 0; r < batch && inserted + r < n; ++r) {
        cmd.rows.push_back(GenerateRow(schema, rng));
      }
      uint64_t affected = 0;
      if (!SendDml(client, cmd, &affected)) return 1;
      if (affected != cmd.rows.size()) {
        std::fprintf(stderr, "mcsort_dml: insert affected %llu of %zu rows\n",
                     static_cast<unsigned long long>(affected),
                     cmd.rows.size());
        return 1;
      }
      inserted += cmd.rows.size();
    }
    std::printf("inserted=%llu\n", static_cast<unsigned long long>(inserted));
    return 0;
  }

  if (verb == "delete" || verb == "update") {
    const bool is_update = verb == "update";
    if (argc < (is_update ? 8 : 6)) return Usage();
    delta::DmlCommand cmd;
    cmd.op = is_update ? delta::DmlOp::kUpdate : delta::DmlOp::kDelete;
    cmd.table = table;
    cmd.has_predicate = true;
    cmd.predicate.column = argv[3];
    if (!ParseOp(argv[4], &cmd.predicate.op)) return Usage();
    cmd.predicate.value = ParseValue(argv[5]);
    if (is_update) {
      cmd.columns.push_back(argv[6]);
      cmd.rows.push_back({ParseValue(argv[7])});
    }
    uint64_t affected = 0;
    if (!SendDml(client, cmd, &affected)) return 1;
    std::printf("%s affected=%llu\n", verb.c_str(),
                static_cast<unsigned long long>(affected));
    return 0;
  }

  if (verb == "save" || verb == "load") {
    const net::TableOpResult result = verb == "save"
                                          ? client.SaveTable(table)
                                          : client.LoadTable(table);
    if (!result.ok()) {
      std::fprintf(stderr, "mcsort_dml: %s failed: %s %s %s\n", verb.c_str(),
                   net::ErrorCodeName(result.error),
                   result.error_detail.c_str(), result.reply.detail.c_str());
      return 1;
    }
    std::printf("%s rows=%llu\n", verb.c_str(),
                static_cast<unsigned long long>(result.reply.rows));
    return 0;
  }

  if (verb == "digest") {
    uint64_t digest = 0, rows = 0;
    if (!Digest(client, table, &digest, &rows)) return 1;
    std::printf("digest=%016llx rows=%llu\n",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(rows));
    return 0;
  }

  if (verb == "schema") {
    TableSchema schema;
    if (!FindTable(client, table, &schema)) {
      std::fprintf(stderr, "mcsort_dml: unknown table '%s'\n", table.c_str());
      return 1;
    }
    std::printf("rows=%llu epoch=%llu delta=%llu\n",
                static_cast<unsigned long long>(schema.row_count),
                static_cast<unsigned long long>(schema.epoch),
                static_cast<unsigned long long>(schema.delta_rows));
    return 0;
  }

  if (verb == "wait-compact") {
    const double timeout = argc > 3 ? std::atof(argv[3]) : 30.0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout);
    for (;;) {
      TableSchema schema;
      if (FindTable(client, table, &schema) && schema.delta_rows == 0) {
        std::printf("compacted epoch=%llu rows=%llu\n",
                    static_cast<unsigned long long>(schema.epoch),
                    static_cast<unsigned long long>(schema.row_count));
        return 0;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr,
                     "mcsort_dml: table '%s' still has delta rows after "
                     "%.1fs\n",
                     table.c_str(), timeout);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  if (verb == "churn" || verb == "read-loop") {
    if (argc < 4) return Usage();
    const double seconds = std::atof(argv[3]);
    const uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    TableSchema schema;
    if (!FindTable(client, table, &schema)) {
      std::fprintf(stderr, "mcsort_dml: unknown table '%s'\n", table.c_str());
      return 1;
    }
    Rng rng(seed);
    uint64_t ops = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (verb == "read-loop") {
        // The digest value changes under concurrent writes; the assert is
        // that every read completes — readers never block on writers.
        uint64_t digest = 0, rows = 0;
        if (!Digest(client, table, &digest, &rows)) return 1;
      } else if (rng.NextBounded(4) == 0 && !schema.columns.empty() &&
                 !schema.columns.front().has_dictionary) {
        delta::DmlCommand cmd;
        cmd.op = delta::DmlOp::kDelete;
        cmd.table = table;
        cmd.has_predicate = true;
        cmd.predicate.column = schema.columns.front().name;
        cmd.predicate.op = delta::DmlCompareOp::kEq;
        cmd.predicate.value = delta::DmlValue::Int(
            schema.columns.front().domain_base +
            static_cast<int64_t>(rng.NextBounded(16)));
        if (!SendDml(client, cmd, nullptr)) return 1;
      } else {
        delta::DmlCommand cmd;
        cmd.op = delta::DmlOp::kInsert;
        cmd.table = table;
        for (const net::ColumnInfo& col : schema.columns) {
          cmd.columns.push_back(col.name);
        }
        for (int r = 0; r < 8; ++r) {
          cmd.rows.push_back(GenerateRow(schema, rng));
        }
        if (!SendDml(client, cmd, nullptr)) return 1;
      }
      ++ops;
    }
    std::printf("%s ops=%llu\n", verb.c_str(),
                static_cast<unsigned long long>(ops));
    return 0;
  }

  return Usage();
}
