// Morsel-parallel CSV/TSV ingestion into an encoded Table.
//
// The pipeline mirrors how the paper's prototype prepares data (Sec. 2,
// "Column Encoding"): every native column becomes a fixed-width array of
// order-preserving codes. Ingest runs in phases, each morsel-parallel over
// rows via ThreadPool::ParallelForDynamic:
//
//   1. line index        sequential newline scan (memchr-speed)
//   2. type inference    per-column: all-int64 → integer, else all-numeric
//                        → fixed-point decimal, else string; explicit
//                        schemas skip this phase
//   3. dictionary build  strings only, two passes: parallel distinct
//                        collection (per-worker hash sets), merge + sort
//                        into the order-preserving dictionary
//   4. encoding          parallel re-parse + encode: integers and decimals
//                        are domain-encoded (code = value - min), strings
//                        take their dictionary rank
//
// Limitations (documented, not silently wrong): no quoted fields — a
// delimiter inside a field is a field boundary; decimal columns are scaled
// to integers at `decimal_scale` fractional digits and keep only the
// scaled domain base.
#ifndef MCSORT_IO_CSV_INGEST_H_
#define MCSORT_IO_CSV_INGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/common/status.h"

namespace mcsort {

class Table;

enum class CsvType : uint8_t {
  kAuto = 0,  // infer: int64 → kInt, numeric → kDecimal, else kString
  kInt,
  kDecimal,
  kString,
};

struct CsvColumnSpec {
  std::string name;
  CsvType type = CsvType::kAuto;
};

struct CsvIngestOptions {
  char delimiter = ',';  // '\t' for TSV
  bool has_header = true;
  // Empty → column names come from the header (or c0..cN without one) and
  // every type is inferred. Non-empty → must match the file's field count.
  std::vector<CsvColumnSpec> schema;
  int threads = 0;        // 0 → hardware concurrency
  int decimal_scale = 2;  // fractional digits kept for decimal columns
};

struct CsvIngestStats {
  uint64_t rows = 0;
  int columns = 0;
  double seconds = 0;  // wall time of the whole ingest
};

// Parses `path` into `*out`. Malformed input (ragged rows, unparsable
// fields under an explicit schema) is a typed kInvalidArgument error
// naming the first offending line.
Status IngestCsv(const std::string& path, const CsvIngestOptions& options,
                 Table* out, CsvIngestStats* stats = nullptr);

}  // namespace mcsort

#endif  // MCSORT_IO_CSV_INGEST_H_
