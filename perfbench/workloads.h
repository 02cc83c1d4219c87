// The benchmark's three workloads: the tables each one serves (generated
// from the seed with the repository's workload generators) and the read
// queries its clients send. Why each workload exists, and which layers it
// stresses or bypasses, is stated in workloads.cc next to the function
// that builds it.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/delta/dml.h"
#include "mcsort/engine/query.h"
#include "mcsort/storage/table.h"

namespace perfbench {

struct NamedTable {
  std::string name;
  mcsort::Table table;
};

struct BenchQuery {
  std::string id;
  std::string table;
  mcsort::QuerySpec spec;
};

struct Workload {
  std::string name;
  std::vector<NamedTable> tables;  // catalog contents, in setup order
  // The read stream. tpch_warm and mixed_rw cycle through it; adhoc_cold
  // cycles through a pool larger than the server's plan cache.
  std::vector<BenchQuery> reads;
  // One query per table, sent at set-up to make every table answer once.
  std::vector<BenchQuery> first_queries;
  // mixed_rw: the read checked against the model after the run.
  BenchQuery final_read;
  // mixed_rw: the table the open-loop writer mutates; empty on the
  // read-only workloads, whose window has no writer.
  std::string write_table;
  double write_rate_per_s = 0;  // open-loop writer rate (mixed_rw)
  // Server environment knobs that differ per workload.
  bool compaction = false;
  uint64_t compaction_interval_ms = 0;
  uint64_t compaction_min_rows = 0;
  double scale = 0;  // the generators' scale factor (or rows / 1M)

  const mcsort::Table& table(const std::string& name) const;
};

// Builds `name` from `seed`. `size_factor` shrinks every table (1.0 = the
// benchmark's scale; the self-test uses a tiny factor). Returns false for
// an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double size_factor,
                  Workload* out);

// mixed_rw's write stream: command i is a function of (seed, i) only,
// an INSERT batch of fresh rows or, one time in ten, a DELETE.
mcsort::delta::DmlCommand MakeWrite(const Workload& workload, uint64_t seed,
                                    uint64_t index);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
