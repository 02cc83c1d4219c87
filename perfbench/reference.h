// The benchmark's correctness gate: naive reference answers computed from
// the benchmark's own copy of the data, compared against what the server
// returned. Nothing here shares code with the engine under test beyond
// reading encoded column values.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcsort/delta/dml.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/client.h"
#include "mcsort/storage/table.h"

namespace perfbench {

// Checks one server answer to `spec` over `table` (the benchmark's copy).
// Returns an empty string when the answer is right, else what is wrong.
//   ORDER BY:     result_oids is a permutation of the filtered oids and
//                 non-decreasing by the key under the given directions.
//   GROUP BY:     result_oids groups the filtered oids into contiguous runs
//                 of equal keys, one run per key of a std::map reference,
//                 whose aggregates equal the server's; result_group_order
//                 is sorted by the result-order keys.
//   PARTITION BY: contiguous partitions as above, each non-decreasing by
//                 the window column, with RANK() recomputed from scratch.
// `corrupt_reference` flips row 0's filter outcome in the reference only:
// the self-test uses it to show that the gate rejects a wrong expectation.
std::string CheckAnswer(const mcsort::Table& table,
                        const mcsort::QuerySpec& spec,
                        const mcsort::net::RemoteResult& result,
                        bool corrupt_reference);

// The benchmark's own model of the written table: the base rows plus every
// acknowledged write, applied in acknowledgement order.
class TableModel {
 public:
  TableModel(const mcsort::Table& base, bool corrupt);
  void Apply(const mcsort::delta::DmlCommand& cmd);

  // Checks a GROUP BY <cols> COUNT(*), SUM(<measure>) answer whose result
  // order is the group columns, ascending: group g of the result order
  // must carry the g-th key of a std::map reference.
  std::string CheckGroupedCounts(const mcsort::QuerySpec& spec,
                                 const mcsort::net::RemoteResult& result) const;

 private:
  int ColumnIndex(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<std::vector<int64_t>> columns_;  // native values
  std::vector<bool> live_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
