// Typed process configuration — the one place the MCSORT_* environment
// soup is parsed. Binaries call ExecOptions::FromEnv() /
// ServerOptions::FromEnv() exactly once at startup and pass the structs
// down; library code takes the structs (or the narrower per-layer options
// built from them) and never reads the environment itself.
//
// Knob spellings (all optional; defaults are the struct initializers):
//
//   execution                       network front-end
//   ------------------------       ------------------------
//   MCSORT_THREADS                 MCSORT_HOST
//   MCSORT_RHO                     MCSORT_PORT
//   MCSORT_N                       MCSORT_MAX_CONNS
//   MCSORT_CALIBRATION[_FILE]
//   MCSORT_DATA_DIR                external sort (spill)
//   MCSORT_MMAP                    ------------------------
//   MCSORT_MEMORY_BUDGET           MCSORT_SPILL
//   MCSORT_SCRATCH_BUDGET          MCSORT_SPILL_DIR
//                                  MCSORT_SPILL_PREFETCH
//   write path (delta)
//   ------------------------
//   MCSORT_COMPACT
//   MCSORT_COMPACT_INTERVAL_MS
//   MCSORT_COMPACT_MIN_ROWS
//
// The narrower layer options (ServiceOptions, net::ServerOptions) keep
// their own FromEnv() for compatibility, implemented by delegating here —
// one parser, one set of spellings.
#ifndef MCSORT_COMMON_OPTIONS_H_
#define MCSORT_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace mcsort {

// Engine-side configuration: pool sizing, planner knobs, the snapshot
// catalog, and the external-sort spill tier.
struct ExecOptions {
  // Workers in the shared morsel-driven pool (MCSORT_THREADS).
  int threads = 1;
  // ROGA time threshold (MCSORT_RHO, Appendix C's default 0.1%); <= 0
  // disables the stopwatch.
  double rho = 0.001;
  // Demo/bench table rows (MCSORT_N).
  uint64_t demo_rows = uint64_t{1} << 20;
  // Cost-model measurement cache (MCSORT_CALIBRATION, with
  // MCSORT_CALIBRATION_FILE accepted as a legacy alias).
  std::string calibration_path = "mcsort_calibration.txt";
  // Snapshot catalog root (MCSORT_DATA_DIR); empty disables the on-disk
  // catalog.
  std::string data_dir;
  // Load snapshots via mmap instead of buffered reads (MCSORT_MMAP=1).
  bool mmap_snapshots = false;
  // Resident-table LRU budget in bytes (MCSORT_MEMORY_BUDGET; 0 =
  // unlimited).
  uint64_t memory_budget_bytes = 0;
  // Per-query sort scratch budget in bytes (MCSORT_SCRATCH_BUDGET; 0 =
  // unlimited). Plans whose scratch estimate exceeds it either degrade
  // (narrower banks) or spill to the external sort, whichever ROGA's cost
  // model prefers.
  uint64_t scratch_budget_bytes = 0;
  // External-sort spill tier: MCSORT_SPILL=0 disables spilling entirely
  // (over-budget plans then always degrade); MCSORT_SPILL_DIR overrides
  // where run files land; MCSORT_SPILL_PREFETCH=0 turns off the merge
  // phase's asynchronous double-buffered block loader.
  bool spill_enabled = true;
  std::string spill_dir = "/tmp/mcsort-spill";
  bool spill_prefetch = true;
  // Background compaction of the per-table delta stores (MCSORT_COMPACT=1
  // enables; the server binary also honours the sweep cadence and the
  // fold threshold). Disabled by default: embedded/library users drive
  // compaction explicitly through QueryService::CompactTable.
  bool compaction_enabled = false;
  uint64_t compaction_interval_ms = 1000;  // MCSORT_COMPACT_INTERVAL_MS
  uint64_t compaction_min_rows = 1024;     // MCSORT_COMPACT_MIN_ROWS

  static ExecOptions FromEnv();
};

// Network front-end configuration shared by the server binary and the
// client-side tools (which reuse host/port to find the server).
struct ServerOptions {
  std::string host = "127.0.0.1";  // MCSORT_HOST
  uint16_t port = 0;               // MCSORT_PORT (server: 0 = ephemeral)
  int max_connections = 64;        // MCSORT_MAX_CONNS

  static ServerOptions FromEnv();
};

}  // namespace mcsort

#endif  // MCSORT_COMMON_OPTIONS_H_
