#include "mcsort/common/options.h"

#include <cstdlib>
#include <string>

#include "mcsort/common/env.h"

namespace mcsort {

ExecOptions ExecOptions::FromEnv() {
  ExecOptions options;
  options.threads = static_cast<int>(
      EnvU64("MCSORT_THREADS", static_cast<uint64_t>(options.threads)));
  options.rho = EnvDouble("MCSORT_RHO", options.rho);
  options.demo_rows = EnvU64("MCSORT_N", options.demo_rows);
  // MCSORT_CALIBRATION_FILE is a legacy alias from earlier scripts.
  {
    const char* env = std::getenv("MCSORT_CALIBRATION");
    if (env == nullptr || env[0] == '\0') {
      env = std::getenv("MCSORT_CALIBRATION_FILE");
    }
    if (env != nullptr && env[0] != '\0') options.calibration_path = env;
  }
  options.data_dir = EnvStr("MCSORT_DATA_DIR", options.data_dir.c_str());
  options.mmap_snapshots = EnvU64("MCSORT_MMAP", 0) != 0;
  options.memory_budget_bytes =
      EnvU64("MCSORT_MEMORY_BUDGET", options.memory_budget_bytes);
  options.scratch_budget_bytes =
      EnvU64("MCSORT_SCRATCH_BUDGET", options.scratch_budget_bytes);
  // EnvU64 treats 0 as "unset" (it keeps the fallback), so the off
  // switches parse the raw string.
  {
    const char* env = std::getenv("MCSORT_SPILL");
    if (env != nullptr && env[0] != '\0') {
      options.spill_enabled = std::strtoull(env, nullptr, 10) != 0;
    }
    env = std::getenv("MCSORT_SPILL_PREFETCH");
    if (env != nullptr && env[0] != '\0') {
      options.spill_prefetch = std::strtoull(env, nullptr, 10) != 0;
    }
  }
  options.spill_dir = EnvStr("MCSORT_SPILL_DIR", options.spill_dir.c_str());
  {
    const char* env = std::getenv("MCSORT_COMPACT");
    if (env != nullptr && env[0] != '\0') {
      options.compaction_enabled = std::strtoull(env, nullptr, 10) != 0;
    }
  }
  options.compaction_interval_ms =
      EnvU64("MCSORT_COMPACT_INTERVAL_MS", options.compaction_interval_ms);
  options.compaction_min_rows =
      EnvU64("MCSORT_COMPACT_MIN_ROWS", options.compaction_min_rows);
  return options;
}

Status ExecOptions::Validate() const {
  if (!(rho >= 0)) {  // also rejects NaN
    return Status::InvalidArgument(
        "MCSORT_RHO must be a non-negative number, got " +
        std::to_string(rho));
  }
  return Status::Ok();
}

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.host = EnvStr("MCSORT_HOST", options.host.c_str());
  options.port =
      static_cast<uint16_t>(EnvU64("MCSORT_PORT", options.port));
  options.max_connections = static_cast<int>(EnvU64(
      "MCSORT_MAX_CONNS", static_cast<uint64_t>(options.max_connections)));
  return options;
}

}  // namespace mcsort
