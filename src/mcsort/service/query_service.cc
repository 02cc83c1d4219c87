#include "mcsort/service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/options.h"
#include "mcsort/common/timer.h"
#include "mcsort/cost/calibration.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/service/signature.h"

namespace mcsort {

ServiceOptions ServiceOptions::FromEnv() {
  // Delegate to the typed process config (common/options.h) — one parser
  // for the MCSORT_RHO / MCSORT_THREADS spellings.
  const ExecOptions env = ExecOptions::FromEnv();
  ServiceOptions options;
  options.rho = env.rho;
  options.threads = env.threads;
  options.spill.enabled = env.spill_enabled;
  options.spill.dir = env.spill_dir;
  options.spill.prefetch = env.spill_prefetch;
  return options;
}

QuerySession::QuerySession(QueryService* service, const Table& table,
                           uint64_t id, const ExecutorOptions& options)
    : service_(service), table_(&table), executor_(table, options), id_(id) {}

ExecResult QuerySession::Execute(const QuerySpec& spec,
                                 const ExecContext& ctx) {
  return service_->ExecuteOn(this, spec, ctx);
}

size_t EstimateScratchBytes(const Table& table,
                            const QueryExecutor::SortAttrs& attrs) {
  const size_t n = table.row_count();
  // Two oid arrays (the permutation plus sort scratch) ...
  size_t per_row = 2 * sizeof(Oid);
  for (const std::string& name : attrs.names) {
    // ... plus, per sort attribute, the gathered column and its round-key
    // storage (massage output is at most one bank per attribute here; the
    // estimate is soft by design).
    per_row += 2 * static_cast<size_t>(SizeOfWidth(table.column(name).width()));
  }
  return n * per_row;
}

QueryService::QueryService(const ServiceOptions& options)
    : options_(options),
      params_(options.use_calibration ? SharedCostModel().params()
                                      : options.params),
      pool_(std::make_unique<ThreadPool>(std::max(1, options.threads))),
      plan_cache_(options.plan_cache),
      admission_(options.admission) {
  // Spill-dir hygiene: crash leftovers from interrupted run writers are
  // `*.tmp` files (finished runs are `*.mcr`). Construction precedes any
  // query of ours; concurrent *other* processes are protected only by the
  // pid-qualified run names, so the sweep targets `.tmp` files only.
  if (options_.spill.enabled && !options_.spill.dir.empty()) {
    CleanupTempFiles(options_.spill.dir);
  }
}

std::unique_ptr<QuerySession> QueryService::OpenSession(const Table& table) {
  ExecutorOptions exec;
  exec.use_massage = options_.use_massage;
  exec.rho = options_.rho;
  exec.min_budget_seconds = options_.min_budget_seconds;
  exec.pool = pool_.get();
  exec.params = params_;
  exec.spill = options_.spill;
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  metrics_.counter("service.sessions_opened")->Increment();
  return std::unique_ptr<QuerySession>(
      new QuerySession(this, table, id, exec));
}

QueryService::Binding* QueryService::FindBindingLocked(
    const std::string& name) {
  if (tables_.empty()) return nullptr;
  if (name.empty()) return &tables_.front();
  for (auto& binding : tables_) {
    if (binding.name == name) return &binding;
  }
  return nullptr;
}

QueryService::Binding& QueryService::UpsertBindingLocked(
    const std::string& name) {
  for (auto& binding : tables_) {
    if (binding.name == name) return binding;
  }
  tables_.emplace_back();
  tables_.back().name = name;
  return tables_.back();
}

void QueryService::RegisterTable(const std::string& name,
                                 const Table& table) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  Binding& binding = UpsertBindingLocked(name);
  binding.borrowed = &table;
  binding.owned.reset();
}

void QueryService::AdoptTable(const std::string& name, Table table) {
  auto owned = std::make_shared<Table>(std::move(table));
  std::lock_guard<std::mutex> lock(tables_mu_);
  Binding& binding = UpsertBindingLocked(name);
  binding.borrowed = nullptr;
  binding.owned = std::move(owned);
  binding.last_use = ++use_clock_;
  EvictOverBudgetLocked();
}

void QueryService::SetCatalog(const CatalogOptions& options) {
  const std::vector<std::string> on_disk = ListSnapshotTables(options.dir);
  // Orphan hygiene: an interrupted snapshot writer leaves `*.tmp` files
  // behind (the atomic-rename discipline guarantees finished artifacts are
  // never named that). Attach time is the one moment no writer can be
  // concurrent with us, so sweep the root and every snapshot directory.
  size_t orphans = CleanupTempFiles(options.dir);
  for (const std::string& name : on_disk) {
    orphans += CleanupTempFiles(options.dir + "/" + name);
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  catalog_ = options;
  has_catalog_ = !options.dir.empty();
  for (const std::string& name : on_disk) {
    UpsertBindingLocked(name).on_disk = true;
  }
  metrics_.counter("catalog.tables_on_disk")->Add(on_disk.size());
  metrics_.counter("catalog.tmp_orphans_removed")->Add(orphans);
}

std::shared_ptr<const Table> QueryService::FindTableShared(
    const std::string& name) {
  std::string resolved;
  std::shared_ptr<delta::TableVersion> version;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding == nullptr) return nullptr;
    binding->last_use = ++use_clock_;
    // A written table resolves through its version: Snapshot() merges the
    // live delta (outside tables_mu_ — the build can be heavy).
    if (binding->version != nullptr) {
      version = binding->version;
    } else if (binding->owned != nullptr) {
      return binding->owned;
    }
    if (version == nullptr) {
      if (binding->borrowed != nullptr) {
        // Borrowed tables are caller-managed; alias them with a no-op
        // deleter so every lookup path returns the same handle type.
        return std::shared_ptr<const Table>(binding->borrowed,
                                            [](const Table*) {});
      }
      if (!binding->on_disk || !has_catalog_) return nullptr;
      resolved = binding->name;
    }
  }
  if (version != nullptr) return MergedSnapshot(*version);
  // Unloaded on-disk table: load outside tables_mu_ (concurrent resident
  // lookups keep flowing), serialized by load_mu_ so a thundering herd on
  // one table does a single load.
  std::lock_guard<std::mutex> load_lock(load_mu_);
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(resolved);
    if (binding != nullptr && binding->owned != nullptr) {
      return binding->owned;  // another loader won the race
    }
  }
  if (!LoadTable(resolved).ok()) return nullptr;
  std::lock_guard<std::mutex> lock(tables_mu_);
  Binding* binding = FindBindingLocked(resolved);
  return binding != nullptr ? binding->owned : nullptr;
}

const Table* QueryService::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  auto* self = const_cast<QueryService*>(this);
  const Binding* binding = self->FindBindingLocked(name);
  return binding != nullptr ? binding->resident() : nullptr;
}

std::vector<std::string> QueryService::ListTables() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& binding : tables_) names.push_back(binding.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string QueryService::DefaultTableName() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  return tables_.empty() ? std::string() : tables_.front().name;
}

Status QueryService::SaveTable(const std::string& name) {
  std::string dir;
  std::shared_ptr<const Table> table;
  std::shared_ptr<delta::TableVersion> version;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    if (!has_catalog_) {
      return Status::FailedPrecondition("no catalog directory");
    }
    Binding* binding = FindBindingLocked(name);
    if (binding == nullptr || binding->resident() == nullptr) {
      return Status::NotFound("unknown or unloaded table '" + name + "'");
    }
    if (binding->name.find('/') != std::string::npos) {
      return Status::InvalidArgument("bad table name");
    }
    dir = catalog_.dir + "/" + binding->name;
    version = binding->version;
    table = binding->owned != nullptr
                ? binding->owned
                : std::shared_ptr<const Table>(binding->borrowed,
                                               [](const Table*) {});
  }
  // Snapshot outside the lock: saves are long and tables are immutable. A
  // written table saves its merged image, so the snapshot never loses
  // un-compacted rows.
  if (version != nullptr) table = MergedSnapshot(*version);
  const Status st = SaveTableSnapshot(*table, dir);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding != nullptr) binding->on_disk = true;
    metrics_.counter("catalog.saves")->Increment();
  }
  return st;
}

Status QueryService::LoadTable(const std::string& name) {
  std::string dir;
  SnapshotLoadOptions load;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    if (!has_catalog_) {
      return Status::FailedPrecondition("no catalog directory");
    }
    if (name.empty() || name.find('/') != std::string::npos) {
      return Status::InvalidArgument("bad table name");
    }
    dir = catalog_.dir + "/" + name;
    load = catalog_.load;
  }
  auto loaded = std::make_shared<Table>();
  const Status st = LoadTableSnapshot(dir, load, loaded.get());
  if (!st.ok()) {
    metrics_.counter("catalog.load_failures")->Increment();
    return st;
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  Binding& binding = UpsertBindingLocked(name);
  binding.borrowed = nullptr;
  binding.owned = std::move(loaded);
  binding.on_disk = true;
  binding.last_use = ++use_clock_;
  // A written table adopts the loaded snapshot as its new base; the delta
  // is dropped — the on-disk image supersedes it (LOAD is a restore).
  if (binding.version != nullptr) {
    binding.version->ReplaceBase(binding.owned, /*clear_delta=*/true);
  }
  metrics_.counter("catalog.loads")->Increment();
  EvictOverBudgetLocked();
  return Status::Ok();
}

uint64_t QueryService::ResidentOwnedBytesLocked() const {
  uint64_t total = 0;
  for (const auto& binding : tables_) {
    if (binding.owned != nullptr) total += binding.owned->MemoryBytes();
  }
  return total;
}

void QueryService::EvictOverBudgetLocked() {
  if (!has_catalog_ || catalog_.memory_budget_bytes == 0) return;
  while (ResidentOwnedBytesLocked() > catalog_.memory_budget_bytes) {
    // Evict the least-recently-used owned table that is reloadable (has a
    // snapshot) and not in use outside the catalog. Sessions holding the
    // shared_ptr keep their table alive; only the catalog reference drops.
    Binding* victim = nullptr;
    for (auto& binding : tables_) {
      if (binding.owned == nullptr || !binding.on_disk) continue;
      // A written table is never evicted: its delta references the base's
      // oids, and a reload would silently fork the version's base.
      if (binding.version != nullptr) continue;
      if (binding.owned.use_count() > 1) continue;
      if (victim == nullptr || binding.last_use < victim->last_use) {
        victim = &binding;
      }
    }
    if (victim == nullptr) return;  // nothing evictable; over budget stays
    victim->owned.reset();
    metrics_.counter("catalog.evictions")->Increment();
  }
}

namespace {

// Merge-at-scan accounting: which reads paid a full rebuild and why. A
// full build counts under exactly one delta.merge.fallback.* reason.
constexpr delta::MergeFallback kMergeFallbacks[] = {
    delta::MergeFallback::kNoImage, delta::MergeFallback::kTombstone,
    delta::MergeFallback::kWidthOrBase, delta::MergeFallback::kDictionary,
    delta::MergeFallback::kCapacity};

std::string MergeFallbackMetric(delta::MergeFallback reason) {
  return std::string("delta.merge.fallback.") +
         delta::MergeFallbackName(reason);
}

}  // namespace

std::shared_ptr<const Table> QueryService::MergedSnapshot(
    delta::TableVersion& version) {
  using Kind = delta::TableVersion::MergeReport::Kind;
  delta::TableVersion::MergeReport report;
  std::shared_ptr<const Table> table = version.Snapshot(&report);
  if (report.kind == Kind::kExtended) {
    metrics_.counter("delta.merge.extends")->Increment();
  } else if (report.kind == Kind::kFullBuild) {
    metrics_.counter("delta.merge.full_builds")->Increment();
    metrics_.counter(MergeFallbackMetric(report.fallback))->Increment();
  } else {
    return table;
  }
  metrics_.histogram("delta.merge.seconds")->Record(report.seconds);
  return table;
}

std::shared_ptr<delta::TableVersion> QueryService::GetOrCreateVersion(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding != nullptr && binding->version != nullptr) {
      return binding->version;
    }
  }
  // Make the table resident (loads an on-disk snapshot if needed), then
  // hang the version off the binding.
  if (FindTableShared(name) == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(tables_mu_);
  Binding* binding = FindBindingLocked(name);
  if (binding == nullptr) return nullptr;
  if (binding->version != nullptr) return binding->version;
  std::shared_ptr<const Table> base =
      binding->owned != nullptr
          ? binding->owned
          : (binding->borrowed != nullptr
                 ? std::shared_ptr<const Table>(binding->borrowed,
                                                [](const Table*) {})
                 : nullptr);
  if (base == nullptr) return nullptr;
  binding->version = std::make_shared<delta::TableVersion>(std::move(base));
  metrics_.counter("delta.versions_created")->Increment();
  // The merge counters read 0 until a read merges, rather than not at all.
  metrics_.counter("delta.merge.extends");
  metrics_.counter("delta.merge.full_builds");
  for (delta::MergeFallback reason : kMergeFallbacks) {
    metrics_.counter(MergeFallbackMetric(reason));
  }
  return binding->version;
}

delta::DmlOutcome QueryService::ApplyDml(const delta::DmlCommand& cmd) {
  delta::DmlOutcome out;
  std::shared_ptr<delta::TableVersion> version = GetOrCreateVersion(cmd.table);
  if (version == nullptr) {
    out.status = Status::NotFound("unknown table '" + cmd.table + "'");
    return out;
  }
  out = version->Apply(cmd);
  const std::string op = delta::DmlOpName(cmd.op);
  metrics_.counter("delta." + op + ".commands")->Increment();
  metrics_.counter("delta." + op + ".rows")->Add(out.rows_affected);
  if (out.rows_rejected > 0) {
    metrics_.counter("delta.rows_rejected")->Add(out.rows_rejected);
  }
  return out;
}

bool QueryService::CompactTable(const std::string& name) {
  std::shared_ptr<delta::TableVersion> version;
  std::string dir;
  bool save = false;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding == nullptr || binding->version == nullptr) return false;
    version = binding->version;
    if (has_catalog_ && binding->name.find('/') == std::string::npos) {
      dir = catalog_.dir + "/" + binding->name;
      save = true;
    }
  }
  delta::TableVersion::CompactionJob job = version->BeginCompaction();
  if (job.snap.empty()) return false;  // nothing to fold in

  // Heavy phase, no locks held: re-encode, then persist through the same
  // tmp+rename commit point snapshots use — a crash mid-save leaves the
  // previous snapshot intact and only *.tmp residue, which startup sweeps.
  Timer timer;
  delta::MergedTable merged = delta::BuildMergedTable(*job.base, job.snap);
  const uint64_t merged_rows = merged.table->row_count();
  if (save) {
    const Status st = SaveTableSnapshot(*merged.table, dir);
    if (!st.ok()) {
      // Publish in memory anyway: durability degraded, not correctness.
      metrics_.counter("compaction.save_failures")->Increment();
      save = false;
    }
  }
  if (!version->Publish(job, std::move(merged))) {
    metrics_.counter("compaction.aborted")->Increment();
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding != nullptr && binding->version == version) {
      binding->owned = version->base();
      binding->borrowed = nullptr;
      if (save) binding->on_disk = true;
    }
  }
  metrics_.counter("compaction.published")->Increment();
  metrics_.counter("compaction.rows_folded")
      ->Add(job.snap.rows.size() + job.snap.base_tombstones.size());
  metrics_.counter("compaction.base_rows")->Add(merged_rows);
  metrics_.histogram("compaction.seconds")->Record(timer.Seconds());
  return true;
}

void QueryService::EnableCompaction(const delta::CompactionOptions& options) {
  if (compactor_ != nullptr) return;
  delta::Compactor::Hooks hooks;
  const uint64_t min_pending = std::max<uint64_t>(1, options.min_delta_rows);
  hooks.list_tables = [this, min_pending] {
    std::vector<std::string> due;
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (const auto& binding : tables_) {
      if (binding.version != nullptr &&
          binding.version->pending_mutations() >= min_pending) {
        due.push_back(binding.name);
      }
    }
    return due;
  };
  hooks.compact = [this](const std::string& name) {
    return CompactTable(name);
  };
  compactor_ =
      std::make_unique<delta::Compactor>(options, std::move(hooks));
  compactor_->Start();
}

void QueryService::StopCompactor() {
  if (compactor_ != nullptr) compactor_->Stop();
}

QueryService::DeltaInfo QueryService::GetDeltaInfo(const std::string& name) {
  std::shared_ptr<delta::TableVersion> version;
  const Table* resident = nullptr;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    Binding* binding = FindBindingLocked(name);
    if (binding == nullptr) return {};
    version = binding->version;
    resident = binding->resident();
  }
  DeltaInfo info;
  if (version != nullptr) {
    info.has_version = true;
    info.epoch = version->epoch();
    info.delta_rows = version->delta_rows();
    info.live_rows = version->live_rows();
  } else if (resident != nullptr) {
    info.live_rows = resident->row_count();
  }
  return info;
}

ExecResult QueryService::ExecuteOn(QuerySession* session,
                                   const QuerySpec& spec,
                                   const ExecContext& ctx) {
  metrics_.counter("service.queries_submitted")->Increment();
  const Table& table = session->table();
  const QueryExecutor::SortAttrs attrs =
      session->executor_.ResolveSortAttrs(spec);

  // Admission: bounded in-flight queries + soft scratch-memory budget.
  // The RAII ticket releases the slot on every exit from this function —
  // ok, cancelled, degraded, or unwinding — never by explicit calls an
  // error path could miss.
  AdmissionController::Ticket ticket =
      admission_.Admit(EstimateScratchBytes(table, attrs), ctx);
  metrics_.histogram("admission.wait_seconds")->Record(ticket.wait_seconds());
  if (!ticket.admitted()) {
    metrics_.counter(std::string("exec.") + ticket.status().name())
        ->Increment();
    ExecResult out;
    out.status = ticket.status();
    return out;
  }

  Timer timer;
  ExecResult out;
  session->last_plan_cached_ = false;
  if (options_.use_massage) {
    const QuerySignature signature =
        SignatureOf(table, spec, attrs, table.row_count(), options_.rho);
    std::vector<StatsFingerprint> current = FingerprintsOf(table, attrs);
    CachedPlan cached;
    const PlanCache::Outcome outcome =
        plan_cache_.Lookup(signature, current, &cached);
    PlanHint hint;
    if (outcome == PlanCache::Outcome::kHit) {
      hint.plan = &cached.plan;
      hint.column_order = &cached.column_order;
      session->last_plan_cached_ = true;
    }
    ExecContext exec_ctx = ctx;  // copies share the flag / fault cell
    exec_ctx.WithHint(&hint);
    out = session->executor_.Execute(spec, exec_ctx);
    // Memoize fresh searches (the zero-row early return never plans).
    // Never cache failed or degraded executions: a stopped search's
    // best-so-far plan and a bank-capped plan are both wrong answers for
    // the next, unconstrained instance of this signature.
    if (outcome != PlanCache::Outcome::kHit && out.ok() &&
        !out.result.degraded && out.result.filtered_rows > 0) {
      CachedPlan fresh;
      fresh.plan = out.result.plan;
      fresh.column_order = out.result.column_order;
      fresh.fingerprints = std::move(current);
      plan_cache_.Insert(signature, std::move(fresh));
    }
  } else {
    out = session->executor_.Execute(spec, ctx);
  }
  QueryResult& result = out.result;

  // Outcome accounting: exec.<status code name> (exec.ok, exec.cancelled,
  // exec.unavailable, ...), plus degradations absorbed along the way.
  metrics_.counter(std::string("exec.") + out.status.name())->Increment();
  if (result.degraded) metrics_.counter("exec.degraded")->Increment();
  if (result.spill_key_too_wide) {
    metrics_.counter("exec.spill.key_too_wide")->Increment();
  }
  if (result.spilled) {
    metrics_.counter("exec.spill.queries")->Increment();
    metrics_.counter("exec.spill.runs")->Add(result.spill_runs);
    metrics_.counter("exec.spill.bytes")->Add(result.spill_bytes);
    metrics_.histogram("exec.spill.run_gen_seconds")
        ->Record(result.spill_run_gen_seconds);
    metrics_.histogram("exec.spill.merge_seconds")
        ->Record(result.spill_merge_seconds);
  }
  if (!out.ok()) {
    metrics_.histogram("exec.failed_seconds")->Record(timer.Seconds());
    return out;
  }

  metrics_.counter("service.queries_served")->Increment();
  metrics_.counter("service.rows_input")->Add(result.input_rows);
  metrics_.counter("service.rows_sorted")->Add(result.filtered_rows);
  metrics_.counter("service.groups_produced")->Add(result.num_groups);
  metrics_.histogram("query.total_seconds")->Record(timer.Seconds());
  metrics_.histogram("query.scan_seconds")->Record(result.scan_seconds);
  metrics_.histogram("query.materialize_seconds")
      ->Record(result.materialize_seconds);
  metrics_.histogram("query.plan_seconds")->Record(result.plan_seconds);
  metrics_.counter("plan.plans_costed")->Add(result.plans_costed);
  metrics_.counter("plan.search_truncated")
      ->Add(result.search_truncated ? 1 : 0);
  metrics_.histogram("query.mcs_seconds")->Record(result.mcs_seconds);
  metrics_.histogram("query.post_seconds")->Record(result.post_seconds);
  // Morsel-driven parallelism and kernel routing, surfaced from the
  // sort's RoundProfiles.
  uint64_t sort_morsels = 0, lookup_morsels = 0, scan_chunks = 0;
  uint64_t cooperative = 0;
  for (const RoundProfile& round : result.sort_profile.rounds) {
    sort_morsels += round.sort_morsels;
    lookup_morsels += round.lookup_morsels;
    scan_chunks += round.scan_chunks;
    cooperative += round.cooperative_sorts;
    // Per-kernel routing mix: how many rounds each kernel executed and
    // how much sort time it absorbed, so DumpMetrics shows whether ROGA
    // actually routes (sort.kernel.counting.rounds > 0 etc.).
    const std::string kernel = SortKernelName(round.kernel);
    metrics_.counter("sort.kernel." + kernel + ".rounds")->Increment();
    metrics_.histogram("sort.kernel." + kernel + ".seconds")
        ->Record(round.sort_seconds);
  }
  metrics_.counter("morsels.sort")->Add(sort_morsels);
  metrics_.counter("morsels.lookup")->Add(lookup_morsels);
  metrics_.counter("morsels.scan")->Add(scan_chunks);
  metrics_.counter("morsels.cooperative_sorts")->Add(cooperative);
  return out;
}

std::string QueryService::DumpMetrics() {
  std::string out = metrics_.Dump();
  char line[160];
  const PlanCache::Stats cache = plan_cache_.GetStats();
  std::snprintf(line, sizeof(line),
                "plan_cache.hits %llu\nplan_cache.misses %llu\n"
                "plan_cache.stale_hits %llu\nplan_cache.evictions %llu\n"
                "plan_cache.entries %zu\nplan_cache.hit_rate %.4f\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.stale_hits),
                static_cast<unsigned long long>(cache.evictions),
                cache.entries, cache.hit_rate());
  out += line;
  const AdmissionController::Stats admission = admission_.GetStats();
  std::snprintf(line, sizeof(line),
                "admission.admitted_total %llu\n"
                "admission.abandoned_total %llu\n"
                "admission.peak_inflight %d\n"
                "admission.peak_queue_depth %d\n"
                "admission.queue_depth %d\n",
                static_cast<unsigned long long>(admission.admitted_total),
                static_cast<unsigned long long>(admission.abandoned_total),
                admission.peak_inflight, admission.peak_queue_depth,
                admission.queue_depth);
  out += line;
  return out;
}

}  // namespace mcsort
