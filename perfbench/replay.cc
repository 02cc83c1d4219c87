#include "replay.h"

#include <map>
#include <memory>
#include <set>

#include "mcsort/service/query_service.h"

namespace perfbench {
namespace {

mcsort::ServiceOptions ServerLikeOptions(const ReplayConfig& config,
                                         bool use_massage) {
  mcsort::ServiceOptions options;
  options.threads = config.threads;
  options.rho = config.rho;
  options.use_massage = use_massage;
  options.use_calibration = false;  // the server never calibrates
  options.params = mcsort::CostParams::Default();
  return options;
}

// A session per resolved table image, as the server keeps them: a new
// image (after a write or a compaction) opens a new session.
struct SessionCache {
  std::map<std::string, std::shared_ptr<const mcsort::Table>> tables;
  std::map<std::string, std::unique_ptr<mcsort::QuerySession>> sessions;

  mcsort::QuerySession* Get(mcsort::QueryService& service,
                            const std::string& name,
                            std::shared_ptr<const mcsort::Table> table) {
    auto& session = sessions[name];
    if (session == nullptr || tables[name] != table) {
      tables[name] = std::move(table);
      session = service.OpenSession(*tables[name]);
    }
    return session.get();
  }
};

}  // namespace

ReplayResult Replay(const Workload& workload, const std::vector<ReplayOp>& ops,
                    const ReplayConfig& config, SpanLog* log) {
  ReplayResult out;
  mcsort::QueryService served(ServerLikeOptions(config, true));
  mcsort::CatalogOptions catalog;
  catalog.dir = config.catalog_dir;
  served.SetCatalog(catalog);
  // Column-at-a-time baseline over the benchmark's own (unwritten) copy of
  // the tables, for cost.massage_speedup.
  mcsort::QueryService baseline(ServerLikeOptions(config, false));
  for (const NamedTable& table : workload.tables) {
    baseline.RegisterTable(table.name, table.table);
  }
  SessionCache served_sessions, baseline_sessions;

  const Clock::time_point begin = Clock::now();
  std::set<std::string> touched;  // tables the replayed stream read or wrote
  bool dirty = false;  // a write landed since the last compaction
  uint64_t compaction_tick = 0;
  uint64_t request = 0;
  for (const ReplayOp& op : ops) {
    if (SecondsBetween(begin, Clock::now()) > config.budget_s) break;
    ++out.ops;
    ++request;
    if (workload.compaction && !workload.write_table.empty()) {
      // The server's compactor sweeps every interval; replay it on the
      // stream's own clock.
      const uint64_t tick = static_cast<uint64_t>(
          op.at_s * 1000.0 /
          static_cast<double>(workload.compaction_interval_ms));
      if (tick != compaction_tick) {
        compaction_tick = tick;
        const auto info = served.GetDeltaInfo(workload.write_table);
        if (info.delta_rows >= workload.compaction_min_rows) {
          const Clock::time_point t0 = Clock::now();
          const bool published = served.CompactTable(workload.write_table);
          const Clock::time_point t1 = Clock::now();
          log->Add("replay.compact_table", t0, t1, -1, request);
          out.compact_ms.Add(SecondsBetween(t0, t1) * 1e3);
          if (published) dirty = false;
        }
      }
    }

    if (op.is_write) {
      const mcsort::delta::DmlCommand cmd =
          MakeWrite(workload, config.seed, op.write);
      touched.insert(cmd.table);
      const Clock::time_point t0 = Clock::now();
      const mcsort::delta::DmlOutcome outcome = served.ApplyDml(cmd);
      const Clock::time_point t1 = Clock::now();
      log->Add("replay.apply_dml", t0, t1, -1, request);
      out.apply_ms.Add(SecondsBetween(t0, t1) * 1e3);
      if (!outcome.ok()) ++out.failed;
      dirty = dirty || (outcome.ok() && outcome.rows_affected > 0);
      continue;
    }

    const BenchQuery& query = workload.reads[op.read];
    touched.insert(query.table);
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const mcsort::Table> table =
        served.FindTableShared(query.table);
    const Clock::time_point t1 = Clock::now();
    log->Add("replay.find_table", t0, t1, -1, request);
    if (dirty) out.merge_at_scan_ms.Add(SecondsBetween(t0, t1) * 1e3);
    if (table == nullptr) {
      ++out.failed;
      continue;
    }
    mcsort::QuerySession* session =
        served_sessions.Get(served, query.table, std::move(table));
    const Clock::time_point t2 = Clock::now();
    const mcsort::ExecResult result =
        session->Execute(query.spec, mcsort::ExecContext());
    const Clock::time_point t3 = Clock::now();
    const int64_t exec_span =
        log->Add("replay.execute", t2, t3, -1, request);
    if (!result.ok()) {
      ++out.failed;
      continue;
    }
    const mcsort::QueryResult& r = result.result;
    // Phase timers as children; the main sort's rounds under "mcs".
    const double at = log->Seconds(t2);
    log->AddSequentialChildren({{"engine.scan", r.scan_seconds},
                                {"engine.materialize", r.materialize_seconds},
                                {"engine.plan", r.plan_seconds}},
                               at, exec_span, request);
    const double mcs_at =
        at + r.scan_seconds + r.materialize_seconds + r.plan_seconds;
    const int64_t mcs_span = log->AddSeconds(
        "engine.mcs", mcs_at, mcs_at + r.mcs_seconds, exec_span, request);
    std::vector<std::pair<std::string, double>> round_phases;
    round_phases.emplace_back("sort.massage", r.sort_profile.massage_seconds);
    for (const mcsort::RoundProfile& round : r.sort_profile.rounds) {
      round_phases.emplace_back("sort.round.lookup", round.lookup_seconds);
      round_phases.emplace_back("sort.round.sort", round.sort_seconds);
      round_phases.emplace_back("sort.round.group_scan", round.scan_seconds);
      out.round_lookup_ms.Add(round.lookup_seconds * 1e3);
      out.round_sort_ms.Add(round.sort_seconds * 1e3);
      out.round_group_scan_ms.Add(round.scan_seconds * 1e3);
    }
    log->AddSequentialChildren(round_phases, mcs_at, mcs_span, request);
    log->AddSeconds("engine.post", mcs_at + r.mcs_seconds,
                    mcs_at + r.mcs_seconds + r.post_seconds, exec_span,
                    request);
    out.rounds_per_query.Add(static_cast<double>(r.sort_profile.rounds.size()));

    // Same query, column-at-a-time, on the unwritten copy.
    std::shared_ptr<const mcsort::Table> base_table =
        baseline.FindTableShared(query.table);
    mcsort::QuerySession* base_session =
        baseline_sessions.Get(baseline, query.table, std::move(base_table));
    const mcsort::ExecResult base =
        base_session->Execute(query.spec, mcsort::ExecContext());
    if (base.ok()) {
      out.served_mcs_s += r.mcs_seconds;
      out.baseline_mcs_s += base.result.mcs_seconds;
      ++out.compared_queries;
    }
  }

  // One snapshot save per table the stream read or wrote (only those are
  // resident; the catalog loads tables on first use).
  for (const std::string& name : touched) {
    const Clock::time_point t0 = Clock::now();
    const mcsort::Status status = served.SaveTable(name);
    const Clock::time_point t1 = Clock::now();
    log->Add("replay.save_table", t0, t1, -1, ++request);
    if (status.ok()) {
      out.save_ms.Add(SecondsBetween(t0, t1) * 1e3);
    } else {
      ++out.failed;
    }
  }
  return out;
}

}  // namespace perfbench
