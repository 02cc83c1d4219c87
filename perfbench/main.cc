// perfbench — the loopback benchmark of mcsort. Generates one workload's
// tables from a seed, saves them as snapshots, starts the built
// mcsort_server on them as a child process (loopback, ephemeral port),
// drives it through McsortClient for a timed window, checks every answer,
// and prints its metrics. Usually invoked through run.py, which builds it:
//
//   perfbench --server <mcsort_server> --work <dir> --workload <name>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size-factor <f>] [--corrupt-reference] [--commit <id>]
//             [--trace-file <path>]
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is the full report: reproducibility
// record, metric bases, failure taxonomy and (traced) layer self times.
// Exit status: 0 when every operation succeeded with a right answer, 1 on
// a wrong answer, a failed operation (typed error, transport error, BUSY)
// or a failed cross-check, 2 on a usage or set-up error.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.h"
#include "mcsort/common/options.h"
#include "mcsort/common/random.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/net/client.h"
#include "reference.h"
#include "replay.h"
#include "server_process.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mcsort::net::ClientOptions;
using mcsort::net::ErrorCode;
using mcsort::net::McsortClient;
using mcsort::net::RemoteResult;

constexpr int kReaders = 2;  // closed-loop read clients
// Server start-ups per run; setup_s is their median. At least
// kSetupMinReps, then more while they took under kSetupMinSeconds in
// total: a 50 ms start-up is mostly process spawn, so it gets more
// repetitions than a 0.5 s one.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 40;
constexpr double kSetupMinSeconds = 2;

// The server's planning threshold. ServerProcess removes every MCSORT_*
// variable it does not set, so mcsort_server runs ExecOptions' default
// rho. It never sets use_calibration either, so it plans with
// CostParams::Default() and reads no host calibration file. Its pool size
// is read from its listening line (ServerProcess::pool_threads).
double ServerRho() { return mcsort::ExecOptions{}.rho; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work;
  std::string commit = "unknown";
  std::string trace_file;  // default: trace.jsonl in the work directory
  double size_factor = 1;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work") {
      args->work = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else if (flag == "--size-factor") {
      args->size_factor = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  if (args->workload.empty() || args->server.empty() || args->work.empty() ||
      args->seconds <= 0 || args->size_factor <= 0) {
    return false;
  }
  // The server runs in the work directory: pass it absolute paths.
  args->server = fs::absolute(args->server).string();
  args->work = fs::absolute(args->work).string();
  if (args->trace_file.empty()) {
    args->trace_file = (fs::path(args->work) / "trace.jsonl").string();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Server metrics scraped over GetMetrics, and their deltas.
// ---------------------------------------------------------------------------

struct HistogramLine {
  double count = 0;
  double sum = 0;
  double p50 = 0;
};

struct MetricsScrape {
  std::map<std::string, double> values;
  std::map<std::string, HistogramLine> histograms;

  double Delta(const MetricsScrape& before, const std::string& name) const {
    const auto now = values.find(name);
    const auto then = before.values.find(name);
    return (now == values.end() ? 0 : now->second) -
           (then == before.values.end() ? 0 : then->second);
  }
  HistogramLine HistDelta(const MetricsScrape& before,
                          const std::string& name) const {
    HistogramLine out;
    const auto now = histograms.find(name);
    if (now == histograms.end()) return out;
    out = now->second;
    const auto then = before.histograms.find(name);
    if (then != before.histograms.end()) {
      out.count -= then->second.count;
      out.sum -= then->second.sum;
    }
    return out;
  }
};

// Parses the text dump: "<name> <value>" or
// "<name> count=<n> p50=<s> p99=<s> max=<s> sum=<s>".
MetricsScrape ParseMetrics(const std::string& text) {
  MetricsScrape out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name, first;
    if (!(fields >> name >> first)) continue;
    if (first.rfind("count=", 0) != 0) {
      out.values[name] = std::atof(first.c_str());
      continue;
    }
    HistogramLine h;
    h.count = std::atof(first.c_str() + 6);
    std::string field;
    while (fields >> field) {
      if (field.rfind("p50=", 0) == 0) h.p50 = std::atof(field.c_str() + 4);
      if (field.rfind("sum=", 0) == 0) h.sum = std::atof(field.c_str() + 4);
    }
    out.histograms[name] = h;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation records and the failure tally.
// ---------------------------------------------------------------------------

struct ReadRecord {
  uint32_t read = 0;      // index into Workload::reads
  double start_s = 0;     // since the window opened
  double latency_s = 0;   // client span around McsortClient::Query
  bool ok = false;
  mcsort::net::ResultSummary summary;
  uint64_t delta_rows = 0;  // traced mixed_rw: last sampled delta_rows
};

struct WriteRecord {
  uint64_t index = 0;
  double scheduled_s = 0;
  double sent_s = 0;
  double acked_s = 0;
  bool ok = false;
};

// Failures by kind: typed server errors, transport errors, BUSY rejects,
// wrong answers, failed cross-checks. Every attempted operation lands in
// `attempted`; nothing is retried out of the tally. Any failure makes the
// run incorrect: an operation that fails is an answer that was not
// checked, and a read that errors must not pass for a faster one.
class Tally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& kind, const std::string& detail = "") {
    std::lock_guard<std::mutex> lock(mu_);
    ++kinds_[kind];
    if (!detail.empty() && details_.size() < 8) details_.push_back(detail);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [kind, n] : kinds_) total += n;
    return total;
  }
  std::string Dump() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonObject kinds;
    for (const auto& [kind, n] : kinds_) kinds.Num(kind, static_cast<double>(n));
    std::string details = "[";
    for (size_t i = 0; i < details_.size(); ++i) {
      details += (i ? ", " : "") + JsonString(details_[i]);
    }
    return JsonObject()
        .Raw("by_kind", kinds.Dump())
        .Raw("examples", details + "]")
        .Dump();
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> kinds_;
  std::vector<std::string> details_;
};

// Classifies a failed query or DML reply; true when the call succeeded.
bool Classify(bool transport_ok, ErrorCode error, bool ok, Tally* tally,
              const std::string& what) {
  if (ok) return true;
  if (!transport_ok) {
    tally->Fail("transport", what);
  } else if (error == ErrorCode::kBusy) {
    tally->Fail("busy", what);
  } else if (error != ErrorCode::kNone) {
    tally->Fail(std::string("server_error.") + mcsort::net::ErrorCodeName(error),
                what);
  } else {
    tally->Fail("exec_error", what);
  }
  return false;
}

std::unique_ptr<McsortClient> Connect(uint16_t port, const std::string& name) {
  ClientOptions options;
  options.port = port;
  options.client_name = name;
  options.io_timeout_seconds = 60;
  auto client = std::make_unique<McsortClient>(options);
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (client->Connect()) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return nullptr;
}

mcsort::net::QueryCallOptions CallFor(const BenchQuery& query) {
  mcsort::net::QueryCallOptions options;
  options.table = query.table;
  return options;
}

// ---------------------------------------------------------------------------
// One run: data, set-up, gate, timed window(s), checks.
// ---------------------------------------------------------------------------

struct Shape {
  uint64_t filtered_rows = 0;
  uint64_t num_groups = 0;
  bool known = false;
};

// Host CPU time stolen by the hypervisor over the window, from the
// "cpu" line of /proc/stat: a reader of the report can tell a slow host
// from a slow program.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  for (int field = 0; field < 10 && in; ++field) {
    double value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

struct WindowResult {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  double elapsed_s = 0;
  double server_cpu_s = 0;  // the server's user + system CPU time
  double host_steal_pct = 0;
  double writer_late_max_s = 0;
  MetricsScrape before, after;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int Run();

 private:
  std::string Path(const std::string& name) const {
    return (fs::path(args_.work) / name).string();
  }
  bool SaveSnapshots();
  bool StartServer(const std::string& catalog, int rep, std::string* error);
  bool SetUp(std::string* error);
  bool Gate();
  bool CheckRead(uint32_t read, const RemoteResult& result, bool first);
  WindowResult RunWindow(bool traced, double seconds);
  void Reader(McsortClient* client, bool traced, Clock::time_point open,
              Clock::time_point close, SpanLog* log,
              std::vector<ReadRecord>* out);
  void Writer(McsortClient* client, Clock::time_point open,
              Clock::time_point close, SpanLog* log,
              std::vector<WriteRecord>* out, double* late_max_s);
  bool CrossCheck(const WindowResult& window);
  bool FinalCheck();
  bool Correct() const { return final_ok_ && tally_.failed() == 0; }
  void ReportPerLayer(const WindowResult& traced,
                      const std::vector<WindowResult>& untraced,
                      JsonObject* metrics, JsonObject* report);
  void Finish(const std::vector<WindowResult>& untraced,
              const WindowResult* traced);

  const Args args_;
  Workload workload_;
  ServerProcess server_;
  std::unique_ptr<McsortClient> control_;
  std::vector<std::unique_ptr<McsortClient>> readers_;
  std::unique_ptr<McsortClient> writer_;
  Tally tally_;
  std::vector<Shape> shapes_;        // first answer's shape per read query
  std::atomic<uint64_t> next_read_{0};
  std::atomic<uint64_t> next_request_{1};  // trace request ids of reads
  // Traced mixed_rw: the written table's delta_rows, sampled by the main
  // thread over the control connection while the window runs.
  std::atomic<uint64_t> delta_rows_{0};
  uint64_t next_write_ = 0;
  std::vector<uint64_t> acked_writes_;  // MakeWrite indices, in ack order
  JsonObject phases_;  // wall seconds of each step of the run
  Samples setup_s_;
  Samples first_query_ms_;  // io.snapshot_load_ms: first query per table
  double rss_mib_ = 0;
  double snapshot_bytes_per_row_ = 0;
  uint64_t catalog_bytes_ = 0;
  uint64_t live_rows_ = 0;
  bool final_ok_ = true;
};

bool Bench::SaveSnapshots() {
  // One thread per table; the server has not started yet.
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (const NamedTable& table : workload_.tables) {
    threads.emplace_back([&, dir = Path("pristine/" + table.name)] {
      if (!table.table.SaveSnapshot(dir).ok()) ok = false;
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

bool Bench::StartServer(const std::string& catalog, int rep,
                        std::string* error) {
  ServerLaunch launch;
  launch.binary = args_.server;
  launch.work_dir = args_.work;
  launch.log_path = Path("server-" + std::to_string(rep) + ".log");
  launch.env = {{"MCSORT_HOST", "127.0.0.1"},
                {"MCSORT_PORT", "0"},
                // The server always builds its demo table; keep it tiny.
                {"MCSORT_N", "1024"},
                {"MCSORT_DATA_DIR", catalog}};
  if (workload_.compaction) {
    launch.env.push_back({"MCSORT_COMPACT", "1"});
    launch.env.push_back({"MCSORT_COMPACT_INTERVAL_MS",
                          std::to_string(workload_.compaction_interval_ms)});
    launch.env.push_back({"MCSORT_COMPACT_MIN_ROWS",
                          std::to_string(workload_.compaction_min_rows)});
  }
  return server_.Start(launch, 60, error);
}

// setup_s: from spawning the server until every table has answered its
// first query (catalog attach, snapshot load, first plan). Repeated on
// fresh catalog copies, back to back; the last server stays up.
bool Bench::SetUp(std::string* error) {
  const std::string catalog = Path("catalog");
  for (int rep = 0;; ++rep) {
    fs::remove_all(catalog);
    fs::copy(Path("pristine"), catalog, fs::copy_options::recursive);
    const Clock::time_point spawn = Clock::now();
    if (!StartServer(catalog, rep, error)) return false;
    control_ = Connect(server_.port(), "perfbench-control");
    if (control_ == nullptr) {
      *error = "cannot connect to the server";
      return false;
    }
    for (const BenchQuery& query : workload_.first_queries) {
      tally_.Attempt();
      const Clock::time_point t0 = Clock::now();
      const RemoteResult result = control_->Query(query.spec, CallFor(query));
      first_query_ms_.Add(SecondsBetween(t0, Clock::now()) * 1e3);
      if (!Classify(result.transport_ok, result.error, result.ok(), &tally_,
                    "first query " + query.id)) {
        *error = "first query failed: " + query.id;
        return false;
      }
    }
    setup_s_.Add(SecondsBetween(spawn, Clock::now()));
    const bool enough = rep + 1 >= kSetupMaxReps ||
                        (rep + 1 >= kSetupMinReps &&
                         setup_s_.sum() >= kSetupMinSeconds);
    if (enough) break;
    control_.reset();
    server_.Stop();
  }
  for (int i = 0; i < kReaders; ++i) {
    readers_.push_back(Connect(server_.port(), "perfbench-reader"));
    if (readers_.back() == nullptr) {
      *error = "cannot connect a reader";
      return false;
    }
  }
  writer_ = Connect(server_.port(), "perfbench-writer");
  if (writer_ == nullptr) {
    *error = "cannot connect the writer";
    return false;
  }
  return true;
}

// Checks a read's answer: the first answer of each distinct query against
// the naive reference; later answers of the static workloads against the
// first answer's shape (row and group counts).
bool Bench::CheckRead(uint32_t read, const RemoteResult& result, bool first) {
  const BenchQuery& query = workload_.reads[read];
  if (first) {
    const std::string wrong =
        CheckAnswer(workload_.table(query.table), query.spec, result,
                    args_.corrupt_reference);
    if (!wrong.empty()) {
      tally_.Fail("wrong_answer", wrong);
      return false;
    }
    shapes_[read] = {result.summary.filtered_rows, result.summary.num_groups,
                     true};
    return true;
  }
  const Shape& shape = shapes_[read];
  if (workload_.write_table.empty() && shape.known &&
      (shape.filtered_rows != result.summary.filtered_rows ||
       shape.num_groups != result.summary.num_groups ||
       result.result_oids.size() != shape.filtered_rows)) {
    tally_.Fail("wrong_answer", query.id + ": answer changed between repeats");
    return false;
  }
  return true;
}

// The correctness gate, outside the timed window: every distinct read
// query once, its answer checked against the reference. Doubles as the
// warm-up (tpch_warm's plans are cached afterwards).
bool Bench::Gate() {
  shapes_.assign(workload_.reads.size(), Shape{});
  std::atomic<size_t> next{0};
  // Every connection takes part (the checks dominate): at most three
  // client threads plus this one, within the host's four cores.
  std::vector<McsortClient*> clients = {writer_.get()};
  for (const auto& reader : readers_) clients.push_back(reader.get());
  std::vector<std::thread> threads;
  for (McsortClient* client : clients) {
    threads.emplace_back([&, client] {
      for (size_t q = next++; q < workload_.reads.size(); q = next++) {
        const BenchQuery& query = workload_.reads[q];
        tally_.Attempt();
        const RemoteResult result = client->Query(query.spec, CallFor(query));
        if (!result.transport_ok) client->Connect();
        if (Classify(result.transport_ok, result.error, result.ok(), &tally_,
                     query.id)) {
          CheckRead(static_cast<uint32_t>(q), result, /*first=*/true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The timed window continues the cycle where the gate left it.
  next_read_ = workload_.reads.size();
  // A query whose first answer was not checked (its call failed, already
  // in the tally) leaves its later answers unchecked too: the run cannot
  // count as correct.
  for (const Shape& shape : shapes_) {
    if (!shape.known) return false;
  }
  return true;
}

void Bench::Reader(McsortClient* client, bool traced, Clock::time_point open,
                   Clock::time_point close, SpanLog* log,
                   std::vector<ReadRecord>* out) {
  while (Clock::now() < close) {
    const uint32_t read =
        static_cast<uint32_t>(next_read_++ % workload_.reads.size());
    const BenchQuery& query = workload_.reads[read];
    ReadRecord record;
    record.read = read;
    record.delta_rows = delta_rows_;
    tally_.Attempt();
    const Clock::time_point t0 = Clock::now();
    const RemoteResult result = client->Query(query.spec, CallFor(query));
    const Clock::time_point t1 = Clock::now();
    record.start_s = SecondsBetween(open, t0);
    record.latency_s = SecondsBetween(t0, t1);
    record.summary = result.summary;
    record.ok = Classify(result.transport_ok, result.error, result.ok(),
                         &tally_, query.id) &&
                CheckRead(read, result, /*first=*/false);
    if (!result.transport_ok) client->Connect();
    if (traced) {
      const uint64_t id = next_request_++;
      const int64_t span = log->Add("client.query", t0, t1, -1, id);
      const auto& s = result.summary;
      const double phases = s.scan_seconds + s.materialize_seconds +
                            s.plan_seconds + s.mcs_seconds + s.post_seconds;
      // Server phases centred in the client span; the rest is net.
      const double at =
          log->Seconds(t0) + std::max(0.0, record.latency_s - phases) / 2;
      log->AddSequentialChildren({{"server.scan", s.scan_seconds},
                                  {"server.materialize", s.materialize_seconds},
                                  {"server.plan", s.plan_seconds},
                                  {"server.mcs", s.mcs_seconds},
                                  {"server.post", s.post_seconds}},
                                 at, span, id);
    }
    out->push_back(record);
  }
}

// Open loop: writes arrive as a seeded Poisson process at the workload's
// rate, as independent users' writes would, whatever happened before. A
// write's latency runs from its due time to the acknowledgement. Random
// gaps keep the writer from phase-locking with the closed-loop readers.
void Bench::Writer(McsortClient* client, Clock::time_point open,
                   Clock::time_point close, SpanLog* log,
                   std::vector<WriteRecord>* out, double* late_max_s) {
  mcsort::Rng rng(args_.seed ^ 0x57A1E);
  double due_s = 0;
  for (;;) {
    due_s += -std::log(1.0 - rng.NextDouble()) / workload_.write_rate_per_s;
    const Clock::time_point due =
        open + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due_s));
    if (due >= close) break;
    std::this_thread::sleep_until(due);
    WriteRecord record;
    record.index = next_write_++;
    const mcsort::delta::DmlCommand cmd =
        MakeWrite(workload_, args_.seed, record.index);
    tally_.Attempt();
    const Clock::time_point sent = Clock::now();
    const mcsort::net::DmlResult result = client->ExecuteDml(cmd);
    const Clock::time_point acked = Clock::now();
    record.scheduled_s = SecondsBetween(open, due);
    record.sent_s = SecondsBetween(open, sent);
    record.acked_s = SecondsBetween(open, acked);
    *late_max_s = std::max(*late_max_s, record.sent_s - record.scheduled_s);
    record.ok = Classify(result.transport_ok, result.error, result.ok(),
                         &tally_, "dml");
    if (record.ok && result.reply.rows_rejected > 0) {
      tally_.Fail("dml_rows_rejected", "dml");
      record.ok = false;
    }
    if (record.ok) acked_writes_.push_back(record.index);
    if (!result.transport_ok) client->Connect();
    if (log != nullptr) log->Add("client.dml", due, acked, -1, record.index);
    out->push_back(record);
  }
}

WindowResult Bench::RunWindow(bool traced, double seconds) {
  WindowResult window;
  std::string text;
  control_->GetMetrics(&text);
  window.before = ParseMetrics(text);
  const CpuTicks ticks_before = ReadCpuTicks();
  const double cpu_before = server_.CpuSeconds();
  const Clock::time_point open = Clock::now();
  const Clock::time_point close =
      open + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
  std::vector<std::vector<ReadRecord>> reads(kReaders);
  for (int i = 0; i <= kReaders; ++i) {
    window.logs.push_back(std::make_unique<SpanLog>(open));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      Reader(readers_[i].get(), traced, open, close, window.logs[i].get(),
             &reads[i]);
    });
  }
  if (!workload_.write_table.empty()) {
    threads.emplace_back([&] {
      Writer(writer_.get(), open, close,
             traced ? window.logs[kReaders].get() : nullptr, &window.writes,
             &window.writer_late_max_s);
    });
  }
  if (traced && !workload_.write_table.empty()) {
    // delta.rows_at_read: the written table's pending delta, sampled here
    // over the control connection, off the readers' critical path.
    while (Clock::now() < close) {
      mcsort::net::SchemaReply schema;
      if (control_->GetSchema(&schema)) {
        for (const auto& table : schema.tables) {
          if (table.name == workload_.write_table) {
            delta_rows_ = table.delta_rows;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : threads) t.join();
  window.elapsed_s = SecondsBetween(open, Clock::now());
  window.server_cpu_s = server_.CpuSeconds() - cpu_before;
  const CpuTicks ticks_after = ReadCpuTicks();
  if (ticks_after.total > ticks_before.total) {
    window.host_steal_pct = (ticks_after.steal - ticks_before.steal) /
                            (ticks_after.total - ticks_before.total) * 100;
  }
  control_->GetMetrics(&text);
  window.after = ParseMetrics(text);
  for (auto& r : reads) {
    window.reads.insert(window.reads.end(), r.begin(), r.end());
  }
  return window;
}

// Client-side counts must equal the server's own counters over the window.
bool Bench::CrossCheck(const WindowResult& window) {
  const double queries = window.after.Delta(window.before, "net.queries");
  const double dml = window.after.Delta(window.before, "net.dml");
  bool ok = true;
  if (queries != static_cast<double>(window.reads.size())) {
    tally_.Fail("crosscheck", "sent " + std::to_string(window.reads.size()) +
                                  " queries, server counted " +
                                  JsonNumber(queries));
    ok = false;
  }
  if (dml != static_cast<double>(window.writes.size())) {
    tally_.Fail("crosscheck", "sent " + std::to_string(window.writes.size()) +
                                  " DMLs, server counted " + JsonNumber(dml));
    ok = false;
  }
  return ok;
}

// mixed_rw: the final read must equal the base rows plus every
// acknowledged write, applied to the benchmark's own model.
bool Bench::FinalCheck() {
  if (workload_.write_table.empty()) return true;
  TableModel model(workload_.table(workload_.write_table),
                   args_.corrupt_reference);
  for (uint64_t index : acked_writes_) {
    model.Apply(MakeWrite(workload_, args_.seed, index));
  }
  const BenchQuery& query = workload_.final_read;
  tally_.Attempt();
  const RemoteResult result = control_->Query(query.spec, CallFor(query));
  const std::string wrong = model.CheckGroupedCounts(query.spec, result);
  if (!wrong.empty()) {
    tally_.Fail("wrong_answer", wrong);
    return false;
  }
  return true;
}

uint64_t Completed(const WindowResult& window) {
  uint64_t completed = 0;
  for (const ReadRecord& r : window.reads) completed += r.ok ? 1 : 0;
  return completed;
}

// Reports one bag of milliseconds as {count, sum, median}.
std::string Base(const Samples& samples) {
  return JsonObject()
      .Num("count", static_cast<double>(samples.count()))
      .Num("sum", samples.sum())
      .Num("median", samples.Median())
      .Dump();
}

std::string Metric(double value, const std::string& unit) {
  return JsonObject().Num("value", value).Str("unit", unit).Dump();
}

// Per-layer metrics, from the traced window and the replay, into
// *metrics (the result line) and *report (bases, self times).
void Bench::ReportPerLayer(const WindowResult& w,
                           const std::vector<WindowResult>& untraced,
                           JsonObject* metrics, JsonObject* report) {
  JsonObject bases;
  const MetricsScrape& a = w.after;
  const MetricsScrape& b = w.before;
  Samples overhead_ms, scan_ms, lookup_ms, plan_ms, mcs_ms, post_ms,
      delta_rows;
  const HistogramLine admission = a.HistDelta(b, "admission.wait_seconds");
  const double admission_mean_ms =
      admission.count > 0 ? admission.sum / admission.count * 1e3 : 0;
  uint64_t traced_completed = 0;
  for (const ReadRecord& r : w.reads) {
    if (!r.ok) continue;
    ++traced_completed;
    const auto& s = r.summary;
    const double phases = s.scan_seconds + s.materialize_seconds +
                          s.plan_seconds + s.mcs_seconds + s.post_seconds;
    overhead_ms.Add((r.latency_s - phases) * 1e3 - admission_mean_ms);
    scan_ms.Add(s.scan_seconds * 1e3);
    lookup_ms.Add(s.materialize_seconds * 1e3);
    plan_ms.Add(s.plan_seconds * 1e3);
    mcs_ms.Add(s.mcs_seconds * 1e3);
    post_ms.Add(s.post_seconds * 1e3);
    if (!workload_.write_table.empty()) delta_rows.Add(r.delta_rows);
  }
  const double net_queries = a.Delta(b, "net.queries");
  const double bytes_out = a.Delta(b, "net.bytes_out");
  const double hits = a.Delta(b, "plan_cache.hits");
  const double lookups = hits + a.Delta(b, "plan_cache.misses") +
                         a.Delta(b, "plan_cache.stale_hits");
  const double ovc_emitted = a.Delta(b, "sort.ovc.emitted");
  const double ovc_full = a.Delta(b, "sort.ovc.full_compares");
  const HistogramLine compaction = a.HistDelta(b, "compaction.seconds");
  const double published = a.Delta(b, "compaction.published");

  // The replay: same request stream, in-process, after the server stopped.
  std::vector<ReplayOp> ops;
  for (const ReadRecord& r : w.reads) {
    ops.push_back({false, r.read, 0, r.start_s});
  }
  for (const WriteRecord& wr : w.writes) {
    ops.push_back({true, 0, wr.index, wr.sent_s});
  }
  std::sort(ops.begin(), ops.end(), [](const ReplayOp& x, const ReplayOp& y) {
    return x.at_s < y.at_s;
  });
  fs::remove_all(Path("replay_catalog"));
  fs::copy(Path("pristine"), Path("replay_catalog"),
           fs::copy_options::recursive);
  ReplayConfig config;
  config.catalog_dir = Path("replay_catalog");
  config.threads = server_.pool_threads();
  config.rho = ServerRho();
  config.seed = args_.seed;
  config.budget_s = args_.seconds;
  // The replay starts from the pristine snapshots: the traced window's
  // writes land on the base, without those of the untraced window.
  SpanLog replay_log(Clock::now());
  const Clock::time_point replay_start = Clock::now();
  const ReplayResult replay = Replay(workload_, ops, config, &replay_log);
  phases_.Num("replay", SecondsBetween(replay_start, Clock::now()));
  if (replay.failed > 0) tally_.Fail("replay", "replay operations failed");

  // compaction.write_amp: bytes written to the catalog by compactions
  // (one full snapshot of the table each) per byte of rows inserted.
  double inserted_rows = 0;
  for (const WriteRecord& wr : w.writes) {
    if (!wr.ok) continue;
    const auto cmd = MakeWrite(workload_, args_.seed, wr.index);
    inserted_rows += static_cast<double>(cmd.rows.size());
  }
  double write_amp = 0;
  if (!workload_.write_table.empty() && inserted_rows > 0) {
    const mcsort::Table& table = workload_.table(workload_.write_table);
    double row_bytes = 0;
    for (const std::string& name : table.column_names()) {
      row_bytes += table.column(name).width() / 8.0;
    }
    write_amp = published * static_cast<double>(catalog_bytes_) /
                (inserted_rows * row_bytes);
  }

  // Tracing overhead: the traced window against the untraced halves run
  // just before and just after it, so a steady drift of the host or of the
  // table hits both sides alike. The halves' own difference is the noise
  // floor the overhead must be read against.
  const double traced_qps =
      static_cast<double>(traced_completed) / w.elapsed_s;
  double untraced_completed = 0, untraced_s = 0;
  std::vector<double> half_qps;
  for (const WindowResult& u : untraced) {
    untraced_completed += static_cast<double>(Completed(u));
    untraced_s += u.elapsed_s;
    half_qps.push_back(static_cast<double>(Completed(u)) / u.elapsed_s);
  }
  const double qps = untraced_s > 0 ? untraced_completed / untraced_s : 0;
  const double overhead_pct = qps > 0 ? (qps - traced_qps) / qps * 100 : 0;
  const double noise_pct =
      qps > 0 && half_qps.size() == 2
          ? std::fabs(half_qps[0] - half_qps[1]) / qps * 100
          : 0;
  const double speedup = replay.served_mcs_s > 0
                             ? replay.baseline_mcs_s / replay.served_mcs_s
                             : 0;

  struct LayerMetric {
    std::string name;
    double value;
    const char* unit;
    std::string base;
  };
  auto count_sum = [](double count, double sum) {
    return JsonObject().Num("count", count).Num("sum", sum).Dump();
  };
  std::vector<LayerMetric> layers = {
      {"net.overhead_ms", overhead_ms.Median(), "ms", Base(overhead_ms)},
      {"net.bytes_out_per_query", net_queries > 0 ? bytes_out / net_queries : 0,
       "B", count_sum(net_queries, bytes_out)},
      {"service.admission_wait_ms", admission_mean_ms, "ms",
       JsonObject()
           .Num("count", admission.count)
           .Num("sum", admission.sum * 1e3)
           .Num("median_cumulative", admission.p50 * 1e3)
           .Dump()},
      {"service.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0,
       "ratio", count_sum(lookups, hits)},
      {"scan.filter_ms", scan_ms.Median(), "ms", Base(scan_ms)},
      {"scan.lookup_ms", lookup_ms.Median(), "ms", Base(lookup_ms)},
      {"plan.search_ms", plan_ms.Median(), "ms", Base(plan_ms)},
      {"cost.massage_speedup", speedup, "ratio",
       JsonObject()
           .Num("count", static_cast<double>(replay.compared_queries))
           .Num("baseline_mcs_ms", replay.baseline_mcs_s * 1e3)
           .Num("served_mcs_ms", replay.served_mcs_s * 1e3)
           .Dump()},
      {"engine.mcs_ms", mcs_ms.Median(), "ms", Base(mcs_ms)},
      {"engine.round.lookup_ms", replay.round_lookup_ms.Median(), "ms",
       Base(replay.round_lookup_ms)},
      {"engine.round.sort_ms", replay.round_sort_ms.Median(), "ms",
       Base(replay.round_sort_ms)},
      {"engine.round.group_scan_ms", replay.round_group_scan_ms.Median(),
       "ms", Base(replay.round_group_scan_ms)},
      {"engine.rounds_per_query",
       replay.rounds_per_query.count() > 0
           ? replay.rounds_per_query.sum() / replay.rounds_per_query.count()
           : 0,
       "count", Base(replay.rounds_per_query)},
      {"sort.ovc.full_compare_ratio",
       ovc_emitted > 0 ? ovc_full / ovc_emitted : 0, "ratio",
       count_sum(ovc_emitted, ovc_full)},
      {"engine.post_ms", post_ms.Median(), "ms", Base(post_ms)},
      {"delta.merge_at_scan_ms", replay.merge_at_scan_ms.Median(), "ms",
       Base(replay.merge_at_scan_ms)},
      {"delta.rows_at_read", delta_rows.Median(), "rows", Base(delta_rows)},
      {"delta.apply_ms", replay.apply_ms.Median(), "ms",
       Base(replay.apply_ms)},
      {"compaction.ms",
       compaction.count > 0 ? compaction.sum / compaction.count * 1e3 : 0,
       "ms", count_sum(compaction.count, compaction.sum * 1e3)},
      {"compaction.published", published, "count", count_sum(published, 0)},
      {"compaction.write_amp", write_amp, "ratio",
       count_sum(inserted_rows, published * catalog_bytes_)},
      {"io.snapshot_load_ms", first_query_ms_.Median(), "ms",
       Base(first_query_ms_)},
      {"io.snapshot_save_ms", replay.save_ms.Median(), "ms",
       Base(replay.save_ms)},
      {"trace.overhead_pct", overhead_pct, "%",
       JsonObject()
           .Num("untraced_qps", qps)
           .Num("traced_qps", traced_qps)
           .Num("untraced_halves_diff_pct", noise_pct)
           .Dump()},
  };
  for (const char* kernel : {"merge", "ovc", "counting", "radix"}) {
    const std::string prefix = std::string("sort.kernel.") + kernel;
    const HistogramLine h = a.HistDelta(b, prefix + ".seconds");
    layers.push_back({prefix + ".ms", h.sum * 1e3, "ms",
                      count_sum(h.count, h.sum * 1e3)});
    layers.push_back({prefix + ".rounds", h.count, "count",
                      count_sum(h.count, 0)});
  }
  for (const LayerMetric& m : layers) {
    metrics->Raw(m.name, Metric(m.value, m.unit));
    bases.Raw(m.name, m.base);
  }

  // Self time per layer, client spans and replay spans together.
  std::vector<const SpanLog*> logs;
  for (const auto& log : w.logs) logs.push_back(log.get());
  logs.push_back(&replay_log);
  const std::vector<Span> spans = MergeLogs(logs);
  JsonObject self;
  for (const auto& [name, t] : SelfTimes(spans)) {
    self.Raw(name, JsonObject()
                       .Num("count", static_cast<double>(t.count))
                       .Num("self_ms", t.self_ms)
                       .Num("total_ms", t.total_ms)
                       .Dump());
  }
  const std::string& trace_path = args_.trace_file;
  if (!WriteSpans(spans, trace_path)) tally_.Fail("trace_io", trace_path);
  report->Raw("per_layer_bases", bases.Dump())
      .Raw("self_time", self.Dump())
      .Str("trace_file", trace_path)
      .Num("replay_ops", static_cast<double>(replay.ops));
}

void Bench::Finish(const std::vector<WindowResult>& untraced,
                   const WindowResult* traced) {
  JsonObject metrics;  // the result line's metrics
  JsonObject report;

  // ---- end-to-end, from the (first) untraced window ----
  const WindowResult& timed = untraced.front();
  Samples query_ms, dml_ms, late_ms;
  for (const ReadRecord& r : timed.reads) {
    if (r.ok) query_ms.Add(r.latency_s * 1e3);
  }
  for (const WriteRecord& w : timed.writes) {
    late_ms.Add((w.sent_s - w.scheduled_s) * 1e3);
    if (w.ok) dml_ms.Add((w.acked_s - w.scheduled_s) * 1e3);
  }
  const uint64_t completed = Completed(timed);
  const double qps = static_cast<double>(completed) / timed.elapsed_s;
  // Server CPU per completed operation: what an operation costs the host.
  // Time the hypervisor steals is not in it; on a shared host that time
  // moves throughput and latency by tens of percent between runs.
  const double operations =
      static_cast<double>(completed + timed.writes.size());
  const double server_cpu_ms_per_op =
      operations > 0 ? timed.server_cpu_s * 1e3 / operations : 0;
  const double failed_ratio =
      static_cast<double>(tally_.failed()) /
      static_cast<double>(std::max<uint64_t>(1, tally_.attempted()));
  // Every end-to-end metric, by name with its unit. The result line
  // carries the gated ones (BENCHMARK.json). Left out: the wall-clock read
  // and write timings, which on a shared host follow the hypervisor's
  // steal (tpch_warm: ~50 queries/s at 17-19% steal, 80-95 at 5-7%, same
  // code) far beyond the largest allowed bound; server_cpu_ms_per_op
  // carries the cost instead. Also left out: ops_failed_ratio, 0 on every
  // run that passes (any failure makes the run incorrect).
  const std::vector<std::tuple<std::string, double, std::string, bool>>
      end_to_end = {
          {"setup_s", setup_s_.Median(), "s", true},
          {"queries_per_s", qps, "1/s", false},
          {"query_p50_ms", query_ms.Median(), "ms", false},
          {"query_p99_ms", query_ms.Tail(), "ms", false},
          {"dml_p50_ms", dml_ms.Median(), "ms", false},
          {"dml_p99_ms", dml_ms.Tail(), "ms", false},
          {"ops_failed_ratio", failed_ratio, "ratio", false},
          {"server_cpu_ms_per_op", server_cpu_ms_per_op, "ms", true},
          {"server_rss_mib", rss_mib_, "MiB", true},
          {"snapshot_bytes_per_row", snapshot_bytes_per_row_, "B", true},
      };
  JsonObject all_end_to_end;
  for (const auto& [name, value, unit, gated] : end_to_end) {
    all_end_to_end.Raw(name, Metric(value, unit));
    if (gated && !args_.trace) metrics.Raw(name, Metric(value, unit));
  }
  report.Raw("end_to_end_metrics", all_end_to_end.Dump());
  report.Raw(
      "end_to_end",
      JsonObject()
          .Raw("setup_s", JsonObject()
                              .Num("median", setup_s_.Median())
                              .Num("count", setup_s_.count())
                              .Num("sum", setup_s_.sum())
                              .Dump())
          .Num("queries_per_s", qps)
          .Num("queries_completed", static_cast<double>(completed))
          .Num("window_s", timed.elapsed_s)
          .Num("server_cpu_s", timed.server_cpu_s)
          .Raw("query_ms", Base(query_ms))
          .Num("query_tail_percentile", query_ms.TailPercentileRank())
          .Num("query_tail_ms", query_ms.Tail())
          .Raw("dml_ms", Base(dml_ms))
          .Num("dml_tail_percentile", dml_ms.TailPercentileRank())
          .Num("dml_tail_ms", dml_ms.Tail())
          .Raw("writer_late_ms", Base(late_ms))
          .Num("writer_late_max_ms", timed.writer_late_max_s * 1e3)
          .Num("ops_failed_ratio", failed_ratio)
          .Num("server_rss_mib", rss_mib_)
          .Num("catalog_bytes", static_cast<double>(catalog_bytes_))
          .Num("live_rows", static_cast<double>(live_rows_))
          .Num("snapshot_bytes_per_row", snapshot_bytes_per_row_)
          .Dump());

  if (traced != nullptr) {
    ReportPerLayer(*traced, untraced, &metrics, &report);
  }

  const bool correct = Correct();
  report.Raw("failures", tally_.Dump()).Raw("phases_s", phases_.Dump());
  report.Raw(
      "reproducibility",
      JsonObject()
          .Str("commit", args_.commit)
          .Str("workload", workload_.name)
          .Num("seed", static_cast<double>(args_.seed))
          .Num("scale", workload_.scale)
          .Num("seconds", args_.seconds)
          .Num("nproc", std::thread::hardware_concurrency())
#if defined(__AVX2__)
          .Str("isa", "x86-64 AVX2")
#else
          .Str("isa", "scalar")
#endif
          .Num("host_steal_pct", timed.host_steal_pct)
          .Num("client_readers", kReaders)
          .Num("write_rate_per_s", workload_.write_rate_per_s)
          .Raw("server_env",
               JsonObject()
                   .Num("threads", server_.pool_threads())
                   .Num("rho", ServerRho())
                   .Str("cost_params", "CostParams::Default() (no calibration)")
                   .Bool("compaction", workload_.compaction)
                   .Num("compaction_interval_ms",
                        static_cast<double>(workload_.compaction_interval_ms))
                   .Num("compaction_min_rows",
                        static_cast<double>(workload_.compaction_min_rows))
                   .Dump())
          .Dump());
  std::printf("%s\n", report.Dump().c_str());
  std::printf("%s\n",
              JsonObject()
                  .Bool("correct", correct)
                  .Num("attempted", static_cast<double>(tally_.attempted()))
                  .Num("failed", static_cast<double>(tally_.failed()))
                  .Raw("metrics", metrics.Dump())
                  .Dump()
                  .c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  Clock::time_point step = Clock::now();
  auto phase = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    phases_.Num(name, SecondsBetween(step, now));
    std::fprintf(stderr, "perfbench: %s done in %.2f s\n", name,
                 SecondsBetween(step, now));
    step = now;
  };
  if (!MakeWorkload(args_.workload, args_.seed, args_.size_factor,
                    &workload_)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args_.workload.c_str());
    return 2;
  }
  phase("generate");
  fs::remove_all(args_.work);
  fs::create_directories(args_.work);
  if (!SaveSnapshots()) {
    std::fprintf(stderr, "perfbench: snapshot save failed\n");
    return 2;
  }
  phase("save_snapshots");
  std::string error;
  if (!SetUp(&error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 2;
  }
  phase("server_setups");
  const bool gate_ok = Gate();
  phase("gate");
  std::vector<WindowResult> untraced;
  std::unique_ptr<WindowResult> traced;
  if (!args_.trace) {
    untraced.push_back(RunWindow(/*traced=*/false, args_.seconds));
  } else {
    // Untraced halves on both sides of the traced window: a steady drift
    // of the host, or the growth of mixed_rw's table, hits the traced and
    // the untraced side alike.
    untraced.push_back(RunWindow(/*traced=*/false, args_.seconds / 2));
    traced = std::make_unique<WindowResult>(
        RunWindow(/*traced=*/true, args_.seconds));
    untraced.push_back(RunWindow(/*traced=*/false, args_.seconds / 2));
  }
  bool ok = gate_ok;
  for (const WindowResult& window : untraced) ok = CrossCheck(window) && ok;
  if (traced != nullptr) ok = CrossCheck(*traced) && ok;
  phase("windows");
  final_ok_ = FinalCheck() && ok;

  // Server-side end state, then a graceful stop.
  rss_mib_ = server_.PeakRssMib();
  mcsort::net::SchemaReply schema;
  if (control_->GetSchema(&schema)) {
    for (const auto& table : schema.tables) {
      for (const NamedTable& t : workload_.tables) {
        if (t.name == table.name) live_rows_ += table.row_count;
      }
    }
  }
  control_.reset();
  readers_.clear();
  writer_.reset();
  if (!server_.Stop()) tally_.Fail("server_exit", "server did not exit cleanly");
  // Measured after the stop: a compaction in flight has finished, so no
  // half-written segment is counted next to the file it replaces.
  catalog_bytes_ = DirectoryBytes(Path("catalog"));

  snapshot_bytes_per_row_ =
      live_rows_ > 0 ? static_cast<double>(catalog_bytes_) / live_rows_ : 0;
  phase("final_check_and_stop");
  Finish(untraced, traced.get());
  return Correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --server <path> --work <dir> --workload "
                 "<name> [--seed n] [--seconds s] [--trace 0|1] "
                 "[--size-factor f] [--corrupt-reference] [--commit id] "
                 "[--trace-file path]\n");
    return 2;
  }
  perfbench::Bench bench(args);
  return bench.Run();
}
