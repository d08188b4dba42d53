#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <thread>

#include "common/file_util.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/query_context.h"
#include "coupling/mixed_query.h"
#include "irs/collection.h"
#include "oodb/query/parser.h"
#include "server/protocol.h"
#include "server/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace sdms::perfbench {

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// Restarts per run; restart_s is their median.
constexpr int kRestarts = 15;
// The run report shows throughput and machine steal per window of this
// length, so a run taken during host drift can be recognised.
constexpr int64_t kWindowUs = 1'000'000;
// Mean paragraphs per document of the generator's default shapes
// (1-4 sections of 2-6 paragraphs); MakeCorpus(n) keeps n times this.
constexpr size_t kParasPerDoc = 10;
// Acknowledged edits of the read workloads' durability epilogue.
constexpr int kEpilogueEdits = 500;
// Traced runs keep full responses of this many records per connection
// for the codec replay.
constexpr uint64_t kCodecRecords = 50;

enum class Agg { kMedian, kMean, kSet };

// Steal is time the host ran other guests on this guest's CPUs while
// they had work. It comes in stretches of tens of seconds to minutes,
// in which each second loses 0.3-1 s of it, and a wall-clock figure
// left uncorrected spreads with the share of a run a stretch covers
// (remote_fanout, two sets of ten 30 s runs: query_p50_us spread 0.32
// and 0.34, ops_per_s 0.37 and 0.41), so the benchmark takes it out of
// every bounded wall-clock figure.
//
// UnstolenShare is the share of an interval's wall time in which the
// host let this process run; set-up times are scaled by it, since one
// set-up is too short to fit a line through as EndMeasure does.
// Nothing else runs in the guest during a run, so the steal delayed
// this process's work. Spread over the cpu_s + steal_s CPU-seconds its
// threads were ready to run (at least the interval, as for one thread
// that also waits for I/O), steal_s delays the process by
// steal_s / max(wall_s, cpu_s + steal_s) of the interval. Some of the
// steal lands off the process's critical path, so this overstates the
// delay a little (set-up: a few percent in a long stretch).
double UnstolenShare(double wall_s, double cpu_s, double steal_s) {
  const double ready_s = std::max(wall_s, cpu_s + steal_s);
  return ready_s > 0 ? 1.0 - steal_s / ready_s : 1.0;
}

// Least-squares line ops/s = at_zero + slope * steal through the 1 s
// windows of a measured phase. A line that rises with steal is taken
// as flat, and so is one through windows of equal steal.
struct StealLine {
  double at_zero = 0;
  double slope = 0;
  // A window's throughput relative to zero steal: the factor by which
  // its steal stretched the latencies of its closed-loop queries.
  double Factor(double steal_s) const {
    return at_zero > 0 ? (at_zero + slope * steal_s) / at_zero : 1.0;
  }
};

StealLine FitStealLine(const std::vector<double>& steal,
                       const std::vector<double>& rate) {
  StealLine line;
  const double n = static_cast<double>(steal.size());
  if (n == 0) return line;
  double ms = 0, mr = 0;
  for (size_t i = 0; i < steal.size(); ++i) {
    ms += steal[i] / n;
    mr += rate[i] / n;
  }
  double sss = 0, ssr = 0;
  for (size_t i = 0; i < steal.size(); ++i) {
    sss += (steal[i] - ms) * (steal[i] - ms);
    ssr += (steal[i] - ms) * (rate[i] - mr);
  }
  line.slope = sss > 0 ? std::min(0.0, ssr / sss) : 0.0;
  line.at_zero = mr - line.slope * ms;
  return line;
}

struct LayerDef {
  const char* name;
  const char* unit;
  Agg agg;
};

// Every per-layer metric, in report order. Values a workload cannot
// produce (e.g. remote-channel timings without remote shards) read 0.
constexpr LayerDef kLayers[] = {
    {"server.overhead_us", "us", Agg::kMedian},
    {"server.queue_wait_us", "us", Agg::kMean},
    {"server.codec_us", "us", Agg::kMedian},
    {"server.response_bytes", "bytes", Agg::kMean},
    {"coupling.eval_us", "us", Agg::kMedian},
    {"coupling.irs_query_us", "us", Agg::kMean},
    {"coupling.irs_searches_per_query", "count", Agg::kSet},
    {"coupling.buffer_hit_ratio", "ratio", Agg::kSet},
    {"coupling.buffer_lookups_per_query", "count", Agg::kSet},
    {"coupling.derive_calls_per_query", "count", Agg::kSet},
    {"coupling.propagate_us", "us", Agg::kMedian},
    {"coupling.ops_per_propagation", "count", Agg::kMean},
    {"coupling.remote_search_us", "us", Agg::kMedian},
    {"coupling.remote_overhead_us", "us", Agg::kMedian},
    {"oodb.parse_us", "us", Agg::kMedian},
    {"oodb.plan_us", "us", Agg::kMedian},
    {"oodb.join_us", "us", Agg::kMedian},
    {"oodb.bindings_per_row", "ratio", Agg::kSet},
    {"oodb.method_calls_per_query", "count", Agg::kMean},
    {"oodb.commit_us", "us", Agg::kMedian},
    {"oodb.wal_bytes_per_edit", "bytes", Agg::kMean},
    {"oodb.wal_syncs_per_edit", "count", Agg::kMean},
    {"oodb.checkpoint_ms", "ms", Agg::kMedian},
    {"oodb.open_ms", "ms", Agg::kSet},
    {"irs.search_us", "us", Agg::kMedian},
    {"irs.postings_decoded_per_search", "count", Agg::kMean},
    {"irs.blocks_decoded_per_search", "count", Agg::kMean},
    {"irs.blocks_skipped_per_search", "count", Agg::kMean},
    {"irs.hits_per_search", "count", Agg::kMean},
    {"irs.load_ms", "ms", Agg::kSet},
    {"irs.snapshot_bytes", "bytes", Agg::kSet},
    {"setup.store_s", "s", Agg::kSet},
    {"setup.index_s", "s", Agg::kSet},
    {"setup.reopen_s", "s", Agg::kSet},
    {"setup.install_s", "s", Agg::kSet},
};

struct E2eDef {
  const char* name;
  const char* unit;
};

constexpr E2eDef kE2e[] = {
    {"setup_s", "s"},        {"query_p50_us", "us"}, {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},  {"space_amp", "ratio"},
};

std::string MetricsDelta(const std::string& before, const std::string& after) {
  Json b, a;
  if (!ParseJson(before, &b) || !ParseJson(after, &a)) return "{}";
  std::string out = "{\"counters\":{";
  bool first = true;
  if (const Json* ac = a.Find("counters")) {
    const Json* bc = b.Find("counters");
    for (const auto& [name, v] : ac->obj) {
      double d = v.num - (bc != nullptr ? bc->NumberOr(name, 0) : 0);
      if (d == 0) continue;
      out += std::string(first ? "" : ",") + "\"" + JsonEscape(name) +
             "\":" + FmtNum(d);
      first = false;
    }
  }
  out += "},\"histograms\":{";
  first = true;
  if (const Json* ah = a.Find("histograms")) {
    const Json* bh = b.Find("histograms");
    for (const auto& [name, v] : ah->obj) {
      const Json* prev = bh != nullptr ? bh->Find(name) : nullptr;
      double dc = v.NumberOr("count", 0) -
                  (prev != nullptr ? prev->NumberOr("count", 0) : 0);
      double ds = v.NumberOr("sum", 0) -
                  (prev != nullptr ? prev->NumberOr("sum", 0) : 0);
      if (dc == 0) continue;
      out += std::string(first ? "" : ",") + "\"" + JsonEscape(name) +
             "\":{\"count\":" + FmtNum(dc) + ",\"sum\":" + FmtNum(ds) + "}";
      first = false;
    }
  }
  return out + "}}";
}

uint64_t WalSyncs() { return obs::GetCounter("oodb.wal.syncs").value(); }

}  // namespace

/// Sum of total_us over the outermost stages named `name`.
double StageMicros(const Json& stage, const std::string& name) {
  const Json* n = stage.Find("name");
  if (n != nullptr && n->str == name) return stage.NumberOr("total_us", 0);
  double sum = 0;
  if (const Json* kids = stage.Find("stages")) {
    for (const Json& k : kids->arr) sum += StageMicros(k, name);
  }
  return sum;
}

/// Sum of counter `name` over the whole stage tree.
double CounterTotal(const Json& stage, const std::string& name) {
  double sum = 0;
  if (const Json* c = stage.Find("counters")) sum += c->NumberOr(name, 0);
  if (const Json* kids = stage.Find("stages")) {
    for (const Json& k : kids->arr) sum += CounterTotal(k, name);
  }
  return sum;
}

Bench::Bench(RunOptions options, Outcome* outcome)
    : opt_(std::move(options)), out_(outcome) {
  run_start_us_ = NowMicros();
  steal_start_s_ = StealSeconds();
  Tracer::Instance().Enable(opt_.trace);
}

Bench::~Bench() {
  if (sampler_.joinable()) {
    sampling_.store(false);
    sampler_.join();
  }
  sys_.reset();
  farm_.reset();
}

void Bench::Fail(const std::string& why) {
  out_->correct = false;
  if (out_->check_failures.size() < 20) out_->check_failures.push_back(why);
}

// ---------------------------------------------------------------------------
// Corpus and set-up

void Bench::MakeCorpus(size_t num_docs) {
  // A fifth more documents than asked, cut after the document that
  // brings the corpus to num_docs * kParasPerDoc paragraphs. The
  // paragraph count sets the cost of the IRS searches and of the
  // paragraph joins; cut this way it varies with the seed by less than
  // one document's paragraphs, where the generator's random document
  // shapes alone moved it by about 4% (and a Query 2 by about 9%).
  sgml::CorpusGenerator gen(
      MakeCorpusOptions(opt_.seed, num_docs + num_docs / 5));
  corpus_ = gen.Generate();
  const size_t want = num_docs * kParasPerDoc;
  size_t keep = 0, paras = 0;
  while (keep < corpus_.documents.size() && paras < want) {
    paras += corpus_.truths[keep++].para_topics.size();
  }
  corpus_.documents.erase(corpus_.documents.begin() + keep,
                          corpus_.documents.end());
  corpus_.truths.erase(corpus_.truths.begin() + keep, corpus_.truths.end());
  vocabulary_ = gen.vocabulary();
  zipf_ = std::make_unique<ZipfSampler>(vocabulary_.size(),
                                        MakeCorpusOptions(0, 0).zipf_skew);
  for (const sgml::Document& doc : corpus_.documents) ref_.AddDocument(doc);
}

Status Bench::Setup(SystemOptions base) {
  Samples total, raw_total, store, index, reopen, install;
  for (int i = 0; i < kSetups; ++i) {
    SystemOptions o = base;
    o.dir = opt_.work_dir + "/setup" + std::to_string(i);
    auto farm = std::make_unique<ShardFarm>();
    auto sys = std::make_unique<System>();
    SetupTimes t;
    const int64_t wall0 = NowMicros();
    const int64_t cpu0 = ProcessCpuMicros();
    const double steal0 = StealSeconds();
    {
      ScopedSpan span("setup");
      SDMS_RETURN_IF_ERROR(sys->Build(o, corpus_, farm.get(), &t));
    }
    raw_total.Add(t.total());
    total.Add(t.total() * UnstolenShare((NowMicros() - wall0) / 1e6,
                                        (ProcessCpuMicros() - cpu0) / 1e6,
                                        StealSeconds() - steal0));
    store.Add(t.store_s);
    index.Add(t.index_s);
    reopen.Add(t.reopen_s);
    install.Add(t.install_s);
    AddLayer("oodb.checkpoint_ms", t.checkpoint_s * 1e3);
    if (i + 1 < kSetups) {
      sys.reset();
      farm.reset();
      std::filesystem::remove_all(o.dir);
    } else {
      sys_ = std::move(sys);
      farm_ = std::move(farm);
    }
  }
  SetE2e("setup_s", total.Median());
  Report("setup: " + std::to_string(kSetups) + " builds, total_s min=" +
         FmtNum(raw_total.Quantile(0)) + " median=" +
         FmtNum(raw_total.Median()) + " max=" +
         FmtNum(raw_total.Quantile(1)) +
         ", unstolen median=" + FmtNum(total.Median()));
  SetLayer("setup.store_s", store.Median());
  SetLayer("setup.index_s", index.Median());
  SetLayer("setup.reopen_s", reopen.Median());
  SetLayer("setup.install_s", install.Median());
  return Status::OK();
}

Status Bench::MapCorpus() {
  para_oids_.assign(ref_.paras.size(), Oid());
  para_of_oid_.clear();
  for (size_t d = 0; d < ref_.docs.size(); ++d) {
    SDMS_ASSIGN_OR_RETURN(StoredDoc stored,
                          WalkDocument(sys_->coupling(), sys_->roots()[d]));
    std::vector<size_t> want;
    for (const auto& section : ref_.docs[d].sections) {
      want.insert(want.end(), section.begin(), section.end());
    }
    if (want.size() != stored.paras.size()) {
      Fail("document " + std::to_string(d) + " stored " +
           std::to_string(stored.paras.size()) + " paragraphs, generated " +
           std::to_string(want.size()));
      continue;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      Oid oid = stored.paras[i];
      SDMS_ASSIGN_OR_RETURN(oodb::Value text,
                            sys_->db().GetAttribute(oid, "TEXT"));
      if (!text.is_string() || text.as_string() != ref_.paras[want[i]].text) {
        Fail("stored text of " + oid.ToString() + " differs from the SGML");
      }
      para_oids_[want[i]] = oid;
      para_of_oid_[oid.raw()] = want[i];
    }
  }
  return Status::OK();
}

const ReferenceScorer& Bench::scorer() {
  if (scorer_ == nullptr) {
    scorer_ = std::make_unique<ReferenceScorer>(analyzer_);
    for (size_t i = 0; i < ref_.paras.size(); ++i) {
      scorer_->Add(para_oids_[i].raw(), ref_.paras[i].text);
    }
  }
  return *scorer_;
}

// ---------------------------------------------------------------------------
// Served load

Status Bench::RunServed(const OpSource& source, int connections,
                        int round_len, int warm_rounds, size_t keep_per_conn,
                        ServedRun* run) {
  server::ServerOptions so;
  so.port = 0;
  server::Server srv(&sys_->coupling(), so);
  SDMS_RETURN_IF_ERROR(srv.Start());

  std::vector<std::vector<ServedRecord>> kept(connections);
  std::vector<std::vector<ServedRecord>> traced(connections);
  std::vector<uint64_t> next_k(connections, 0);
  std::vector<Status> conn_status(connections);
  std::latch warmed(connections);
  std::atomic<bool> go{false};
  std::atomic<int64_t> end_us{0};
  const bool trace = opt_.trace;

  auto send = [](server::SdmsClient& client, const ServedOp& op, int conn,
                  bool with_trace, ServedRecord* rec) {
    server::QueryRequest req;
    req.vql = op.vql;
    req.strategy = op.strategy;
    req.want_profile = with_trace;
    rec->op = op;
    rec->conn = conn;
    uint64_t span =
        with_trace ? Tracer::Instance().Begin("client.query", op.id) : 0;
    int64_t t0 = NowMicros();
    StatusOr<server::SdmsClient::Response> resp = client.Query(req);
    rec->latency_us = NowMicros() - t0;
    rec->ok = resp.ok();
    if (resp.ok()) {
      rec->response = std::move(*resp);
    } else {
      rec->error = resp.status().ToString();
    }
    if (span != 0) {
      const server::WireRunInfo& info = rec->response.info;
      std::string args = "\"vql\":\"" + JsonEscape(op.vql) +
                         "\",\"server_total_us\":" +
                         std::to_string(info.total_micros) +
                         ",\"queue_wait_us\":" +
                         std::to_string(info.queue_wait_micros);
      if (!info.profile_json.empty()) {
        args += ",\"profile\":" + info.profile_json;
      }
      Tracer::Instance().End(span, std::move(args));
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      server::ClientOptions copts;
      copts.port = srv.port();
      copts.peer_label = "perfbench";
      server::SdmsClient client(copts);
      Status connected = client.Connect();
      uint64_t k = 0;
      for (int i = 0; connected.ok() && i < warm_rounds * round_len; ++i) {
        ServedRecord rec;
        send(client, source(c, k++), c, false, &rec);
      }
      warmed.count_down();
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      if (!connected.ok()) {
        conn_status[c] = connected;
        return;
      }
      const int64_t end = end_us.load();
      for (uint64_t m = 0;; ++m) {
        if (m % round_len == 0 && NowMicros() >= end) break;
        ServedRecord rec;
        send(client, source(c, k++), c, trace, &rec);
        const bool ok =
            rec.ok && (!rec.op.verify || rec.op.verify(rec.response.result));
        RecordOp(OpClass::kQuery, NowMicros(),
                 static_cast<double>(rec.latency_us), ok);
        if (m < keep_per_conn) kept[c].push_back(rec);
        if (trace) {
          if (m >= kCodecRecords) rec.response.result.rows.clear();
          traced[c].push_back(std::move(rec));
        }
      }
      next_k[c] = k;
    });
  }
  warmed.wait();
  BeginMeasure();
  end_us.store(NowMicros() + static_cast<int64_t>(opt_.seconds * 1e6));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EndMeasure();
  for (const Status& s : conn_status) SDMS_RETURN_IF_ERROR(s);

  run->kept.clear();
  run->traced.clear();
  for (int c = 0; c < connections; ++c) {
    for (ServedRecord& r : kept[c]) run->kept.push_back(std::move(r));
    for (ServedRecord& r : traced[c]) run->traced.push_back(std::move(r));
  }
  run->next_k = next_k;

  srv.Shutdown();
  return Status::OK();
}

void Bench::RecordServedLayers(const ServedRun& run) {
  double bindings = 0, rows = 0;
  for (const ServedRecord& r : run.traced) {
    if (!r.ok) continue;
    const server::WireRunInfo& info = r.response.info;
    AddLayer("server.overhead_us",
             static_cast<double>(r.latency_us - info.total_micros));
    AddLayer("server.queue_wait_us",
             static_cast<double>(info.queue_wait_micros));
    AddLayer("coupling.eval_us", static_cast<double>(info.total_micros));
    Json prof;
    if (info.profile_json.empty() || !ParseJson(info.profile_json, &prof)) {
      continue;
    }
    const Json* root = prof.Find("profile");
    if (root == nullptr) continue;
    AddLayer("coupling.irs_query_us", StageMicros(*root, "irs_query"));
    AddLayer("oodb.plan_us", StageMicros(*root, "plan"));
    AddLayer("oodb.join_us", StageMicros(*root, "join"));
    AddLayer("oodb.method_calls_per_query",
             CounterTotal(*root, "method_calls"));
    bindings += CounterTotal(*root, "bindings_scanned");
    rows += CounterTotal(*root, "rows_emitted");
  }
  SetLayer("oodb.bindings_per_row", bindings / std::max(rows, 1.0));
}

// ---------------------------------------------------------------------------
// Durability epilogue

std::string Bench::RandomParagraph(Rng& rng) {
  size_t words = static_cast<size_t>(rng.UniformInt(20, 60));
  std::vector<std::string> tokens;
  for (size_t i = 0; i < words; ++i) {
    tokens.push_back(vocabulary_[zipf_->Sample(rng)]);
  }
  if (rng.Bernoulli(0.3)) {
    const std::string& topic = Topics()[rng.Uniform(Topics().size())];
    for (size_t i = 0; i < std::max<size_t>(1, words / 10); ++i) {
      tokens[rng.Uniform(tokens.size())] = topic;
    }
  }
  std::string text;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) text += " ";
    text += tokens[i];
  }
  return text + ".";
}

StatusOr<double> Bench::TextEdit(Oid para, const std::string& text,
                                 const std::function<Status()>& extra) {
  const std::string wal = sys_->db_dir() + "/wal.log";
  int64_t wal_before = FileSize(wal).ok() ? *FileSize(wal) : 0;
  uint64_t syncs_before = WalSyncs();
  int64_t t0 = NowMicros();
  {
    ScopedSpan span("oodb.edit");
    oodb::Database& db = sys_->db();
    oodb::TxnId txn = db.Begin();
    Status s = db.SetAttribute(para, "TEXT", oodb::Value(text), txn);
    if (!s.ok()) {
      (void)db.Abort(txn);
      return s;
    }
    int64_t c0 = NowMicros();
    {
      ScopedSpan commit("oodb.commit");
      SDMS_RETURN_IF_ERROR(db.Commit(txn));
    }
    AddLayer("oodb.commit_us", static_cast<double>(NowMicros() - c0));
    int64_t wal_after = FileSize(wal).ok() ? *FileSize(wal) : 0;
    AddLayer("oodb.wal_bytes_per_edit",
             static_cast<double>(wal_after - wal_before));
    AddLayer("oodb.wal_syncs_per_edit",
             static_cast<double>(WalSyncs() - syncs_before));
    if (extra) SDMS_RETURN_IF_ERROR(extra());
  }
  return static_cast<double>(NowMicros() - t0);
}

void Bench::SampleSpace(uint64_t para_text_bytes) {
  uint64_t disk = DirBytes(sys_->options().dir);
  space_amp_.Add(static_cast<double>(disk) /
                 static_cast<double>(std::max<uint64_t>(para_text_bytes, 1)));
  SetLayer("irs.snapshot_bytes", static_cast<double>(DirBytes(sys_->irs_dir())));
}

Status Bench::RestartAndQuery(const std::string& vql) {
  Samples total, open_ms, load_ms, recover_ms, attach_ms;
  for (int i = 0; i < kRestarts; ++i) {
    int64_t t0 = NowMicros();
    RestartTimes rt;
    {
      ScopedSpan span("restart");
      SDMS_RETURN_IF_ERROR(sys_->Restart(farm_.get(), &rt));
      if (opt_.trace && i == 0 && !measured_propagation_) {
        // Splits out the propagation of the recovered edits that the
        // first query would otherwise run itself.
        coupling::Collection& coll = sys_->collection();
        double pending = static_cast<double>(coll.pending_updates());
        int64_t p0 = NowMicros();
        {
          ScopedSpan propagate("coupling.propagate");
          SDMS_RETURN_IF_ERROR(coll.PropagateUpdates());
        }
        AddLayer("coupling.propagate_us", static_cast<double>(NowMicros() - p0));
        AddLayer("coupling.ops_per_propagation", pending);
      }
      coupling::MixedQueryEvaluator eval(&sys_->coupling());
      ScopedSpan q("restart.first_query");
      SDMS_RETURN_IF_ERROR(
          eval.Run(vql, coupling::MixedQueryEvaluator::Strategy::kIrsFirst)
              .status());
    }
    total.Add((NowMicros() - t0) / 1e6);
    open_ms.Add(rt.open_ms);
    load_ms.Add(rt.irs_load_ms);
    recover_ms.Add(rt.recover_ms);
    attach_ms.Add(rt.attach_ms);
  }
  Report("restart_s: " + FmtNum(total.Median()) + " (median of " +
         std::to_string(kRestarts) +
         " cold opens to the first answered query; irs_load_ms=" +
         FmtNum(load_ms.Median()) + " db_open_ms=" + FmtNum(open_ms.Median()) +
         " recover_ms=" + FmtNum(recover_ms.Median()) +
         " attach_ms=" + FmtNum(attach_ms.Median()) + ")");
  SetLayer("oodb.open_ms", open_ms.Median());
  SetLayer("irs.load_ms", load_ms.Median());
  return Status::OK();
}

Status Bench::EditsAndRestart(const std::string& first_query) {
  Rng rng(opt_.seed * 7919 + 17);
  std::map<uint64_t, std::string> edited;
  for (int i = 0; i < kEpilogueEdits; ++i) {
    size_t p = rng.Uniform(ref_.paras.size());
    std::string text = RandomParagraph(rng);
    SDMS_ASSIGN_OR_RETURN(double us, TextEdit(para_oids_[p], text));
    epilogue_edit_us_.Add(us);
    ref_.paras[p].text = text;
    edited[para_oids_[p].raw()] = text;
  }
  uint64_t text_bytes = 0;
  for (const RefPara& p : ref_.paras) text_bytes += p.text.size();
  SampleSpace(text_bytes);
  SDMS_RETURN_IF_ERROR(RestartAndQuery(first_query));
  for (const auto& [oid, text] : edited) {
    auto v = sys_->db().GetAttribute(Oid(oid), "TEXT");
    if (!v.ok() || !v->is_string() || v->as_string() != text) {
      Fail("acknowledged edit of oid:" + std::to_string(oid) +
           " lost across the restart");
    }
  }
  return Status::OK();
}

Status Bench::Checkpoint() {
  int64_t t0 = NowMicros();
  {
    ScopedSpan span("oodb.checkpoint");
    SDMS_RETURN_IF_ERROR(sys_->db().Checkpoint());
  }
  AddLayer("oodb.checkpoint_ms", (NowMicros() - t0) / 1e3);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replays

Status Bench::ReplayIrs(const std::vector<std::string>& irs_queries) {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        sys_->engine().GetCollection(kCollection));
  for (const std::string& q : irs_queries) {
    QueryContext ctx;
    ctx.set_profile(std::make_shared<obs::QueryProfile>(ctx.query_id()));
    QueryContext::Scope scope(&ctx);
    ScopedSpan span("irs.replay");
    int64_t t0 = NowMicros();
    SDMS_ASSIGN_OR_RETURN(irs::IrsCollection::SearchPlan plan,
                          coll->PrepareSearch(q, 0));
    size_t hits = 0;
    for (size_t s = 0; s < coll->num_shards(); ++s) {
      SDMS_ASSIGN_OR_RETURN(std::vector<irs::SearchHit> h,
                            coll->SearchShard(plan, s));
      hits += h.size();
    }
    AddLayer("irs.search_us", static_cast<double>(NowMicros() - t0));
    const obs::QueryProfile& prof = *ctx.profile();
    AddLayer("irs.postings_decoded_per_search",
             static_cast<double>(prof.TotalCounter("postings_scanned")));
    AddLayer("irs.blocks_decoded_per_search",
             static_cast<double>(prof.TotalCounter("blocks_decoded")));
    AddLayer("irs.blocks_skipped_per_search",
             static_cast<double>(prof.TotalCounter("blocks_skipped")));
    AddLayer("irs.hits_per_search", static_cast<double>(hits));
  }
  return Status::OK();
}

void Bench::ReplayParse(const std::vector<std::string>& vql) {
  for (const std::string& v : vql) {
    ScopedSpan span("oodb.parse");
    int64_t t0 = NowMicros();
    auto parsed = oodb::vql::ParseQuery(v);
    AddLayer("oodb.parse_us", static_cast<double>(NowMicros() - t0));
    if (!parsed.ok()) Fail("VQL does not parse: " + v);
  }
}

void Bench::ReplayCodec(const std::vector<ServedRecord>& records) {
  for (const ServedRecord& r : records) {
    if (!r.ok || r.response.result.rows.empty()) continue;
    server::QueryResponse resp;
    resp.request_id = r.op.id;
    resp.result = r.response.result;
    resp.info = r.response.info;
    ScopedSpan span("server.codec");
    int64_t t0 = NowMicros();
    std::string payload = server::EncodeQueryResponse(resp);
    auto decoded = server::DecodeQueryResponse(payload);
    AddLayer("server.codec_us", static_cast<double>(NowMicros() - t0));
    AddLayer("server.response_bytes", static_cast<double>(payload.size()));
    if (!decoded.ok() || decoded->result.rows.size() != resp.result.rows.size()) {
      Fail("query response does not round-trip through the codec");
    }
  }
}

// ---------------------------------------------------------------------------
// Output

void Bench::BeginMeasure() {
  measure_steal_s_ = StealSeconds();
  coll_stats_before_ = sys_->collection().stats();
  if (opt_.trace) metrics_before_ = obs::MetricsRegistry::Instance().DumpJson();
  const int64_t start = NowMicros();
  cpu_marks_.assign(1, {start, ProcessCpuMicros()});
  steal_marks_.assign(1, StealSeconds());
  sampling_.store(true);
  sampler_ = std::thread([this, start] {
    for (int64_t k = 1;; ++k) {
      const int64_t target = start + k * kWindowUs;
      for (int64_t now = NowMicros(); now < target; now = NowMicros()) {
        if (!sampling_.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<int64_t>(target - now, 5000)));
      }
      std::lock_guard<std::mutex> lock(marks_mu_);
      cpu_marks_.emplace_back(NowMicros(), ProcessCpuMicros());
      steal_marks_.push_back(StealSeconds());
    }
  });
}

void Bench::RecordOp(OpClass cls, int64_t end_us, double latency_us, bool ok) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  ++out_->attempted;
  if (!ok) {
    ++out_->failed;
    return;
  }
  ops_.push_back({end_us, latency_us, cls});
}

void Bench::EndMeasure() {
  const int64_t end = NowMicros();
  const int64_t end_cpu = ProcessCpuMicros();
  sampling_.store(false);
  sampler_.join();
  SetE2e("peak_rss_mb", PeakRssMb());

  std::vector<std::pair<int64_t, int64_t>> marks = cpu_marks_;
  const int64_t start = marks.front().first;
  const int64_t start_cpu = marks.front().second;
  Samples queries, edits, other_edits;
  for (const OpEvent& e : ops_) {
    (e.cls == OpClass::kQuery  ? queries
     : e.cls == OpClass::kEdit ? edits
                               : other_edits)
        .Add(e.latency_us);
  }
  const double ops = static_cast<double>(ops_.size());

  // A phase shorter than one window counts as one window.
  if (marks.size() < 2) {
    marks.emplace_back(end, end_cpu);
    steal_marks_.push_back(StealSeconds());
  }
  // ops_per_s and query_p50_us are taken at zero steal. Within a run,
  // a 1 s window's throughput falls about linearly with the machine
  // steal in it; the line fitted through the full windows of this run
  // gives ops_per_s where it meets zero steal, and each query's latency
  // is multiplied by its window's throughput relative to that point
  // before the median is taken (a closed loop's latencies stretch as
  // its throughput falls). See UnstolenShare for why steal must be
  // taken out. cpu_us_per_op needs no correction, since stolen time is
  // not process CPU time.
  const size_t windows = marks.size() - 1;
  std::vector<size_t> window_of(ops_.size(), windows);
  std::vector<double> steal(windows), rate(windows, 0);
  std::vector<Samples> window_queries(windows);
  for (size_t k = 0; k < ops_.size(); ++k) {
    // The op's window starts at the last mark at or before its end;
    // ops after the last full window count only in whole-run figures.
    auto it = std::upper_bound(
        marks.begin(), marks.end(), ops_[k].end_us,
        [](int64_t t, const std::pair<int64_t, int64_t>& m) {
          return t < m.first;
        });
    if (it == marks.begin() || it == marks.end()) continue;
    const size_t w = static_cast<size_t>(it - marks.begin()) - 1;
    window_of[k] = w;
    ++rate[w];
    if (ops_[k].cls == OpClass::kQuery) {
      window_queries[w].Add(ops_[k].latency_us);
    }
  }
  std::string per_window =
      "windows (ops/s / machine steal s / query p50 us / process CPU s):";
  for (size_t i = 0; i < windows; ++i) {
    steal[i] = steal_marks_[i + 1] - steal_marks_[i];
    rate[i] /= (marks[i + 1].first - marks[i].first) / 1e6;
    char cell[80];
    std::snprintf(cell, sizeof(cell), " %.1f/%.2f/%.0f/%.3f", rate[i],
                  steal[i], window_queries[i].Median(),
                  (marks[i + 1].second - marks[i].second) / 1e6);
    per_window += cell;
  }
  Report(per_window);
  const StealLine line = FitStealLine(steal, rate);
  Samples corrected;
  for (size_t k = 0; k < ops_.size(); ++k) {
    if (window_of[k] == windows || ops_[k].cls != OpClass::kQuery) continue;
    corrected.Add(ops_[k].latency_us * line.Factor(steal[window_of[k]]));
  }
  SetE2e("ops_per_s", line.at_zero);
  SetE2e("cpu_us_per_op", (end_cpu - start_cpu) / std::max(ops, 1.0));
  SetE2e("query_p50_us", corrected.Median());
  Report("at zero steal (line through " + std::to_string(windows) +
         " windows, slope " + FmtNum(line.slope) +
         " ops/s per steal s): ops_per_s=" + FmtNum(e2e_["ops_per_s"]) +
         " query_p50_us=" + FmtNum(e2e_["query_p50_us"]) + " (" +
         std::to_string(corrected.size()) + " queries)");

  const coupling::CouplingStats& now = sys_->collection().stats();
  const coupling::CouplingStats& was = coll_stats_before_;
  double nq = static_cast<double>(std::max<size_t>(queries.size(), 1));
  double hits = static_cast<double>(now.buffer_hits - was.buffer_hits);
  double misses = static_cast<double>(now.buffer_misses - was.buffer_misses);
  SetLayer("coupling.irs_searches_per_query",
           static_cast<double>(now.irs_queries - was.irs_queries) / nq);
  SetLayer("coupling.buffer_hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0.0);
  SetLayer("coupling.buffer_lookups_per_query", (hits + misses) / nq);
  SetLayer("coupling.derive_calls_per_query",
           static_cast<double>(now.derive_calls - was.derive_calls) / nq);

  Report("measured: wall_s=" + FmtNum((end - start) / 1e6) +
         " ops=" + FmtNum(ops) + " windows=" + std::to_string(marks.size() - 1) +
         " steal_s=" + FmtNum(StealSeconds() - measure_steal_s_));
  Report("whole run: queries=" + std::to_string(queries.size()) +
         " ops_per_s=" + FmtNum(ops / ((end - start) / 1e6)) +
         " p50_us=" + FmtNum(queries.Median()) +
         " p90_us=" + FmtNum(queries.Quantile(0.9)) +
         " p99_us=" + FmtNum(queries.Quantile(0.99)) +
         (edits.empty() ? std::string()
                        : " edits=" + std::to_string(edits.size()) +
                              " p50_us=" + FmtNum(edits.Median()) +
                              " p90_us=" + FmtNum(edits.Quantile(0.9)) +
                              " p99_us=" + FmtNum(edits.Quantile(0.99))) +
         (other_edits.empty()
              ? std::string()
              : " inserts+deletes=" + std::to_string(other_edits.size()) +
                    " p50_us=" + FmtNum(other_edits.Median()) +
                    " p90_us=" + FmtNum(other_edits.Quantile(0.9))));
  if (opt_.trace) metrics_after_ = obs::MetricsRegistry::Instance().DumpJson();
}

void Bench::Finish() {
  e2e_["space_amp"] = space_amp_.Median();
  if (!opt_.trace) {
    for (const E2eDef& d : kE2e) {
      out_->metrics.push_back({d.name, e2e_[d.name], d.unit});
    }
  } else {
    for (const LayerDef& d : kLayers) {
      double v = 0;
      auto set = layer_set_.find(d.name);
      auto samples = layer_.find(d.name);
      if (set != layer_set_.end()) {
        v = set->second;
      } else if (samples != layer_.end()) {
        v = d.agg == Agg::kMean ? samples->second.Mean()
                                : samples->second.Median();
      }
      out_->metrics.push_back({d.name, v, d.unit});
    }
    std::string base = opt_.out_dir + "/" + opt_.workload + "-seed" +
                       std::to_string(opt_.seed);
    if (!Tracer::Instance().WriteChromeTrace(base + ".trace.json")) {
      Report("warning: could not write " + base + ".trace.json");
    }
    std::string metrics = "{\"workload\":\"" + opt_.workload +
                          "\",\"seed\":" + std::to_string(opt_.seed) +
                          ",\"delta\":" +
                          MetricsDelta(metrics_before_, metrics_after_) +
                          ",\"before\":" +
                          (metrics_before_.empty() ? "{}" : metrics_before_) +
                          ",\"after\":" +
                          (metrics_after_.empty() ? "{}" : metrics_after_) +
                          "}\n";
    if (!WriteFileAtomic(base + ".metrics.json", metrics).ok()) {
      Report("warning: could not write " + base + ".metrics.json");
    }
    Report("traced_e2e: query_p50_us=" + FmtNum(e2e_["query_p50_us"]) +
           " ops_per_s=" + FmtNum(e2e_["ops_per_s"]) +
           " cpu_us_per_op=" + FmtNum(e2e_["cpu_us_per_op"]));
    Report("trace: " + std::to_string(Tracer::Instance().span_count()) +
           " spans -> " + base + ".trace.json, metric deltas -> " + base +
           ".metrics.json");
  }
  if (!epilogue_edit_us_.empty()) {
    Report("epilogue edits: " + std::to_string(epilogue_edit_us_.size()) +
           " p50_us=" + FmtNum(epilogue_edit_us_.Median()) +
           " p90_us=" + FmtNum(epilogue_edit_us_.Quantile(0.9)) +
           " p99_us=" + FmtNum(epilogue_edit_us_.Quantile(0.99)));
  }
  Report(std::string("fingerprint: nproc=") +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " build=" PERFBENCH_BUILD_TYPE " compiler=\"" PERFBENCH_COMPILER
         "\" steal_s=" +
         FmtNum(StealSeconds() - steal_start_s_) +
         " run_s=" + FmtNum((NowMicros() - run_start_us_) / 1e6));
}

}  // namespace sdms::perfbench
