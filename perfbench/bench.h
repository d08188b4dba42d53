#ifndef SDMS_PERFBENCH_BENCH_H_
#define SDMS_PERFBENCH_BENCH_H_

// Shared machinery of the four workloads: repeated set-up, the
// closed-loop clients against sdms_server, the windowed
// end-to-end statistics of the measured phase, the durability
// epilogue (acknowledged edits, then restarts from disk), the
// per-layer replays of the traced run, and metric/report assembly.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "coupling/types.h"
#include "oodb/query/executor.h"
#include "reference.h"
#include "server/client.h"
#include "system.h"
#include "util.h"

namespace sdms::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Deliberately corrupted answer for the checks' self-test: drop_row,
  /// flip_score_bit, revert_edit, swap_shard_hits (empty = none).
  std::string perturb;
  /// Where traced runs write their Chrome trace and metric deltas.
  std::string out_dir;
  /// Scratch root for the durable files of this run.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;
  std::vector<std::string> check_failures;
};

/// Client connections of content_search and remote_fanout; also the
/// stride of served op ids (id = k * kConnections + connection).
inline constexpr int kConnections = 3;

/// One operation a served workload sends.
struct ServedOp {
  std::string vql;
  uint8_t strategy = 1;  // 0 = independent, 1 = IRS-first
  uint64_t id = 0;       // global op id (also the span's request id)
  /// When set, checked on every measured answer; an answer it rejects
  /// counts as a failed operation.
  std::function<bool(const oodb::vql::QueryResult&)> verify;
};

/// What the client saw for one request (kept for checks and replays).
struct ServedRecord {
  ServedOp op;
  int conn = 0;
  int64_t latency_us = 0;
  bool ok = false;
  std::string error;
  server::SdmsClient::Response response;
};

/// Sum of total_us over the outermost profile stages named `name`
/// (QueryProfile::ToJson stage objects).
double StageMicros(const Json& stage, const std::string& name);
/// Sum of counter `name` over a whole profile stage tree.
double CounterTotal(const Json& stage, const std::string& name);

/// Per-run state shared by the workloads.
class Bench {
 public:
  Bench(RunOptions options, Outcome* outcome);
  ~Bench();

  const RunOptions& options() const { return opt_; }
  bool trace() const { return opt_.trace; }

  /// Records a failed output check.
  void Fail(const std::string& why);

  // --- Corpus and set-up ----------------------------------------------

  /// Generates the corpus (not timed) and its reference view: about
  /// `num_docs` documents, cut to exactly as many whole documents as
  /// reach num_docs * 10 paragraphs.
  void MakeCorpus(size_t num_docs);
  /// Builds the system kSetups times from scratch, keeps the last
  /// build, and records the median set-up times.
  Status Setup(SystemOptions base);
  /// Maps every reference paragraph to its stored OID (and checks the
  /// stored text matches the generated SGML).
  Status MapCorpus();

  RefCorpus& ref() { return ref_; }
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }
  const irs::Analyzer& analyzer() const { return analyzer_; }
  System& sys() { return *sys_; }
  /// OID of reference paragraph i / reference paragraph of an OID.
  const std::vector<Oid>& para_oids() const { return para_oids_; }
  const std::map<uint64_t, size_t>& para_of_oid() const { return para_of_oid_; }

  /// Brute-force scorer over the reference paragraphs as generated
  /// (built on first use; read workloads only).
  const ReferenceScorer& scorer();

  // --- Served load ------------------------------------------------------

  using OpSource = std::function<ServedOp(int conn, uint64_t k)>;
  struct ServedRun {
    /// The first `keep_per_conn` measured records of each connection,
    /// for the output checks.
    std::vector<ServedRecord> kept;
    /// Traced runs: every measured record (responses without rows,
    /// except the first few of each connection, for the codec replay).
    std::vector<ServedRecord> traced;
    /// Ops each connection sent (warm-up + measured).
    std::vector<uint64_t> next_k;
  };
  /// Runs sdms_server over the system and `connections` closed-loop
  /// clients: `warm_rounds` rounds of `round_len` ops per connection,
  /// then whole rounds until the run's seconds have passed. In traced
  /// runs the requests carry want_profile and client spans. The server
  /// is shut down on return.
  Status RunServed(const OpSource& source, int connections, int round_len,
                   int warm_rounds, size_t keep_per_conn, ServedRun* run);
  /// Per-layer numbers from the profiles of a traced served run.
  void RecordServedLayers(const ServedRun& run);

  // --- Measured phase ---------------------------------------------------

  /// kEdit: an acknowledged paragraph text edit; kOtherEdit: a
  /// document insert or subtree delete.
  enum class OpClass { kQuery, kEdit, kOtherEdit };
  /// Starts the measured phase (and its CPU sampler).
  void BeginMeasure();
  /// Records one measured operation that ended at `end_us`.
  void RecordOp(OpClass cls, int64_t end_us, double latency_us, bool ok);
  /// Ends the measured phase: windowed end-to-end statistics, coupling
  /// counter deltas, peak RSS.
  void EndMeasure();

  // --- Durability epilogue ----------------------------------------------

  /// One acknowledged, durably committed paragraph text edit in its own
  /// transaction; records the commit/WAL per-layer numbers and returns
  /// the edit's latency. `extra` runs inside the timed region after the
  /// commit (the edit_mix checkpoint).
  StatusOr<double> TextEdit(Oid para, const std::string& text,
                            const std::function<Status()>& extra = nullptr);
  /// A paragraph text drawn from the corpus vocabulary.
  std::string RandomParagraph(Rng& rng);
  /// Read workloads: acknowledged text edits on random paragraphs, then
  /// space_amp and the restarts.
  Status EditsAndRestart(const std::string& first_query);
  /// space_amp: bytes on disk per byte of paragraph text (one sample;
  /// the reported value is the median of all samples).
  void SampleSpace(uint64_t para_text_bytes);
  /// kRestarts restarts from disk, each followed by one answered query;
  /// restart_s is their median.
  Status RestartAndQuery(const std::string& vql);
  /// Timed Database::Checkpoint.
  Status Checkpoint();

  // --- Per-layer replays (traced runs) -----------------------------------

  /// PrepareSearch + SearchShard on each IRS query, directly.
  Status ReplayIrs(const std::vector<std::string>& irs_queries);
  /// ParseQuery on each VQL text.
  void ReplayParse(const std::vector<std::string>& vql);
  /// Encode + decode of each actual response.
  void ReplayCodec(const std::vector<ServedRecord>& records);

  // --- Output -----------------------------------------------------------

  void AddLayer(const std::string& name, double v) { layer_[name].Add(v); }
  /// Marks propagation as measured by the workload itself.
  void NotePropagationMeasured() { measured_propagation_ = true; }
  void SetLayer(const std::string& name, double v) { layer_set_[name] = v; }
  void Report(const std::string& line) { out_->report.push_back(line); }

  /// Fills the outcome's metrics (end-to-end or per-layer) and report.
  void Finish();

 private:
  void SetE2e(const std::string& name, double v) { e2e_[name] = v; }

  struct OpEvent {
    int64_t end_us;
    double latency_us;
    OpClass cls;
  };

  RunOptions opt_;
  Outcome* out_;
  sgml::Corpus corpus_;
  RefCorpus ref_;
  std::vector<std::string> vocabulary_;
  std::unique_ptr<ZipfSampler> zipf_;  // background-word ranks
  irs::Analyzer analyzer_;
  std::unique_ptr<ReferenceScorer> scorer_;
  std::unique_ptr<ShardFarm> farm_;
  std::unique_ptr<System> sys_;
  std::vector<Oid> para_oids_;
  std::map<uint64_t, size_t> para_of_oid_;

  std::mutex ops_mu_;
  std::vector<OpEvent> ops_;
  Samples epilogue_edit_us_;
  Samples space_amp_;
  std::map<std::string, Samples> layer_;
  /// edit_mix measures propagation per query; the read workloads on the
  /// first restart after their epilogue edits.
  bool measured_propagation_ = false;
  std::map<std::string, double> layer_set_;
  std::map<std::string, double> e2e_;

  // CPU sampler of the measured phase: (steady micros, process CPU
  // micros) at every window boundary.
  std::mutex marks_mu_;
  std::vector<std::pair<int64_t, int64_t>> cpu_marks_;
  std::vector<double> steal_marks_;
  std::atomic<bool> sampling_{false};
  std::thread sampler_;

  coupling::CouplingStats coll_stats_before_;
  double measure_steal_s_ = 0;
  std::string metrics_before_;
  std::string metrics_after_;
  double steal_start_s_ = 0;
  int64_t run_start_us_ = 0;
};

}  // namespace sdms::perfbench

#endif  // SDMS_PERFBENCH_BENCH_H_
