#include "workloads.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/query_context.h"
#include "common/obs/profile.h"
#include "coupling/mixed_query.h"
#include "coupling/remote_shard.h"
#include "irs/collection.h"

namespace sdms::perfbench {

namespace {

using Strategy = coupling::MixedQueryEvaluator::Strategy;

// Corpus sizes. content_search and edit_mix use the 600 documents the
// ROADMAP measurements quote (an edit_mix checkpoint stays well under a
// round). struct_join uses 240: its Query 2 is a nested-loop join
// quadratic in the topic paragraphs, about 0.3-0.5 s on 600 documents;
// there, with three connections queueing behind it on the server's
// execution mutex, five seeds gave query_p50_us a spread of 1.3. On
// 240 documents one Query 2 takes about 30-50 ms.
constexpr size_t kContentDocs = 600;
constexpr size_t kStructDocs = 240;
constexpr size_t kEditDocs = 600;

// Result-buffer byte budget of every workload's collection. With the
// default (unbounded) budget a stream of distinct queries grows the
// buffer — and peak RSS — with the number of queries a run completes.
constexpr size_t kBufferBytes = 8u << 20;

// Output checks sample the first measured ops of every connection.
constexpr size_t kCheckedPerConn = 8;
// Checked queries per connection that also run unbuffered.
constexpr size_t kUnbufferedChecks = 1;
// Replayed queries per traced run.
constexpr size_t kReplays = 150;

constexpr double kNullTerm = 0.4;

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Rows as (oid, bits of column 1) pairs, sorted — the form every
/// bit-identity comparison uses.
std::vector<std::pair<uint64_t, uint64_t>> RowKeys(
    const oodb::vql::QueryResult& r) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& row : r.rows) {
    uint64_t a = row.size() > 0 && row[0].is_oid() ? row[0].as_oid().raw() : 0;
    uint64_t b = 0;
    if (row.size() > 1) {
      if (row[1].is_real()) b = Bits(row[1].as_real());
      if (row[1].is_int()) b = static_cast<uint64_t>(row[1].as_int());
    }
    out.emplace_back(a, b);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Applies a self-test perturbation to the first answer with rows.
void Perturb(const std::string& what, std::vector<ServedRecord>& kept) {
  for (ServedRecord& r : kept) {
    auto& rows = r.response.result.rows;
    if (!r.ok || rows.empty()) continue;
    if (what == "drop_row") {
      rows.pop_back();
      return;
    }
    if (what == "flip_score_bit") {
      for (auto& row : rows) {
        for (auto& v : row) {
          if (v.is_real()) {
            v = oodb::Value(std::nextafter(v.as_real(), 2.0));
            return;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Content queries

struct ContentQuery {
  QNode query;
  std::string irs;
  double threshold = 0;
  int64_t year = 0;
  std::string vql;
};

/// The deterministic stream of distinct content queries. Entry i is a
/// function of the seed and i alone, whichever connection asks first.
class ContentStream {
 public:
  ContentStream(uint64_t seed, const std::vector<std::string>& vocabulary,
                const irs::Analyzer& analyzer)
      : gen_(seed, vocabulary, analyzer), rng_(seed ^ 0x5bd1e995u) {}

  ContentQuery At(uint64_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (items_.size() <= i) {
      ContentQuery c;
      c.query = gen_.Next();
      c.irs = c.query.Render();
      // Above the query's null belief, so the IRS-first restriction
      // applies (and objects without evidence never qualify).
      c.threshold = ReferenceScorer::NullScore(c.query) + 0.015 +
                    0.01 * static_cast<double>(rng_.Uniform(3));
      c.year = 1990 + static_cast<int64_t>(rng_.Uniform(6));
      c.vql = "ACCESS p, p -> getIRSValue('paras', '" + c.irs +
              "') FROM p IN PARA WHERE p -> getIRSValue('paras', '" + c.irs +
              "') > " + Num(c.threshold) +
              " AND p -> getContaining('MMFDOC') -> getAttributeValue('YEAR')"
              " >= " + std::to_string(c.year);
      items_.push_back(std::move(c));
    }
    return items_[i];
  }

 private:
  std::mutex mu_;
  std::deque<ContentQuery> items_;
  QueryGenerator gen_;
  Rng rng_;
};

/// Checks one served content answer against the brute-force scorer and
/// the SGML-side YEAR, then against the other evaluation paths.
void CheckContentAnswer(Bench& b, const ContentQuery& cq,
                        const oodb::vql::QueryResult& served) {
  const std::string tag = "content query '" + cq.irs + "'";
  std::map<uint64_t, double> expected = b.scorer().Score(cq.query);
  std::set<uint64_t> must, may;
  for (const auto& [oid, score] : expected) {
    auto p = b.para_of_oid().find(oid);
    if (p == b.para_of_oid().end()) continue;  // unmapped: already failed
    if (b.ref().docs[b.ref().paras[p->second].doc].year < cq.year) continue;
    if (std::fabs(score - cq.threshold) <= 1e-12) {
      may.insert(oid);
    } else if (score > cq.threshold) {
      must.insert(oid);
    }
  }
  std::set<uint64_t> seen;
  for (const auto& row : served.rows) {
    if (row.size() != 2 || !row[0].is_oid() || !row[1].is_real()) {
      b.Fail(tag + ": malformed row");
      return;
    }
    uint64_t oid = row[0].as_oid().raw();
    auto p = b.para_of_oid().find(oid);
    if (p == b.para_of_oid().end()) {
      b.Fail(tag + ": row is not a generated paragraph");
      continue;
    }
    if (b.ref().docs[b.ref().paras[p->second].doc].year < cq.year) {
      b.Fail(tag + ": row's document YEAR is below " +
             std::to_string(cq.year));
    }
    if (!seen.insert(oid).second) b.Fail(tag + ": duplicate row");
    if (must.count(oid) == 0 && may.count(oid) == 0) {
      b.Fail(tag + ": unexpected row oid:" + std::to_string(oid));
    } else if (std::fabs(row[1].as_real() - expected.at(oid)) > 1e-12) {
      b.Fail(tag + ": score of oid:" + std::to_string(oid) + " is " +
             Num(row[1].as_real()) + ", brute force " + Num(expected.at(oid)));
    }
  }
  for (uint64_t oid : must) {
    if (seen.count(oid) == 0) {
      b.Fail(tag + ": missing row oid:" + std::to_string(oid));
    }
  }
}

/// Strategy (1) vs (2), and buffered vs unbuffered, bit for bit.
void CheckContentPaths(Bench& b, const ContentQuery& cq,
                       const oodb::vql::QueryResult& served,
                       bool with_unbuffered) {
  coupling::Coupling& c = b.sys().coupling();
  coupling::MixedQueryEvaluator eval(&c);
  auto want = RowKeys(served);
  auto compare = [&](const char* path, Strategy s) {
    auto r = eval.Run(cq.vql, s);
    if (!r.ok()) {
      b.Fail(std::string(path) + " failed: " + r.status().ToString());
    } else if (RowKeys(*r) != want) {
      b.Fail(std::string(path) + " differs from the served answer for '" +
             cq.irs + "'");
    }
  };
  compare("strategy (1)", Strategy::kIndependent);
  compare("buffered run", Strategy::kIrsFirst);
  compare("buffered rerun", Strategy::kIrsFirst);
  if (!with_unbuffered) return;
  c.options().disable_buffering = true;
  compare("unbuffered run", Strategy::kIrsFirst);
  c.options().disable_buffering = false;
}

using HitMap = std::map<std::string, uint64_t>;

HitMap HitBits(const std::vector<irs::SearchHit>& hits) {
  HitMap out;
  for (const auto& h : hits) out[h.key] = Bits(h.score);
  return out;
}

/// remote_fanout: the remote collection's answers against an in-process
/// single-shard collection of the same texts, per shard and merged.
/// Times each remote shard search against the local one.
Status CheckRemote(Bench& b, const std::vector<ContentQuery>& queries) {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        b.sys().engine().GetCollection(kCollection));
  SDMS_ASSIGN_OR_RETURN(auto model, irs::MakeModel("inquery"));
  irs::IrsCollection single("reference", irs::AnalyzerOptions{},
                            std::move(model), 1);
  std::vector<irs::BatchDocument> docs;
  for (size_t i = 0; i < b.ref().paras.size(); ++i) {
    docs.push_back({b.para_oids()[i].ToString(), b.ref().paras[i].text});
  }
  SDMS_RETURN_IF_ERROR(single.AddDocumentsBatch(docs));
  coupling::Collection& cc = b.sys().collection();

  std::vector<std::vector<std::vector<irs::SearchHit>>> remote(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& q = queries[i].irs;
    SDMS_ASSIGN_OR_RETURN(irs::IrsCollection::SearchPlan plan,
                          coll->PrepareSearch(q, 0));
    for (size_t s = 0; s < coll->num_shards(); ++s) {
      coupling::RemoteShardChannel* ch = cc.remote_shard_channel(s);
      if (ch == nullptr) return Status::Internal("shard without channel");
      int64_t t0 = NowMicros();
      std::vector<irs::SearchHit> hits;
      {
        ScopedSpan span("remote.search");
        SDMS_ASSIGN_OR_RETURN(hits, ch->Search(q, plan, coll));
      }
      int64_t t1 = NowMicros();
      std::vector<irs::SearchHit> local;
      {
        ScopedSpan span("irs.search_shard");
        SDMS_ASSIGN_OR_RETURN(local, coll->SearchShard(plan, s));
      }
      int64_t t2 = NowMicros();
      b.AddLayer("coupling.remote_search_us", static_cast<double>(t1 - t0));
      b.AddLayer("coupling.remote_overhead_us",
                 static_cast<double>((t1 - t0) - (t2 - t1)));
      if (HitBits(hits) != HitBits(local)) {
        b.Fail("remote shard " + std::to_string(s) + " differs from the " +
               "local shard for '" + q + "'");
      }
      remote[i].push_back(std::move(hits));
    }
  }
  if (b.options().perturb == "swap_shard_hits" && remote.size() > 1) {
    std::swap(remote[0][1], remote[1][1]);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& q = queries[i].irs;
    SDMS_ASSIGN_OR_RETURN(std::vector<irs::SearchHit> ref, single.Search(q));
    auto merged = irs::IrsCollection::MergeShardHits(remote[i], 0);
    if (HitBits(merged) != HitBits(ref)) {
      b.Fail("merged remote shards differ from a single-shard collection "
             "for '" + q + "'");
    }
    // The coupling's own fan-out (buffer off, so it goes to the shards).
    b.sys().coupling().options().disable_buffering = true;
    auto result = cc.GetIrsResult(q);
    b.sys().coupling().options().disable_buffering = false;
    if (!result.ok()) return result.status();
    HitMap got;
    for (const auto& [oid, score] : **result) got[oid.ToString()] = Bits(score);
    if (got != HitBits(ref)) {
      b.Fail("getIRSResult over remote shards differs from a single-shard "
             "collection for '" + q + "'");
    }
  }
  return Status::OK();
}

Status RunContent(Bench& b, bool remote) {
  b.MakeCorpus(kContentDocs);
  SystemOptions so;
  so.shards = remote ? 2 : 1;
  so.remote = remote;
  so.buffer_max_bytes = kBufferBytes;
  SDMS_RETURN_IF_ERROR(b.Setup(so));
  SDMS_RETURN_IF_ERROR(b.MapCorpus());
  b.Report("corpus: docs=" + std::to_string(b.ref().docs.size()) +
           " paras=" + std::to_string(b.ref().paras.size()) +
           " shards=" + std::to_string(so.shards) +
           (remote ? " (remote, protocol v3)" : ""));

  ContentStream stream(b.options().seed, b.vocabulary(), b.analyzer());
  auto source = [&stream](int conn, uint64_t k) {
    ServedOp op;
    op.id = k * kConnections + static_cast<uint64_t>(conn);
    op.vql = stream.At(op.id).vql;
    op.strategy = 1;
    return op;
  };
  Bench::ServedRun run;
  SDMS_RETURN_IF_ERROR(
      b.RunServed(source, kConnections, /*round_len=*/1,
                  /*warm_rounds=*/30, kCheckedPerConn, &run));
  if (b.trace()) b.RecordServedLayers(run);

  Perturb(b.options().perturb, run.kept);
  std::vector<ContentQuery> checked;
  std::vector<size_t> per_conn(kConnections, 0);
  size_t unbuffered = 0;
  for (const ServedRecord& r : run.kept) {
    if (!r.ok) {
      b.Fail("checked query failed: " + r.error);
      continue;
    }
    ContentQuery cq = stream.At(r.op.id);
    CheckContentAnswer(b, cq, r.response.result);
    // Unbuffered runs repeat the IRS search per row, so only the first
    // checked answers of each connection take that path too.
    bool with_unbuffered = per_conn[r.conn]++ < kUnbufferedChecks;
    unbuffered += with_unbuffered;
    CheckContentPaths(b, cq, r.response.result, with_unbuffered);
    checked.push_back(cq);
  }
  if (remote) SDMS_RETURN_IF_ERROR(CheckRemote(b, checked));

  if (b.trace()) {
    std::vector<std::string> irs, vql;
    std::vector<ServedRecord> codec;
    for (const ServedRecord& r : run.traced) {
      if (irs.size() < kReplays) {
        ContentQuery cq = stream.At(r.op.id);
        irs.push_back(cq.irs);
        vql.push_back(cq.vql);
      }
      if (codec.size() < kReplays && !r.response.result.rows.empty()) {
        codec.push_back(r);
      }
    }
    SDMS_RETURN_IF_ERROR(b.ReplayIrs(irs));
    b.ReplayParse(vql);
    b.ReplayCodec(codec);
  }
  b.Report("checks: " + std::to_string(checked.size()) +
           " sampled answers against the brute-force scorer and the SGML "
           "YEAR, strategy (1) and buffered reruns; " +
           std::to_string(unbuffered) + " also unbuffered");
  // A query no connection has sent (connection c sent entries
  // c, c + 3, ... below 3 * next_k[c]).
  uint64_t unused = 0;
  for (uint64_t k : run.next_k) unused = std::max(unused, k);
  return b.EditsAndRestart(stream.At(unused * kConnections).vql);
}

// ---------------------------------------------------------------------------
// struct_join

enum StructKind {
  kQuery1,
  kDocValue,
  kQuery2,
  kSharedDocValue,
  kSharedQuery1
};

// Op kinds of one round per connection. The last two are the
// shared-entry pair (SharedTopic()).
constexpr StructKind kStructRound[] = {
    kQuery1,   kDocValue, kQuery2,         kDocValue,
    kQuery1,   kDocValue, kSharedDocValue, kSharedQuery1};
constexpr int kStructRoundLen = 8;
// One client connection. With three, about two thirds of the fast ops
// queued on the server's execution mutex behind another connection's
// Query 2, so query_p50_us measured that queue: its ten-seed spread
// reached 0.29-0.37 when host steal varied between runs.
constexpr int kStructConnections = 1;
// Measured rounds whose every answer is checked against the brute-force
// join.
constexpr int kStructCheckedRounds = 3;

/// The topic of the shared-entry pair. A document-level getIRSValue and
/// an IRS-first Query 1 send the same IRS query string, as the paper's
/// own examples do, so both use one result-buffer entry. findIRSValue
/// inserts the derived MMFDOC/SECTION values into that entry and
/// IRS-first evaluation takes its PARA candidates from it, so that
/// Query 1 returns document and section rows next to the paragraphs
/// (see CHANGES.md, FOUND). Its answer is checked in every round and
/// counted as a failed operation when wrong. Because the warm-up runs
/// the document-level op first, it is wrong in every round for every
/// seed: some document of kSharedYear has a paragraph with the topic.
const std::string& SharedTopic() { return Topics().back(); }
constexpr int64_t kSharedYear = 1993;
constexpr double kSharedThreshold = 0.4;

/// The topics of the other ops, whose IRS query strings never reach an
/// entry that holds derived values.
size_t NumStructTopics() { return Topics().size() - 1; }

/// The IRS query string of document-level getIRSValue for `topic`: the
/// topic in capitals (as the paper writes 'WWW'). The analyzer maps it
/// to the same term, but the result buffer keys by query string, so the
/// derived values findIRSValue inserts land in entries the IRS-first
/// Query 1 / Query 2 never read.
std::string DocQuery(const std::string& topic) {
  std::string out = topic;
  for (char& ch : out) ch = static_cast<char>(std::toupper(ch));
  return out;
}

struct StructOp {
  StructKind kind = kQuery1;
  std::string topic, topic2;
  double threshold = 0;
  int64_t year = 0;
  ServedOp op;
};

std::string Query1Vql(const std::string& topic, double threshold) {
  return "ACCESS p, p -> length() FROM p IN PARA WHERE p -> "
         "getIRSValue('paras', '" + topic + "') > " + Num(threshold);
}

std::string DocValueVql(const std::string& irs_query, int64_t year) {
  return "ACCESS d -> getAttributeValue('DOCID'), d -> getIRSValue('paras', '" +
         irs_query + "') FROM d IN MMFDOC WHERE d -> "
         "getAttributeValue('YEAR') == " + std::to_string(year);
}

StructOp MakeStructOp(uint64_t seed, int conn, uint64_t k) {
  Rng rng(seed * 1000003u + static_cast<uint64_t>(conn) * 7919u + k);
  StructOp s;
  s.kind = kStructRound[k % kStructRoundLen];
  s.op.id = k * kConnections + static_cast<uint64_t>(conn);
  s.topic = Topics()[rng.Uniform(NumStructTopics())];
  s.year = 1990 + static_cast<int64_t>(rng.Uniform(7));
  switch (s.kind) {
    case kQuery1:
      s.threshold = rng.Bernoulli(0.5) ? 0.45 : 0.5;
      s.op.vql = Query1Vql(s.topic, s.threshold);
      s.op.strategy = 1;
      break;
    case kQuery2: {
      // Any ordered pair of distinct topics.
      size_t a = rng.Uniform(NumStructTopics());
      size_t b = (a + 1 + rng.Uniform(NumStructTopics() - 1)) %
                 NumStructTopics();
      s.topic = Topics()[a];
      s.topic2 = Topics()[b];
      s.op.vql =
          "ACCESS d -> getAttributeValue('DOCID') FROM p1 IN PARA, "
          "p2 IN PARA, d IN MMFDOC WHERE d -> getAttributeValue('YEAR') == " +
          std::to_string(s.year) +
          " AND p1 -> getNext() == p2 AND p1 -> getContaining('MMFDOC') == d"
          " AND p1 -> getIRSValue('paras', '" + s.topic + "') > 0.4 AND "
          "p2 -> getIRSValue('paras', '" + s.topic2 + "') > 0.4";
      s.op.strategy = 1;
      break;
    }
    case kDocValue:
      s.topic = DocQuery(s.topic);
      s.op.vql = DocValueVql(s.topic, s.year);
      s.op.strategy = 0;
      break;
    case kSharedDocValue:
      s.topic = SharedTopic();
      s.year = kSharedYear;
      s.op.vql = DocValueVql(s.topic, s.year);
      s.op.strategy = 0;
      break;
    case kSharedQuery1:
      s.topic = SharedTopic();
      s.threshold = kSharedThreshold;
      s.op.vql = Query1Vql(s.topic, s.threshold);
      s.op.strategy = 1;
      break;
  }
  return s;
}

using TopicMaps = std::map<std::string, std::map<uint64_t, double>>;

/// Query 1 rows as sorted "oid|length" strings.
std::vector<std::string> Query1Rows(const oodb::vql::QueryResult& served) {
  std::vector<std::string> got;
  for (const auto& row : served.rows) {
    got.push_back(row.size() == 2 && row[0].is_oid() && row[1].is_int()
                      ? row[0].as_oid().ToString() + "|" +
                            std::to_string(row[1].as_int())
                      : "malformed");
  }
  std::sort(got.begin(), got.end());
  return got;
}

/// Brute-force Query 1 rows: every paragraph whose value exceeds the
/// threshold, with its word count from the generated SGML.
std::vector<std::string> ExpectedQuery1(Bench& b, const TopicMaps& maps,
                                        const std::string& topic,
                                        double threshold) {
  std::vector<std::string> want;
  const auto& m = maps.at(topic);
  for (size_t p = 0; p < b.ref().paras.size(); ++p) {
    auto it = m.find(b.para_oids()[p].raw());
    if (it != m.end() && it->second > threshold) {
      want.push_back(b.para_oids()[p].ToString() + "|" +
                     std::to_string(b.ref().paras[p].words));
    }
  }
  std::sort(want.begin(), want.end());
  return want;
}

/// Brute-force expected rows of one struct_join op, from the corpus
/// tree, the collection's getIRSResult maps and the max derivation.
void CheckStructAnswer(Bench& b, const StructOp& s,
                       const oodb::vql::QueryResult& served,
                       const TopicMaps& maps) {
  auto value = [&](const std::string& topic, size_t para) {
    const auto& m = maps.at(topic);
    auto it = m.find(b.para_oids()[para].raw());
    return it == m.end() ? kNullTerm : it->second;
  };
  const RefCorpus& ref = b.ref();
  std::vector<std::string> want, got;
  switch (s.kind) {
    case kQuery1:
    case kSharedQuery1:
      want = ExpectedQuery1(b, maps, s.topic, s.threshold);
      got = Query1Rows(served);
      break;
    case kQuery2:
      for (const RefDoc& d : ref.docs) {
        if (d.year != s.year) continue;
        for (const auto& section : d.sections) {
          for (size_t i = 0; i + 1 < section.size(); ++i) {
            if (value(s.topic, section[i]) > kNullTerm &&
                value(s.topic2, section[i + 1]) > kNullTerm) {
              want.push_back(d.docid);
            }
          }
        }
      }
      for (const auto& row : served.rows) {
        got.push_back(row.size() == 1 && row[0].is_string()
                          ? row[0].as_string()
                          : "malformed");
      }
      break;
    case kDocValue:
    case kSharedDocValue:
      for (const RefDoc& d : ref.docs) {
        if (d.year != s.year) continue;
        double best = kNullTerm;  // the max scheme's floor: null belief
        for (const auto& section : d.sections) {
          for (size_t p : section) best = std::max(best, value(s.topic, p));
        }
        want.push_back(d.docid + "|" + std::to_string(Bits(best)));
      }
      for (const auto& row : served.rows) {
        got.push_back(row.size() == 2 && row[0].is_string() && row[1].is_real()
                          ? row[0].as_string() + "|" +
                                std::to_string(Bits(row[1].as_real()))
                          : "malformed");
      }
      break;
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    b.Fail("struct_join op '" + s.op.vql + "': " + std::to_string(got.size()) +
           " rows served, brute-force join gives " +
           std::to_string(want.size()) + " (or values differ)");
  }
}

Status RunStructJoin(Bench& b) {
  b.MakeCorpus(kStructDocs);
  SystemOptions so;
  so.buffer_max_bytes = kBufferBytes;
  SDMS_RETURN_IF_ERROR(b.Setup(so));
  SDMS_RETURN_IF_ERROR(b.MapCorpus());
  b.Report("corpus: docs=" + std::to_string(b.ref().docs.size()) +
           " paras=" + std::to_string(b.ref().paras.size()));

  // Warm-up: every distinct IRS query once — the document-level ones
  // through getIRSValue on every document (the shared topic on those
  // of kSharedYear, as its op asks), so derived document and section
  // values are buffered too. The measured phase then never searches
  // the IRS and never derives: its document values are buffer lookups.
  std::vector<std::string> irs_queries;
  for (size_t i = 0; i < NumStructTopics(); ++i) {
    irs_queries.push_back(Topics()[i]);
    irs_queries.push_back(DocQuery(Topics()[i]));
  }
  irs_queries.push_back(SharedTopic());
  {
    coupling::MixedQueryEvaluator eval(&b.sys().coupling());
    for (size_t i = 0; i < NumStructTopics(); ++i) {
      SDMS_RETURN_IF_ERROR(
          b.sys().collection().GetIrsResult(Topics()[i]).status());
    }
    for (size_t i = 0; i < NumStructTopics(); ++i) {
      SDMS_RETURN_IF_ERROR(
          eval.Run("ACCESS d, d -> getIRSValue('paras', '" +
                       DocQuery(Topics()[i]) + "') FROM d IN MMFDOC",
                   Strategy::kIndependent)
              .status());
    }
    SDMS_RETURN_IF_ERROR(
        eval.Run(DocValueVql(SharedTopic(), kSharedYear),
                 Strategy::kIndependent)
            .status());
  }

  // The maps the brute-force join reads (paragraph entries only),
  // checked themselves against the brute-force scorer. No op updates
  // the database, so they hold for the whole measured phase.
  TopicMaps maps;
  QueryGenerator qg(0, b.vocabulary(), b.analyzer());
  size_t derived_in_shared = 0;
  for (const std::string& t : irs_queries) {
    SDMS_ASSIGN_OR_RETURN(const coupling::OidScoreMap* m,
                          b.sys().collection().GetIrsResult(t));
    std::map<uint64_t, double> expected = b.scorer().Score(qg.Term(t));
    for (const auto& [oid, score] : *m) {
      // Derived (non-PARA) values are buffered under the same query.
      if (b.para_of_oid().count(oid.raw()) == 0) {
        if (t == SharedTopic()) ++derived_in_shared;
        continue;
      }
      maps[t][oid.raw()] = score;
      auto e = expected.find(oid.raw());
      if (e == expected.end() || std::fabs(e->second - score) > 1e-12) {
        b.Fail("getIRSResult('" + t + "') disagrees with the brute-force "
               "scorer on " + oid.ToString());
      }
    }
    if (maps[t].size() != expected.size()) {
      b.Fail("getIRSResult('" + t + "') has " +
             std::to_string(maps[t].size()) + " paragraphs, brute force " +
             std::to_string(expected.size()));
    }
  }
  const std::vector<std::string> shared_want =
      ExpectedQuery1(b, maps, SharedTopic(), kSharedThreshold);

  const uint64_t seed = b.options().seed;
  auto source = [&](int conn, uint64_t k) {
    StructOp s = MakeStructOp(seed, conn, k);
    if (s.kind == kSharedQuery1) {
      s.op.verify = [&shared_want](const oodb::vql::QueryResult& r) {
        return Query1Rows(r) == shared_want;
      };
    }
    return s.op;
  };
  Bench::ServedRun run;
  SDMS_RETURN_IF_ERROR(b.RunServed(source, kStructConnections,
                                   kStructRoundLen, /*warm_rounds=*/1,
                                   kStructCheckedRounds * kStructRoundLen,
                                   &run));
  if (b.trace()) b.RecordServedLayers(run);

  Perturb(b.options().perturb, run.kept);
  bool shared_reported = false;
  for (const ServedRecord& r : run.kept) {
    if (!r.ok) {
      b.Fail("checked op failed: " + r.error);
      continue;
    }
    StructOp s = MakeStructOp(seed, r.conn, (r.op.id - r.conn) / kConnections);
    if (s.kind == kSharedQuery1) {
      // Counted as failed (or not) by its verify; reported here.
      if (!shared_reported) {
        shared_reported = true;
        std::vector<std::string> got = Query1Rows(r.response.result);
        b.Report("shared-entry Query 1 ('" + SharedTopic() + "' > " +
                 FmtNum(kSharedThreshold) + "): " +
                 std::to_string(got.size()) +
                 " rows served, brute force " +
                 std::to_string(shared_want.size()) + "; " +
                 std::to_string(derived_in_shared) +
                 " derived MMFDOC/SECTION values in its buffer entry");
      }
      continue;
    }
    CheckStructAnswer(b, s, r.response.result, maps);
  }

  if (b.trace()) {
    std::vector<std::string> irs, vql;
    std::vector<ServedRecord> codec;
    for (size_t i = 0; irs.size() < kReplays; ++i) {
      irs.push_back(irs_queries[i % irs_queries.size()]);
    }
    for (const ServedRecord& r : run.traced) {
      if (vql.size() < kReplays) vql.push_back(r.op.vql);
      if (codec.size() < kReplays && !r.response.result.rows.empty()) {
        codec.push_back(r);
      }
    }
    SDMS_RETURN_IF_ERROR(b.ReplayIrs(irs));
    b.ReplayParse(vql);
    b.ReplayCodec(codec);
  }
  return b.EditsAndRestart(MakeStructOp(seed, 0, 0).op.vql);
}

// ---------------------------------------------------------------------------
// edit_mix

// One round: 16 content queries, 20 paragraph text edits, 2 document
// inserts and 2 document (subtree) deletes; a checkpoint follows the
// edit at position kCheckpointAt. Runs end after whole rounds, so the
// WAL on disk at the end always holds the same half round of edits.
constexpr int kEditRoundLen = 40;
constexpr int kCheckpointAt = 19;
constexpr int kRotatingQueries = 32;
constexpr size_t kInsertPool = 48;

enum EditKind { kQuery, kText, kInsert, kDelete };

EditKind EditKindAt(int i) {
  if (i % 5 == 1 || i % 5 == 3) return kQuery;
  if (i == 4 || i == 24) return kInsert;
  if (i == 14 || i == 34) return kDelete;
  return kText;
}

/// The benchmark's record of every acknowledged edit: what the
/// database must hold.
struct EditModel {
  struct Doc {
    std::vector<uint64_t> oids;  // root, sections, paras
    std::vector<uint64_t> paras;
  };
  std::vector<Doc> docs;
  std::unordered_map<uint64_t, std::string> text;  // live PARA -> text
  std::vector<uint64_t> live;                      // live PARA oids
  std::unordered_map<uint64_t, size_t> live_pos;
  std::vector<uint64_t> deleted;

  void AddPara(uint64_t oid, const std::string& t) {
    text[oid] = t;
    live_pos[oid] = live.size();
    live.push_back(oid);
  }
  void RemovePara(uint64_t oid) {
    size_t pos = live_pos.at(oid);
    live[pos] = live.back();
    live_pos[live[pos]] = pos;
    live.pop_back();
    live_pos.erase(oid);
    text.erase(oid);
  }
  uint64_t TextBytes() const {
    uint64_t n = 0;
    for (const auto& [oid, t] : text) n += t.size();
    return n;
  }
};

void CheckDbState(Bench& b, const EditModel& m, const std::string& when) {
  oodb::Database& db = b.sys().db();
  size_t bad = 0;
  for (const auto& [oid, want] : m.text) {
    auto v = db.GetAttribute(Oid(oid), "TEXT");
    if (!v.ok() || !v->is_string() || v->as_string() != want) ++bad;
  }
  if (bad > 0) {
    b.Fail(when + ": " + std::to_string(bad) +
           " paragraphs do not hold their last acknowledged text");
  }
  size_t alive = 0;
  for (uint64_t oid : m.deleted) alive += db.GetObject(Oid(oid)).ok();
  if (alive > 0) {
    b.Fail(when + ": " + std::to_string(alive) +
           " objects of deleted subtrees still exist");
  }
  size_t extent = db.Extent("PARA").size();
  if (extent != m.live.size()) {
    b.Fail(when + ": PARA extent has " + std::to_string(extent) +
           " objects, the edit record " + std::to_string(m.live.size()));
  }
}

using ProbeAnswers = std::map<std::string, std::map<std::string, uint64_t>>;

StatusOr<ProbeAnswers> Probe(Bench& b, const std::vector<std::string>& probes) {
  coupling::Collection& c = b.sys().collection();
  SDMS_RETURN_IF_ERROR(c.PropagateUpdates());
  SDMS_ASSIGN_OR_RETURN(coupling::ConsistencyReport report,
                        c.VerifyConsistency());
  if (!report.consistent()) {
    b.Fail("VerifyConsistency: " +
           std::to_string(report.missing_in_irs.size()) + " missing, " +
           std::to_string(report.orphaned_in_irs.size()) + " orphaned");
  }
  // Tombstoned postings still count in document frequencies until
  // compaction; compare compacted indexes.
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * irs_coll,
                        b.sys().engine().GetCollection(kCollection));
  irs_coll->CompactIndex();
  c.buffer().Clear();
  ProbeAnswers out;
  for (const std::string& q : probes) {
    SDMS_ASSIGN_OR_RETURN(const coupling::OidScoreMap* m, c.GetIrsResult(q));
    for (const auto& [oid, score] : *m) out[q][oid.ToString()] = Bits(score);
  }
  return out;
}

Status CheckAgainstFresh(Bench& b, const EditModel& m,
                         const std::vector<std::string>& probes,
                         const ProbeAnswers& got) {
  SDMS_ASSIGN_OR_RETURN(auto model, irs::MakeModel("inquery"));
  irs::IrsCollection fresh("fresh", irs::AnalyzerOptions{}, std::move(model),
                           1);
  std::vector<irs::BatchDocument> docs;
  for (const auto& [oid, t] : m.text) docs.push_back({Oid(oid).ToString(), t});
  SDMS_RETURN_IF_ERROR(fresh.AddDocumentsBatch(docs));
  for (const std::string& q : probes) {
    SDMS_ASSIGN_OR_RETURN(std::vector<irs::SearchHit> hits, fresh.Search(q));
    auto it = got.find(q);
    if (it == got.end() || it->second != HitBits(hits)) {
      b.Fail("incrementally maintained collection scores '" + q +
             "' differently from a fresh index of the final state");
    }
  }
  return Status::OK();
}

Status RunEditMix(Bench& b) {
  b.MakeCorpus(kEditDocs);
  SystemOptions so;
  so.buffer_max_bytes = kBufferBytes;
  SDMS_RETURN_IF_ERROR(b.Setup(so));
  SDMS_RETURN_IF_ERROR(b.MapCorpus());
  b.sys().collection().set_propagation_policy(
      coupling::PropagationPolicy::kOnQuery);
  const uint64_t seed = b.options().seed;
  b.Report("corpus: docs=" + std::to_string(b.ref().docs.size()) +
           " paras=" + std::to_string(b.ref().paras.size()) +
           " round=16 queries+20 text edits+2 inserts+2 deletes, checkpoint "
           "every 24 edits, fsync per commit, on-query propagation");

  EditModel m;
  for (size_t d = 0; d < b.ref().docs.size(); ++d) {
    EditModel::Doc doc;
    doc.oids.push_back(b.sys().roots()[d].raw());
    for (const auto& section : b.ref().docs[d].sections) {
      for (size_t p : section) {
        uint64_t oid = b.para_oids()[p].raw();
        doc.paras.push_back(oid);
        doc.oids.push_back(oid);
        m.AddPara(oid, b.ref().paras[p].text);
      }
    }
    m.docs.push_back(std::move(doc));
  }
  sgml::Corpus pool =
      sgml::CorpusGenerator(MakeCorpusOptions(seed + 1, kInsertPool))
          .Generate();
  RefCorpus pool_ref;
  for (const auto& doc : pool.documents) pool_ref.AddDocument(doc);

  ContentStream stream(seed, b.vocabulary(), b.analyzer());
  std::vector<ContentQuery> rotating;
  for (int i = 0; i < kRotatingQueries; ++i) rotating.push_back(stream.At(i));

  Rng rng(seed * 31 + 7);
  coupling::Collection* coll = &b.sys().collection();
  uint64_t inserted = 0, queries = 0;
  uint64_t last_edit_oid = 0;
  std::string last_edit_before;
  double bindings = 0, rows = 0;

  auto run_op = [&](int i, bool measured) -> Status {
    EditKind kind = EditKindAt(i);
    if (kind == kQuery) {
      const ContentQuery& cq = rotating[queries++ % kRotatingQueries];
      const bool traced = Tracer::Instance().enabled();
      int64_t t0 = NowMicros();
      if (traced) {
        // Splits the propagation the query would otherwise run itself.
        double pending = static_cast<double>(coll->pending_updates());
        {
          ScopedSpan span("coupling.propagate");
          SDMS_RETURN_IF_ERROR(coll->PropagateUpdates());
        }
        if (measured) {
          b.AddLayer("coupling.propagate_us",
                     static_cast<double>(NowMicros() - t0));
          b.AddLayer("coupling.ops_per_propagation", pending);
          b.NotePropagationMeasured();
        }
      }
      QueryContext ctx;
      if (traced) {
        ctx.set_profile(std::make_shared<obs::QueryProfile>(ctx.query_id()));
      }
      QueryContext::Scope scope(&ctx);
      coupling::MixedQueryEvaluator eval(&b.sys().coupling());
      Status s;
      {
        ScopedSpan span("coupling.query", ctx.query_id());
        s = eval.Run(cq.vql, Strategy::kIrsFirst).status();
      }
      const double query_us = static_cast<double>(NowMicros() - t0);
      if (measured) {
        b.RecordOp(Bench::OpClass::kQuery, NowMicros(), query_us, s.ok());
        if (traced && s.ok()) {
          b.AddLayer("coupling.eval_us",
                     static_cast<double>(eval.last_run().total_micros));
          Json prof;
          const Json* root = nullptr;
          if (ctx.profile() != nullptr &&
              ParseJson(ctx.profile()->ToJson(), &prof) &&
              (root = prof.Find("profile")) != nullptr) {
            b.AddLayer("coupling.irs_query_us", StageMicros(*root, "irs_query"));
            b.AddLayer("oodb.plan_us", StageMicros(*root, "plan"));
            b.AddLayer("oodb.join_us", StageMicros(*root, "join"));
            b.AddLayer("oodb.method_calls_per_query",
                       CounterTotal(*root, "method_calls"));
            bindings += CounterTotal(*root, "bindings_scanned");
            rows += CounterTotal(*root, "rows_emitted");
          }
        }
      }
      return s;
    }
    Status s;
    double latency = 0;
    if (kind == kText) {
      uint64_t oid = m.live[rng.Uniform(m.live.size())];
      std::string text = b.RandomParagraph(rng);
      std::function<Status()> checkpoint = nullptr;
      if (i == kCheckpointAt) checkpoint = [&b] { return b.Checkpoint(); };
      StatusOr<double> edited = b.TextEdit(Oid(oid), text, checkpoint);
      s = edited.status();
      if (s.ok()) {
        latency = *edited;
        last_edit_oid = oid;
        last_edit_before = m.text[oid];
        m.text[oid] = text;
      }
    } else if (kind == kInsert) {
      size_t which = inserted++ % pool.documents.size();
      int64_t t0 = NowMicros();
      StatusOr<Oid> root = [&] {
        ScopedSpan span("coupling.store_document");
        return b.sys().coupling().StoreDocument(pool.documents[which]);
      }();
      latency = static_cast<double>(NowMicros() - t0);
      if (root.ok()) {
        StatusOr<StoredDoc> stored = WalkDocument(b.sys().coupling(), *root);
        if (!stored.ok()) return stored.status();
        EditModel::Doc doc;
        doc.oids.push_back(root->raw());
        for (Oid sec : stored->sections) doc.oids.push_back(sec.raw());
        std::vector<size_t> want;
        for (const auto& section : pool_ref.docs[which].sections) {
          want.insert(want.end(), section.begin(), section.end());
        }
        if (want.size() != stored->paras.size()) {
          b.Fail("inserted document stored with a different paragraph count");
          return Status::OK();
        }
        for (size_t j = 0; j < want.size(); ++j) {
          uint64_t oid = stored->paras[j].raw();
          doc.paras.push_back(oid);
          doc.oids.push_back(oid);
          m.AddPara(oid, pool_ref.paras[want[j]].text);
        }
        m.docs.push_back(std::move(doc));
      }
      s = root.status();
    } else {
      size_t which = rng.Uniform(m.docs.size());
      EditModel::Doc doc = m.docs[which];
      int64_t t0 = NowMicros();
      {
        ScopedSpan span("coupling.delete_subtree");
        s = b.sys().coupling().DeleteSubtree(Oid(doc.oids[0]));
      }
      latency = static_cast<double>(NowMicros() - t0);
      if (s.ok()) {
        for (uint64_t p : doc.paras) m.RemovePara(p);
        m.deleted.insert(m.deleted.end(), doc.oids.begin(), doc.oids.end());
        m.docs[which] = std::move(m.docs.back());
        m.docs.pop_back();
      }
    }
    if (measured) {
      b.RecordOp(kind == kText ? Bench::OpClass::kEdit
                               : Bench::OpClass::kOtherEdit,
                 NowMicros(), latency, s.ok());
    }
    return s;
  };

  // Warm-up round, then whole rounds until the time is up.
  for (int i = 0; i < kEditRoundLen; ++i) SDMS_RETURN_IF_ERROR(run_op(i, false));
  b.BeginMeasure();
  const int64_t end =
      NowMicros() + static_cast<int64_t>(b.options().seconds * 1e6);
  do {
    for (int i = 0; i < kEditRoundLen; ++i) {
      Status s = run_op(i, true);
      if (!s.ok()) b.Report("failed op: " + s.ToString());
    }
    // Same point of every round: half a round of edits since the
    // checkpoint sits in the WAL.
    b.SampleSpace(m.TextBytes());
  } while (NowMicros() < end);
  b.EndMeasure();
  if (b.trace()) {
    b.SetLayer("oodb.bindings_per_row", bindings / std::max(rows, 1.0));
  }

  std::vector<std::string> probes;
  for (const ContentQuery& cq : rotating) probes.push_back(cq.irs);
  for (size_t t = 0; t < 4; ++t) probes.push_back(Topics()[t]);
  SDMS_ASSIGN_OR_RETURN(ProbeAnswers before, Probe(b, probes));
  CheckDbState(b, m, "before restart");
  SDMS_RETURN_IF_ERROR(CheckAgainstFresh(b, m, probes, before));

  if (b.trace()) {
    std::vector<std::string> irs, vql;
    for (size_t i = 0; irs.size() < kReplays; ++i) {
      irs.push_back(probes[i % probes.size()]);
      vql.push_back(rotating[i % rotating.size()].vql);
    }
    SDMS_RETURN_IF_ERROR(b.ReplayIrs(irs));
    b.ReplayParse(vql);
  }

  SDMS_RETURN_IF_ERROR(b.RestartAndQuery(rotating[0].vql));
  if (b.options().perturb == "revert_edit" && last_edit_oid != 0) {
    SDMS_RETURN_IF_ERROR(b.sys().db().SetAttribute(
        Oid(last_edit_oid), "TEXT", oodb::Value(last_edit_before)));
  }
  CheckDbState(b, m, "after restart");
  SDMS_ASSIGN_OR_RETURN(ProbeAnswers after, Probe(b, probes));
  if (after != before) {
    b.Fail("probe answers changed across the restart");
  }
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "content_search", "struct_join", "edit_mix", "remote_fanout"};
  return names;
}

Status RunWorkload(const RunOptions& options, Outcome* outcome) {
  Bench b(options, outcome);
  Status s;
  if (options.workload == "content_search") {
    s = RunContent(b, /*remote=*/false);
  } else if (options.workload == "remote_fanout") {
    s = RunContent(b, /*remote=*/true);
  } else if (options.workload == "struct_join") {
    s = RunStructJoin(b);
  } else if (options.workload == "edit_mix") {
    s = RunEditMix(b);
  } else {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  SDMS_RETURN_IF_ERROR(s);
  b.Finish();
  return Status::OK();
}

}  // namespace sdms::perfbench
