// Oracle tests for the block-compressed postings path: the pruned
// top-k scorer, the INQUERY scorer, the cursor intersection, and the
// sealed paged store must all be bit-identical to exhaustive /
// fully decoded reference computations.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "irs/collection.h"
#include "irs/index/postings_kernels.h"
#include "irs/index/proximity.h"
#include "irs/query/query_node.h"
#include "irs/storage/postings_store.h"

namespace sdms::irs {
namespace {

std::vector<BatchDocument> MakeCorpus(size_t num_docs, size_t words_per_doc,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchDocument> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    std::string text;
    for (size_t w = 0; w < words_per_doc; ++w) {
      if (!text.empty()) text += ' ';
      // Nested Uniform skews the vocabulary towards low term ids.
      text += "t" + std::to_string(rng.Uniform(rng.Uniform(200) + 1));
      if (w % 7 == 0 && i % 2 == 0) text += " shared";
      if (w % 11 == 0 && i % 3 == 0) text += " topic";
      if (w % 13 == 0 && i % 5 == 0) text += " rare";
    }
    docs.push_back({"oid:" + std::to_string(i), std::move(text)});
  }
  return docs;
}

std::unique_ptr<IrsCollection> BuildCollection(const std::string& model_name,
                                               uint64_t seed = 7) {
  auto model = MakeModel(model_name);
  EXPECT_TRUE(model.ok());
  auto coll = std::make_unique<IrsCollection>("oracle", AnalyzerOptions{},
                                              std::move(*model));
  EXPECT_TRUE(coll->AddDocumentsBatch(MakeCorpus(400, 40, seed)).ok());
  return coll;
}

/// Asserts Search(q, k) equals the first k hits of Search(q), with
/// bit-identical scores. This is the pruned Block-Max path against the
/// exhaustive score-everything path.
void ExpectTopKMatchesPrefix(IrsCollection& coll, const std::string& query) {
  auto full = coll.Search(query);
  ASSERT_TRUE(full.ok()) << query << ": " << full.status().ToString();
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{50},
                   full->size() + 5}) {
    auto topk = coll.Search(query, k);
    ASSERT_TRUE(topk.ok()) << query << ": " << topk.status().ToString();
    size_t expect = std::min(k, full->size());
    ASSERT_EQ(topk->size(), expect) << query << " k=" << k;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ((*topk)[i].key, (*full)[i].key) << query << " k=" << k;
      // Exact double equality on purpose: the pruned path must compute
      // the surviving scores the same way as the exhaustive path.
      EXPECT_EQ((*topk)[i].score, (*full)[i].score) << query << " k=" << k;
    }
  }
}

const char* kRankedQueries[] = {
    "shared topic",
    "rare",
    "shared topic rare t0 t1",
    "t3",
    "nosuchterm",
    "nosuchterm shared",
};

TEST(PostingsOracleTest, Bm25TopKMatchesFullSearch) {
  auto coll = BuildCollection("bm25");
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

TEST(PostingsOracleTest, VsmTopKMatchesFullSearch) {
  auto coll = BuildCollection("vsm");
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

TEST(PostingsOracleTest, InqueryStructuredTopKMatchesFullSearch) {
  auto coll = BuildCollection("inquery");
  for (const char* q :
       {"shared topic", "#and(shared topic)", "#or(topic rare)",
        "#od3(shared topic)", "#uw8(shared rare)",
        "#wsum(2 shared 1 #and(topic rare))"}) {
    ExpectTopKMatchesPrefix(*coll, q);
  }
}

TEST(PostingsOracleTest, TopKOracleSurvivesTombstones) {
  auto coll = BuildCollection("bm25");
  // Tombstone a third of the corpus without forcing compaction, so the
  // pruned path must filter dead docs exactly like the full path.
  for (int i = 0; i < 400; i += 3) {
    ASSERT_TRUE(coll->RemoveDocument("oid:" + std::to_string(i)).ok());
  }
  ASSERT_GT(coll->index().tombstone_count(), 0u);
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

// ---------------------------------------------------------------------------
// Brute-force INQUERY oracle
// ---------------------------------------------------------------------------

/// Test-local INQUERY scorer: the belief formula of
/// inference_net_model.cc applied to *every* live document, from fully
/// decoded postings lists. df is the list size (tombstoned postings
/// included, as DocFreq counts them); windows come from
/// WindowMatchFrequencies with the number of matching documents as df.
class BruteForceInquery {
 public:
  static constexpr double kDefaultBelief = 0.4;

  BruteForceInquery(const InvertedIndex& index, const QueryNode& query)
      : index_(index),
        n_(std::max<double>(index.doc_count(), 1.0)),
        avgdl_(std::max(index.avg_doc_length(), 1e-9)) {
    Prepare(query);
  }

  /// Belief of `query` for live document `doc`.
  double Score(const QueryNode& query, DocId doc) const {
    auto info = index_.GetDoc(doc);
    EXPECT_TRUE(info.ok());
    return Belief(query, doc, static_cast<double>((*info)->length));
  }

  /// True when `doc` holds a plain query term (one outside any window)
  /// or matches a window — the documents the model scores; every other
  /// document keeps the all-default belief and is not returned.
  bool HasEvidence(const QueryNode& node, DocId doc) const {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      return windows_.at(&node).count(doc) > 0;
    }
    if (node.op == QueryOp::kTerm) return Tf(node.term, doc) > 0;
    for (const auto& c : node.children) {
      if (HasEvidence(*c, doc)) return true;
    }
    return false;
  }

 private:
  void Prepare(const QueryNode& node) {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      std::vector<std::string> terms;
      node.CollectTerms(terms);
      auto freqs = WindowMatchFrequencies(index_, terms,
                                          node.op == QueryOp::kOdn,
                                          node.window);
      ASSERT_TRUE(freqs.ok());
      windows_[&node] = std::move(*freqs);
      return;
    }
    if (node.op == QueryOp::kTerm) {
      auto& per_doc = tf_[node.term];
      const BlockPostingsList* list = index_.GetPostingsList(node.term);
      if (list == nullptr) return;
      auto postings = list->DecodeAll();
      ASSERT_TRUE(postings.ok());
      for (const Posting& p : *postings) per_doc[p.doc] = p.tf;
      df_[node.term] = postings->size();
      return;
    }
    for (const auto& c : node.children) Prepare(*c);
  }

  uint32_t Tf(const std::string& term, DocId doc) const {
    const auto& per_doc = tf_.at(term);
    auto it = per_doc.find(doc);
    return it == per_doc.end() ? 0 : it->second;
  }

  double Evidence(double tf, double df, double dl) const {
    double ntf = tf / (tf + 0.5 + 1.5 * dl / avgdl_);
    double nidf =
        std::log((n_ + 0.5) / std::max(df, 1.0)) / std::log(n_ + 1.0);
    nidf = std::max(0.0, std::min(1.0, nidf));
    return kDefaultBelief + (1.0 - kDefaultBelief) * ntf * nidf;
  }

  double Belief(const QueryNode& node, DocId doc, double dl) const {
    const double db = kDefaultBelief;
    switch (node.op) {
      case QueryOp::kOdn:
      case QueryOp::kUwn: {
        const auto& matches = windows_.at(&node);
        auto it = matches.find(doc);
        if (it == matches.end()) return db;
        return Evidence(it->second, static_cast<double>(matches.size()), dl);
      }
      case QueryOp::kTerm: {
        uint32_t tf = Tf(node.term, doc);
        if (tf == 0) return db;
        return Evidence(tf, static_cast<double>(df_.at(node.term)), dl);
      }
      case QueryOp::kAnd: {
        if (node.children.empty()) return db;
        double b = 1.0;
        for (const auto& c : node.children) b *= Belief(*c, doc, dl);
        return b;
      }
      case QueryOp::kOr: {
        if (node.children.empty()) return db;
        double b = 1.0;
        for (const auto& c : node.children) b *= 1.0 - Belief(*c, doc, dl);
        return 1.0 - b;
      }
      case QueryOp::kNot:
        if (node.children.empty()) return db;
        return 1.0 - Belief(*node.children[0], doc, dl);
      case QueryOp::kSum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        for (const auto& c : node.children) sum += Belief(*c, doc, dl);
        return sum / static_cast<double>(node.children.size());
      }
      case QueryOp::kWsum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        double wsum = 0.0;
        for (size_t i = 0; i < node.children.size(); ++i) {
          double w = i < node.weights.size() ? node.weights[i] : 1.0;
          sum += w * Belief(*node.children[i], doc, dl);
          wsum += w;
        }
        return wsum > 0.0 ? sum / wsum : 0.0;
      }
      case QueryOp::kMax: {
        double best = 0.0;
        for (const auto& c : node.children) {
          best = std::max(best, Belief(*c, doc, dl));
        }
        return best;
      }
    }
    return db;
  }

  const InvertedIndex& index_;
  const double n_;
  const double avgdl_;
  std::map<std::string, std::map<DocId, uint32_t>> tf_;
  std::map<std::string, size_t> df_;
  std::map<const QueryNode*, std::map<DocId, uint32_t>> windows_;
};

/// Every INQUERY operator, both window kinds, a repeated term and an
/// absent term.
const char* kInqueryOracleQueries[] = {
    "shared topic",
    "#and(shared topic)",
    "#or(topic rare)",
    "#not(rare)",
    "#sum(shared #not(topic))",
    "#max(shared rare t5)",
    "#wsum(2 shared 1 #and(topic rare))",
    "#od3(shared topic)",
    "#uw8(shared rare)",
    "#phrase(t1 t2)",
    "#and(#od2(shared topic) rare #not(t3))",
    "#sum(shared shared topic)",
    "#or(nosuchterm rare)",
    "nosuchterm",
};

void ExpectInqueryMatchesBruteForce(IrsCollection& coll) {
  const InvertedIndex& index = coll.index();
  for (const char* q : kInqueryOracleQueries) {
    auto tree = ParseIrsQuery(q, coll.analyzer());
    ASSERT_TRUE(tree.ok()) << q;
    BruteForceInquery oracle(index, **tree);
    std::map<std::string, double> expected;
    index.ForEachDoc([&](DocId id, const DocInfo& info) {
      if (oracle.HasEvidence(**tree, id)) {
        expected[info.key] = oracle.Score(**tree, id);
      }
    });

    auto hits = coll.Search(q);
    ASSERT_TRUE(hits.ok()) << q << ": " << hits.status().ToString();
    std::map<std::string, double> actual;
    for (const SearchHit& h : *hits) actual[h.key] = h.score;
    std::set<std::string> expected_keys, actual_keys;
    for (const auto& [key, score] : expected) expected_keys.insert(key);
    for (const auto& [key, score] : actual) actual_keys.insert(key);
    EXPECT_EQ(actual_keys, expected_keys) << q;
    for (const auto& [key, score] : actual) {
      auto it = expected.find(key);
      if (it == expected.end()) continue;  // reported by the set check
      // Exact double equality on purpose: the production scorer must
      // compute the very same expression per document.
      EXPECT_EQ(score, it->second) << q << " " << key;
    }
  }
}

TEST(PostingsOracleTest, InqueryMatchesBruteForceBeliefs) {
  auto model = MakeModel("inquery");
  ASSERT_TRUE(model.ok());
  IrsCollection coll("oracle", AnalyzerOptions{}, std::move(*model),
                     /*num_shards=*/1);
  ASSERT_TRUE(coll.AddDocumentsBatch(MakeCorpus(400, 40, 11)).ok());
  ExpectInqueryMatchesBruteForce(coll);

  // Tombstone a fifth of the corpus — below the compaction ratio, so
  // the dead postings stay in the lists and in df.
  for (int i = 0; i < 400; i += 5) {
    ASSERT_TRUE(coll.RemoveDocument("oid:" + std::to_string(i)).ok());
  }
  ASSERT_GT(coll.index().tombstone_count(), 0u);
  ExpectInqueryMatchesBruteForce(coll);
}

TEST(PostingsOracleTest, CursorKernelsMatchFlatKernels) {
  auto coll = BuildCollection("inquery");
  const InvertedIndex& index = coll->index();
  const std::vector<std::vector<std::string>> word_sets = {
      {"shared", "topic"},
      {"shared", "topic", "rare"},
      {"t0", "t1", "t2", "shared"},
      {"rare", "nosuchterm"},
  };
  for (const auto& words : word_sets) {
    // Dictionary terms are post-analysis (stemmed).
    std::vector<std::string> terms;
    for (const auto& w : words) {
      std::vector<std::string> analyzed = coll->analyzer().Analyze(w);
      ASSERT_EQ(analyzed.size(), 1u) << w;
      terms.push_back(analyzed[0]);
    }
    // Reference: std::set_intersection over the fully decoded doc ids
    // (an unknown term has no list and empties the intersection).
    std::vector<DocId> expected;
    for (size_t i = 0; i < terms.size(); ++i) {
      std::vector<DocId> docs;
      if (const BlockPostingsList* list = index.GetPostingsList(terms[i])) {
        auto postings = list->DecodeAll();
        ASSERT_TRUE(postings.ok());
        for (const Posting& p : *postings) docs.push_back(p.doc);
      }
      if (i == 0) {
        expected = std::move(docs);
        continue;
      }
      std::vector<DocId> both;
      std::set_intersection(expected.begin(), expected.end(), docs.begin(),
                            docs.end(), std::back_inserter(both));
      expected = std::move(both);
    }

    std::vector<PostingsCursor> cursors;
    for (const auto& t : terms) cursors.push_back(index.OpenCursor(t));
    auto inter = IntersectCursors(std::move(cursors));
    ASSERT_TRUE(inter.ok());
    EXPECT_EQ(*inter, expected);
  }
}

TEST(PostingsOracleTest, SealedStoreWithTinyPoolIsBitIdentical) {
  auto coll = BuildCollection("bm25");
  std::vector<std::vector<SearchHit>> before;
  for (const char* q : kRankedQueries) {
    auto hits = coll->Search(q);
    ASSERT_TRUE(hits.ok());
    before.push_back(std::move(*hits));
  }

  // Seal into a paged file behind a 2-frame pool — far smaller than the
  // postings file, so queries continuously evict and reload pages.
  std::string path = testing::TempDir() + "/sdms_oracle_" +
                     std::to_string(::getpid()) + ".postings";
  ASSERT_TRUE(coll->SealPostings(path, /*pool_pages=*/2).ok());
  const PostingsStore* store = coll->index().store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->pool().capacity(), 2u);
  ASSERT_GT(store->payload_size(), 2 * kPagePayloadBytes)
      << "corpus too small to exercise eviction";

  for (size_t qi = 0; qi < std::size(kRankedQueries); ++qi) {
    auto hits = coll->Search(kRankedQueries[qi]);
    ASSERT_TRUE(hits.ok()) << kRankedQueries[qi];
    ASSERT_EQ(hits->size(), before[qi].size()) << kRankedQueries[qi];
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_EQ((*hits)[i].key, before[qi][i].key);
      EXPECT_EQ((*hits)[i].score, before[qi][i].score);
    }
    ExpectTopKMatchesPrefix(*coll, kRankedQueries[qi]);
  }
  EXPECT_GT(store->pool().evictions(), 0u);

  // Appending after a seal starts fresh resident blocks; queries see
  // both the sealed and the resident postings.
  ASSERT_TRUE(coll->AddDocument("oid:new", "shared topic rare").ok());
  auto hits = coll->Search("shared topic rare", 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  ExpectTopKMatchesPrefix(*coll, "shared topic rare");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sdms::irs
