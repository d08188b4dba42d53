#ifndef SDMS_PERFBENCH_REFERENCE_H_
#define SDMS_PERFBENCH_REFERENCE_H_

// The benchmark's independent view of its inputs: the generated corpus
// as a plain tree (documents, sections, paragraphs, YEAR, DOCID, next
// sibling), the seeded INQUERY query generator, and a brute-force
// inference-network scorer that recomputes beliefs from per-paragraph
// term counts. Output checks compare the system's answers against
// these, never against stored output.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "irs/analysis/analyzer.h"
#include "sgml/corpus/generator.h"

namespace sdms::perfbench {

/// One paragraph of the generated corpus.
struct RefPara {
  size_t doc = 0;
  std::string text;
  /// Whitespace-separated words (what VQL length() counts).
  int64_t words = 0;
};

/// One document: attributes and paragraph indices per section, in
/// document order.
struct RefDoc {
  std::string docid;
  int64_t year = 0;
  std::vector<std::vector<size_t>> sections;
};

/// The corpus as the benchmark generated it (SGML side only).
struct RefCorpus {
  std::vector<RefDoc> docs;
  std::vector<RefPara> paras;
  /// Appends `doc`'s structure; returns the document index.
  size_t AddDocument(const sgml::Document& doc);
};

/// Topic terms planted by every workload's corpus.
const std::vector<std::string>& Topics();

/// Corpus options shared by the workloads (`num_docs` varies).
sgml::CorpusOptions MakeCorpusOptions(uint64_t seed, size_t num_docs);

/// An INQUERY query tree as the benchmark builds it: terms are the raw
/// words written into the query string; `term` holds their analyzed
/// (index) form.
struct QNode {
  enum class Op { kTerm, kAnd, kOr, kSum, kOd };
  Op op = Op::kTerm;
  std::string word;
  std::string term;
  uint32_t window = 0;
  std::vector<QNode> kids;

  std::string Render() const;
};

/// Seeded generator of distinct content queries: #and / #sum / #or
/// with #odN windows over background vocabulary plus planted topics.
class QueryGenerator {
 public:
  QueryGenerator(uint64_t seed, const std::vector<std::string>& vocabulary,
                 const irs::Analyzer& analyzer);

  /// Next query; never repeats a previously returned rendering.
  QNode Next();
  /// A one-term query.
  QNode Term(const std::string& word) const;

 private:
  QNode Word(size_t lo_rank, size_t hi_rank);
  QNode Topic();

  Rng rng_;
  std::vector<std::string> vocabulary_;
  const irs::Analyzer& analyzer_;
  std::unordered_set<std::string> seen_;
};

/// Brute-force INQUERY scorer over a set of keyed texts. Tokens come
/// from the collection's analyzer; document frequencies, window
/// matches, term beliefs 0.4 + 0.6 * ntf * nidf and the #and / #or /
/// #sum combinators are recomputed here from the token lists.
class ReferenceScorer {
 public:
  explicit ReferenceScorer(const irs::Analyzer& analyzer)
      : analyzer_(analyzer) {}

  void Add(uint64_t key, const std::string& text);
  size_t size() const { return docs_.size(); }

  /// Beliefs of every document with evidence for the query (a plain
  /// query term, or a window match) — the documents the IRS returns.
  std::map<uint64_t, double> Score(const QNode& query) const;

  /// The query's belief for a document with no evidence at all.
  static double NullScore(const QNode& query);

 private:
  struct Doc {
    uint64_t key = 0;
    std::vector<std::string> tokens;
    std::unordered_map<std::string, std::vector<uint32_t>> positions;
  };
  struct Stats {
    double n = 0;
    double avgdl = 0;
    std::map<const QNode*, std::map<size_t, uint32_t>> window_tf;
    std::map<const QNode*, uint64_t> window_df;
    std::unordered_map<std::string, uint64_t> df;
  };

  static uint32_t OrderedMatches(const Doc& d, const QNode& window);
  void CollectWindows(const QNode& node, Stats& st) const;
  double Belief(const QNode& node, size_t doc, const Stats& st) const;
  bool HasEvidence(const QNode& node, size_t doc, const Stats& st) const;

  const irs::Analyzer& analyzer_;
  std::vector<Doc> docs_;
};

}  // namespace sdms::perfbench

#endif  // SDMS_PERFBENCH_REFERENCE_H_
