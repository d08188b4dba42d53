#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/query_context.h"
#include "irs/index/proximity.h"
#include "irs/model/retrieval_model.h"

namespace sdms::irs {

namespace {

/// INQUERY-style inference-network model (Turtle/Croft). Term beliefs
/// follow the INQUERY formula
///     bel(t, d) = db + (1 - db) * ntf * nidf
/// with ntf = tf / (tf + 0.5 + 1.5 * dl/avgdl) and
///      nidf = log((N + 0.5) / df) / log(N + 1),
/// and documents not containing a term contribute the default belief
/// `db` (0.4). Operator semantics match the INQUERY operators the
/// paper re-implements in the DBMS (Section 4.5.4): #and is the
/// product, #or the complement product, #not the complement, #sum the
/// mean, #wsum the weighted mean, #max the maximum.
class InferenceNetModel : public RetrievalModel {
 public:
  explicit InferenceNetModel(double default_belief)
      : default_belief_(default_belief) {}

  std::string name() const override { return "inquery"; }

  StatusOr<ScoreMap> Score(const InvertedIndex& index, const QueryNode& query,
                           const CorpusStats* corpus) const override {
    // Window (#odN/#uwN) nodes: precompute match frequencies once.
    WindowCache window_cache;
    SDMS_RETURN_IF_ERROR(CollectWindows(index, query, window_cache));

    // Candidate generation: every document providing evidence for some
    // evidence node — containing a plain query term, or matching a
    // window expression. Other documents keep the all-default belief,
    // which is constant across documents and rank-irrelevant. One
    // document-at-a-time pass merges a cursor per distinct evidence
    // term with the sorted window-match documents; each term node
    // reads the current document's tf from its term's slot.
    TermSlots slots;
    std::vector<DocId> window_docs;
    CollectEvidence(index, query, corpus, window_cache, slots, window_docs);
    std::sort(window_docs.begin(), window_docs.end());
    window_docs.erase(std::unique(window_docs.begin(), window_docs.end()),
                      window_docs.end());

    ScoreMap out;
    size_t evidence = window_docs.size();
    for (const PostingsCursor& c : slots.cursors) evidence += c.size();
    out.reserve(evidence);
    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    const double avgdl = std::max(corpus != nullptr ? corpus->avg_doc_length()
                                                    : index.avg_doc_length(),
                                  1e-9);
    size_t next_window = 0;
    size_t steps = 0;
    while (true) {
      // The per-candidate belief walk is the scoring hot loop; stop
      // promptly once the query's deadline/cancellation fires.
      if (++steps % 256 == 0 && QueryShouldStop()) {
        return CurrentQueryStatus();
      }
      // Next candidate: the smallest document under any cursor or
      // window match.
      bool have = next_window < window_docs.size();
      DocId d = have ? window_docs[next_window] : 0;
      for (PostingsCursor& c : slots.cursors) {
        if (c.AtEnd()) continue;
        DocId cd = c.doc();
        if (c.AtEnd()) return c.status();  // decode failure latched
        if (!have || cd < d) {
          d = cd;
          have = true;
        }
      }
      if (!have) break;
      if (next_window < window_docs.size() && window_docs[next_window] == d) {
        ++next_window;
      }
      for (size_t i = 0; i < slots.cursors.size(); ++i) {
        PostingsCursor& c = slots.cursors[i];
        slots.tf[i] = 0;
        if (!c.AtEnd() && c.doc() == d) {
          slots.tf[i] = c.tf();
          c.Next();
        }
      }
      if (!index.IsAlive(d)) continue;  // tombstoned, awaiting compaction
      auto info = index.GetDoc(d);
      double dl = info.ok() ? static_cast<double>((*info)->length) : avgdl;
      out[d] = Belief(query, d, dl, n, avgdl, slots, window_cache, corpus);
    }
    return out;
  }

 private:
  using WindowCache = std::map<const QueryNode*, std::map<DocId, uint32_t>>;

  /// One slot per distinct evidence term: its cursor, its df and the
  /// current document's tf (0 when the document lacks the term).
  struct TermSlots {
    std::vector<PostingsCursor> cursors;
    std::vector<uint64_t> df;
    std::vector<uint32_t> tf;
    std::unordered_map<std::string, size_t> by_term;
    std::unordered_map<const QueryNode*, size_t> by_node;
  };

  static void CollectEvidence(const InvertedIndex& index,
                              const QueryNode& node, const CorpusStats* corpus,
                              const WindowCache& window_cache,
                              TermSlots& slots,
                              std::vector<DocId>& window_docs) {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      auto it = window_cache.find(&node);
      if (it != window_cache.end()) {
        for (const auto& [doc, tf] : it->second) window_docs.push_back(doc);
      }
      return;  // Terms in a window contribute via matches.
    }
    if (node.op == QueryOp::kTerm) {
      // A repeated query term shares its first occurrence's slot.
      auto [it, fresh] =
          slots.by_term.emplace(node.term, slots.cursors.size());
      if (fresh) {
        slots.cursors.push_back(index.OpenCursor(node.term));
        slots.df.push_back(corpus != nullptr ? corpus->Df(node.term)
                                             : index.DocFreq(node.term));
        slots.tf.push_back(0);
      }
      slots.by_node[&node] = it->second;
      return;
    }
    for (const auto& c : node.children) {
      CollectEvidence(index, *c, corpus, window_cache, slots, window_docs);
    }
  }

  static Status CollectWindows(const InvertedIndex& index,
                               const QueryNode& node, WindowCache& cache) {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      std::vector<std::string> terms;
      node.CollectTerms(terms);
      SDMS_ASSIGN_OR_RETURN(
          cache[&node],
          WindowMatchFrequencies(index, terms, node.op == QueryOp::kOdn,
                                 node.window));
      return Status::OK();
    }
    for (const auto& c : node.children) {
      SDMS_RETURN_IF_ERROR(CollectWindows(index, *c, cache));
    }
    return Status::OK();
  }

  double TermBelief(const QueryNode& node, double dl, double n, double avgdl,
                    const TermSlots& slots) const {
    size_t slot = slots.by_node.at(&node);
    uint32_t tf = slots.tf[slot];
    if (tf == 0) return default_belief_;
    uint64_t df = slots.df[slot];
    double ntf = static_cast<double>(tf) /
                 (static_cast<double>(tf) + 0.5 + 1.5 * dl / avgdl);
    double nidf = std::log((n + 0.5) / std::max<double>(df, 1.0)) /
                  std::log(n + 1.0);
    nidf = std::max(0.0, std::min(1.0, nidf));
    return default_belief_ + (1.0 - default_belief_) * ntf * nidf;
  }

  double Belief(const QueryNode& node, DocId doc, double dl, double n,
                double avgdl, const TermSlots& slots,
                const WindowCache& window_cache,
                const CorpusStats* corpus) const {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      // Window belief: the matches behave like occurrences of a pseudo
      // term whose df is the number of matching documents — summed
      // over every shard when corpus statistics are injected (the
      // local cache only sees this shard's matches).
      auto it = window_cache.find(&node);
      if (it == window_cache.end()) return default_belief_;
      auto dit = it->second.find(doc);
      if (dit == it->second.end()) return default_belief_;
      double tf = static_cast<double>(dit->second);
      double df = corpus != nullptr
                      ? static_cast<double>(corpus->WindowDf(&node))
                      : static_cast<double>(it->second.size());
      double ntf = tf / (tf + 0.5 + 1.5 * dl / avgdl);
      double nidf =
          std::log((n + 0.5) / std::max(df, 1.0)) / std::log(n + 1.0);
      nidf = std::max(0.0, std::min(1.0, nidf));
      return default_belief_ + (1.0 - default_belief_) * ntf * nidf;
    }
    switch (node.op) {
      case QueryOp::kTerm:
        return TermBelief(node, dl, n, avgdl, slots);
      case QueryOp::kAnd: {
        double b = 1.0;
        for (const auto& c : node.children) {
          b *= Belief(*c, doc, dl, n, avgdl, slots, window_cache, corpus);
        }
        return node.children.empty() ? default_belief_ : b;
      }
      case QueryOp::kOr: {
        double b = 1.0;
        for (const auto& c : node.children) {
          b *= 1.0 - Belief(*c, doc, dl, n, avgdl, slots, window_cache,
                            corpus);
        }
        return node.children.empty() ? default_belief_ : 1.0 - b;
      }
      case QueryOp::kNot:
        return node.children.empty()
                   ? default_belief_
                   : 1.0 - Belief(*node.children[0], doc, dl, n, avgdl,
                                  slots, window_cache, corpus);
      case QueryOp::kSum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        for (const auto& c : node.children) {
          sum += Belief(*c, doc, dl, n, avgdl, slots, window_cache, corpus);
        }
        return sum / static_cast<double>(node.children.size());
      }
      case QueryOp::kWsum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        double wsum = 0.0;
        for (size_t i = 0; i < node.children.size(); ++i) {
          double w = i < node.weights.size() ? node.weights[i] : 1.0;
          sum += w * Belief(*node.children[i], doc, dl, n, avgdl, slots,
                            window_cache, corpus);
          wsum += w;
        }
        return wsum > 0.0 ? sum / wsum : 0.0;
      }
      case QueryOp::kMax: {
        double best = 0.0;
        for (const auto& c : node.children) {
          best = std::max(best, Belief(*c, doc, dl, n, avgdl, slots,
                                       window_cache, corpus));
        }
        return best;
      }
      case QueryOp::kOdn:
      case QueryOp::kUwn:
        // Handled by the window branch above; unreachable here.
        return default_belief_;
    }
    return default_belief_;
  }

  double default_belief_;
};

}  // namespace

std::unique_ptr<RetrievalModel> MakeInferenceNetModel(double default_belief) {
  return std::make_unique<InferenceNetModel>(default_belief);
}

StatusOr<std::unique_ptr<RetrievalModel>> MakeModel(const std::string& name) {
  if (name == "boolean") return MakeBooleanModel();
  if (name == "vsm") return MakeVectorSpaceModel();
  if (name == "bm25") return MakeBm25Model();
  if (name == "inquery") return MakeInferenceNetModel();
  return Status::InvalidArgument("unknown retrieval model: " + name);
}

}  // namespace sdms::irs
