#include "reference.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/string_util.h"

namespace sdms::perfbench {

namespace {

constexpr double kDefaultBelief = 0.4;

// Query vocabulary bands, by Zipf rank of the corpus generator's
// background words: "mid" words occur in a few percent of paragraphs,
// "high" words in most of them (so #odN windows over two high words
// actually match).
constexpr size_t kMidLo = 8;
constexpr size_t kMidHi = 600;
constexpr size_t kHighHi = 12;

}  // namespace

size_t RefCorpus::AddDocument(const sgml::Document& doc) {
  RefDoc d;
  const sgml::ElementNode& root = *doc.root;
  d.docid = root.GetAttribute("DOCID").ok() ? *root.GetAttribute("DOCID") : "";
  auto year = root.GetAttribute("YEAR");
  d.year = year.ok() ? std::stoll(*year) : 0;
  size_t index = docs.size();
  for (const sgml::ElementNode* child : root.ChildElements()) {
    if (child->gi() != "SECTION") continue;
    std::vector<size_t> section;
    for (const sgml::ElementNode* el : child->ChildElements()) {
      if (el->gi() != "PARA") continue;
      RefPara p;
      p.doc = index;
      p.text = el->SubtreeText();
      p.words = static_cast<int64_t>(SplitWhitespace(p.text).size());
      section.push_back(paras.size());
      paras.push_back(std::move(p));
    }
    d.sections.push_back(std::move(section));
  }
  docs.push_back(std::move(d));
  return index;
}

const std::vector<std::string>& Topics() {
  static const std::vector<std::string> topics = {
      "www", "nii", "telnet", "hypertext", "multimedia", "gopher", "mosaic",
      "archie"};
  return topics;
}

sgml::CorpusOptions MakeCorpusOptions(uint64_t seed, size_t num_docs) {
  sgml::CorpusOptions o;
  o.seed = seed;
  o.num_docs = num_docs;
  o.topics = Topics();
  // Every document covers every topic and each paragraph is relevant
  // to a topic independently: topic paragraph counts then vary little
  // between seeds, and so does the cost of the joins over them.
  o.topic_doc_prob = 1.0;
  o.topic_para_prob = 0.05;
  return o;
}

// ---------------------------------------------------------------------------
// Queries

std::string QNode::Render() const {
  switch (op) {
    case Op::kTerm:
      return word;
    case Op::kAnd:
    case Op::kOr:
    case Op::kSum:
    case Op::kOd: {
      std::string out = op == Op::kAnd   ? "#and("
                        : op == Op::kOr  ? "#or("
                        : op == Op::kSum ? "#sum("
                                         : "#od" + std::to_string(window) + "(";
      for (size_t i = 0; i < kids.size(); ++i) {
        if (i > 0) out += " ";
        out += kids[i].Render();
      }
      return out + ")";
    }
  }
  return "";
}

QueryGenerator::QueryGenerator(uint64_t seed,
                               const std::vector<std::string>& vocabulary,
                               const irs::Analyzer& analyzer)
    : rng_(seed), vocabulary_(vocabulary), analyzer_(analyzer) {}

QNode QueryGenerator::Term(const std::string& word) const {
  QNode n;
  n.op = QNode::Op::kTerm;
  n.word = word;
  n.term = analyzer_.AnalyzeTerm(word);
  return n;
}

QNode QueryGenerator::Word(size_t lo_rank, size_t hi_rank) {
  size_t hi = std::min(hi_rank, vocabulary_.size());
  return Term(vocabulary_[lo_rank + rng_.Uniform(hi - lo_rank)]);
}

QNode QueryGenerator::Topic() {
  return Term(Topics()[rng_.Uniform(Topics().size())]);
}

QNode QueryGenerator::Next() {
  for (;;) {
    QNode q;
    uint64_t shape = rng_.Uniform(100);
    auto op = [](QNode::Op o, std::vector<QNode> kids, uint32_t window = 0) {
      QNode n;
      n.op = o;
      n.kids = std::move(kids);
      n.window = window;
      return n;
    };
    if (shape < 35) {
      // #and(topic-or-word word)
      QNode a = rng_.Bernoulli(0.5) ? Topic() : Word(kMidLo, kMidHi);
      q = op(QNode::Op::kAnd, {a, Word(kMidLo, kMidHi)});
    } else if (shape < 65) {
      // #sum(topic word word)
      q = op(QNode::Op::kSum,
             {Topic(), Word(kMidLo, kMidHi), Word(kMidLo, kMidHi)});
    } else if (shape < 85) {
      // #or(word #odN(high high))
      QNode h1 = Word(0, kHighHi);
      QNode h2 = Word(0, kHighHi);
      if (h1.term == h2.term) continue;
      uint32_t n = static_cast<uint32_t>(2 + rng_.Uniform(3));
      q = op(QNode::Op::kOr,
             {Word(kMidLo, kMidHi), op(QNode::Op::kOd, {h1, h2}, n)});
    } else {
      // #and(topic #or(word word))
      q = op(QNode::Op::kAnd,
             {Topic(), op(QNode::Op::kOr,
                          {Word(kMidLo, kMidHi), Word(kMidLo, kMidHi)})});
    }
    // Distinct terms within an operator keep the query meaningful.
    bool distinct = true;
    std::function<void(const QNode&)> check = [&](const QNode& n) {
      std::set<std::string> terms;
      for (const QNode& k : n.kids) {
        if (k.op == QNode::Op::kTerm && !terms.insert(k.term).second) {
          distinct = false;
        }
        check(k);
      }
    };
    check(q);
    if (!distinct) continue;
    if (seen_.insert(q.Render()).second) return q;
  }
}

// ---------------------------------------------------------------------------
// Brute-force scorer

void ReferenceScorer::Add(uint64_t key, const std::string& text) {
  Doc d;
  d.key = key;
  d.tokens = analyzer_.Analyze(text);
  for (uint32_t pos = 0; pos < d.tokens.size(); ++pos) {
    d.positions[d.tokens[pos]].push_back(pos);
  }
  docs_.push_back(std::move(d));
}

uint32_t ReferenceScorer::OrderedMatches(const Doc& d, const QNode& window) {
  // Non-overlapping greedy matches: every occurrence of the first term
  // after the previous match starts a chain that takes, for each next
  // term, its earliest position within `window` after the previous one.
  std::vector<const std::vector<uint32_t>*> lists;
  for (const QNode& k : window.kids) {
    auto it = d.positions.find(k.term);
    if (it == d.positions.end()) return 0;
    lists.push_back(&it->second);
  }
  uint32_t matches = 0;
  int64_t last_end = -1;
  for (uint32_t start : *lists[0]) {
    if (static_cast<int64_t>(start) <= last_end) continue;
    uint32_t prev = start;
    bool ok = true;
    for (size_t t = 1; t < lists.size() && ok; ++t) {
      auto it = std::upper_bound(lists[t]->begin(), lists[t]->end(), prev);
      if (it == lists[t]->end() || *it > prev + window.window) {
        ok = false;
      } else {
        prev = *it;
      }
    }
    if (ok) {
      ++matches;
      last_end = prev;
    }
  }
  return matches;
}

void ReferenceScorer::CollectWindows(const QNode& node, Stats& st) const {
  if (node.op == QNode::Op::kOd) {
    auto& tf = st.window_tf[&node];
    for (size_t i = 0; i < docs_.size(); ++i) {
      uint32_t m = OrderedMatches(docs_[i], node);
      if (m > 0) tf[i] = m;
    }
    st.window_df[&node] = tf.size();
    return;
  }
  if (node.op == QNode::Op::kTerm && st.df.count(node.term) == 0) {
    uint64_t df = 0;
    for (const Doc& d : docs_) df += d.positions.count(node.term);
    st.df[node.term] = df;
  }
  for (const QNode& k : node.kids) CollectWindows(k, st);
}

bool ReferenceScorer::HasEvidence(const QNode& node, size_t doc,
                                  const Stats& st) const {
  if (node.op == QNode::Op::kOd) {
    return st.window_tf.at(&node).count(doc) > 0;
  }
  if (node.op == QNode::Op::kTerm) {
    return docs_[doc].positions.count(node.term) > 0;
  }
  for (const QNode& k : node.kids) {
    if (HasEvidence(k, doc, st)) return true;
  }
  return false;
}

double ReferenceScorer::Belief(const QNode& node, size_t doc,
                               const Stats& st) const {
  const double dl = static_cast<double>(docs_[doc].tokens.size());
  auto belief = [&](double tf, double df) {
    double ntf = tf / (tf + 0.5 + 1.5 * dl / st.avgdl);
    double nidf = std::log((st.n + 0.5) / std::max(df, 1.0)) /
                  std::log(st.n + 1.0);
    nidf = std::max(0.0, std::min(1.0, nidf));
    return kDefaultBelief + (1.0 - kDefaultBelief) * ntf * nidf;
  };
  switch (node.op) {
    case QNode::Op::kTerm: {
      auto it = docs_[doc].positions.find(node.term);
      if (it == docs_[doc].positions.end()) return kDefaultBelief;
      return belief(static_cast<double>(it->second.size()),
                    static_cast<double>(st.df.at(node.term)));
    }
    case QNode::Op::kOd: {
      const auto& tf = st.window_tf.at(&node);
      auto it = tf.find(doc);
      if (it == tf.end()) return kDefaultBelief;
      return belief(static_cast<double>(it->second),
                    static_cast<double>(st.window_df.at(&node)));
    }
    case QNode::Op::kAnd: {
      double b = 1.0;
      for (const QNode& k : node.kids) b *= Belief(k, doc, st);
      return b;
    }
    case QNode::Op::kOr: {
      double b = 1.0;
      for (const QNode& k : node.kids) b *= 1.0 - Belief(k, doc, st);
      return 1.0 - b;
    }
    case QNode::Op::kSum: {
      double sum = 0.0;
      for (const QNode& k : node.kids) sum += Belief(k, doc, st);
      return sum / static_cast<double>(node.kids.size());
    }
  }
  return kDefaultBelief;
}

std::map<uint64_t, double> ReferenceScorer::Score(const QNode& query) const {
  Stats st;
  uint64_t total_tokens = 0;
  for (const Doc& d : docs_) total_tokens += d.tokens.size();
  st.n = std::max<double>(static_cast<double>(docs_.size()), 1.0);
  st.avgdl = docs_.empty() ? 1e-9
                           : std::max(static_cast<double>(total_tokens) /
                                          static_cast<double>(docs_.size()),
                                      1e-9);
  CollectWindows(query, st);
  std::map<uint64_t, double> out;
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (HasEvidence(query, i, st)) out[docs_[i].key] = Belief(query, i, st);
  }
  return out;
}

double ReferenceScorer::NullScore(const QNode& query) {
  switch (query.op) {
    case QNode::Op::kTerm:
    case QNode::Op::kOd:
      return kDefaultBelief;
    case QNode::Op::kAnd: {
      double b = 1.0;
      for (const QNode& k : query.kids) b *= NullScore(k);
      return b;
    }
    case QNode::Op::kOr: {
      double b = 1.0;
      for (const QNode& k : query.kids) b *= 1.0 - NullScore(k);
      return 1.0 - b;
    }
    case QNode::Op::kSum: {
      double sum = 0.0;
      for (const QNode& k : query.kids) sum += NullScore(k);
      return sum / static_cast<double>(query.kids.size());
    }
  }
  return kDefaultBelief;
}

}  // namespace sdms::perfbench
