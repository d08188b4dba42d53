#ifndef SDMS_IRS_INDEX_POSTINGS_KERNELS_H_
#define SDMS_IRS_INDEX_POSTINGS_KERNELS_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "irs/index/inverted_index.h"

namespace sdms::irs {

/// Conjunction kernels over block-compressed postings lists, read
/// through PostingsCursor: the rarest list drives and the others
/// SkipTo each of its documents, galloping over block last_doc
/// metadata, so blocks that cannot contain a common document are never
/// decoded. They back boolean #and over terms and candidate generation
/// for the #odN/#uwN windows. Disjunctive scoring (the inference net,
/// BM25, VSM) runs its own document-at-a-time loop over the same
/// cursors; PostingsCursor is the only postings read path.

/// Conjunction over block cursors, driving a visitor: `visit(doc)` is
/// invoked for every doc present in all lists, with every cursor in
/// `cursors` positioned on that doc — so the visitor can read tf() /
/// positions() directly (the proximity operators do). The rarest list
/// drives; the others SkipTo over it, skipping undecoded blocks.
/// Cancellation returns OK with a partial visit sequence (the caller
/// re-checks its QueryContext); a block decode failure returns that
/// error. Empty `cursors` visits nothing.
Status IntersectCursorsVisit(std::vector<PostingsCursor>& cursors,
                             const std::function<void(DocId)>& visit);

/// Documents present in *every* cursor's list (ascending).
StatusOr<std::vector<DocId>> IntersectCursors(
    std::vector<PostingsCursor> cursors);

}  // namespace sdms::irs

#endif  // SDMS_IRS_INDEX_POSTINGS_KERNELS_H_
