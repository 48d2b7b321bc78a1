/**
 * @file
 * Algorithm 3: sub-batch partitioning.
 *
 * Sub-batch interleaving pipelines two independent sub-batches on one
 * NeuPIMs device; the stage time is bound by the slower sub-batch, so
 * the partitioner halves each channel's request set and alternates
 * which sub-batch receives the odd request (the paper's `turn` flag),
 * keeping both total batch size and per-channel PIM load balanced.
 */

#ifndef NEUPIMS_RUNTIME_SUB_BATCH_H_
#define NEUPIMS_RUNTIME_SUB_BATCH_H_

#include <vector>

#include "runtime/request.h"

namespace neupims::runtime {

struct SubBatches
{
    /** Requests per channel for each sub-batch: [channel] -> list. */
    std::vector<std::vector<Request *>> sb1;
    std::vector<std::vector<Request *>> sb2;

    int
    sizeOf(const std::vector<std::vector<Request *>> &sb) const
    {
        int n = 0;
        for (const auto &ch : sb)
            n += static_cast<int>(ch.size());
        return n;
    }

    int size1() const { return sizeOf(sb1); }
    int size2() const { return sizeOf(sb2); }
};

/**
 * Partition each channel's active request list into two sub-batches
 * (Algorithm 3), written into @p out. Requests keep their channel
 * assignment; only the sub-batch membership is decided here. @p out's
 * per-channel lists are cleared, not freed, so a caller that keeps
 * @p out across iterations reuses their storage.
 */
void partitionSubBatches(
    const std::vector<std::vector<Request *>> &per_channel,
    SubBatches &out);

/** Group a flat request list by its channel field into @p grouped
 * (resized to @p channels; its lists keep their storage). */
void groupByChannel(const std::vector<Request *> &requests, int channels,
                    std::vector<std::vector<Request *>> &grouped);

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_SUB_BATCH_H_
