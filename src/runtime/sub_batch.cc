#include "runtime/sub_batch.h"

#include "common/log.h"

namespace neupims::runtime {

void
partitionSubBatches(const std::vector<std::vector<Request *>> &per_channel,
                    SubBatches &out)
{
    out.sb1.resize(per_channel.size());
    out.sb2.resize(per_channel.size());

    // Algorithm 3: halve each channel's request list; when the count
    // is odd, alternate (`turn`) which sub-batch gets the extra
    // request so the totals stay within one of each other.
    bool turn = true;
    for (std::size_t ch = 0; ch < per_channel.size(); ++ch) {
        const auto &reqs = per_channel[ch];
        std::size_t bsize = reqs.size() / 2;
        if (reqs.size() % 2 != 0) {
            bsize = turn ? bsize + 1 : bsize;
            turn = !turn;
        }
        out.sb1[ch].assign(reqs.begin(), reqs.begin() + bsize);
        out.sb2[ch].assign(reqs.begin() + bsize, reqs.end());
    }
}

void
groupByChannel(const std::vector<Request *> &requests, int channels,
               std::vector<std::vector<Request *>> &grouped)
{
    NEUPIMS_ASSERT(channels >= 1);
    grouped.resize(static_cast<std::size_t>(channels));
    for (auto &list : grouped)
        list.clear();
    for (Request *req : requests) {
        NEUPIMS_ASSERT(req->channel >= 0 && req->channel < channels,
                       "request ", req->id, " has no channel");
        grouped[req->channel].push_back(req);
    }
}

} // namespace neupims::runtime
