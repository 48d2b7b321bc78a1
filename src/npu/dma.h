/**
 * @file
 * DMA stream engine: converts tensor-level transfers into DRAM
 * row-stream jobs spread over the device's channels.
 *
 * Weight matrices are split evenly across all channels in whole
 * bursts; KV-cache traffic targets the specific channel a
 * request was bin-packed onto. Each channel's share of a transfer is
 * one stream descriptor (dram::MemJob), which its controller expands
 * into row jobs (DESIGN.md §3.5). The engine keeps per-channel bank/row
 * cursors so successive rows rotate banks and the controllers can
 * pipeline activations.
 */

#ifndef NEUPIMS_NPU_DMA_H_
#define NEUPIMS_NPU_DMA_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"
#include "dram/hbm.h"

namespace neupims::npu {

class DmaEngine
{
  public:
    using Callback = std::function<void(Cycle)>;

    DmaEngine(EventQueue &eq, dram::HbmStack &hbm);

    /**
     * Stream @p total bytes across all channels (page-interleaved).
     * @p bursts_per_row caps the row-buffer locality of the stream:
     * 16 for dense weight streams, lower for strided GEMV-style
     * access (the NPU-only attention path).
     * @p on_done fires once when every channel's stream has
     * completed, with the cycle of the last row completion.
     */
    void streamAllChannels(Bytes total, bool write, int bursts_per_row,
                           Callback on_done);

    /**
     * Stream per-channel byte amounts (e.g. KV appends); fires
     * @p on_done after the last channel's last row completes. Entries
     * with zero bytes are skipped.
     */
    void streamPerChannel(const std::vector<Bytes> &bytes_per_channel,
                          bool write, int bursts_per_row,
                          Callback on_done);

    /** Total bytes this engine has issued (for traffic accounting). */
    Bytes issuedBytes() const { return issuedBytes_; }

  private:
    struct Tracker
    {
        int outstanding = 0; ///< channel streams not yet completed
        Cycle last = 0;
        Callback onDone;
    };

    /** The one entry path: one stream descriptor per simulated channel
     * with bytes; a zero-byte transfer completes at once. */
    void launch(const std::vector<Bytes> &bytes_per_channel, bool write,
                int bursts_per_row, Callback on_done);

    EventQueue &eq_;
    dram::HbmStack &hbm_;
    std::vector<int> nextBank_;
    std::vector<int> nextRow_;
    Bytes issuedBytes_ = 0;
};

} // namespace neupims::npu

#endif // NEUPIMS_NPU_DMA_H_
