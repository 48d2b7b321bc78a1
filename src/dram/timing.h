/**
 * @file
 * HBM timing and organization parameters (paper Table 2).
 *
 * All values are in cycles of the 1 GHz command clock. The data bus
 * moves one 64 B burst per cycle (consistent with tCCD_S = 1 in
 * Table 2), i.e. 64 GB/s per channel and 2 TB/s per 32-channel device.
 */

#ifndef NEUPIMS_DRAM_TIMING_H_
#define NEUPIMS_DRAM_TIMING_H_

#include "common/types.h"

namespace neupims::dram {

struct TimingParams
{
    // --- Table 2: HBM timing parameters (1 GHz command clock) ---
    Cycle tRP = 14;     ///< PRECHARGE to ACTIVATE, same bank
    Cycle tRCD = 14;    ///< ACTIVATE to column command, same bank
    Cycle tRAS = 34;    ///< ACTIVATE to PRECHARGE, same bank
    Cycle tRRD_L = 6;   ///< ACTIVATE to ACTIVATE, same bank group
    Cycle tRRD_S = 4;   ///< ACTIVATE to ACTIVATE, different bank group
    Cycle tWR = 16;     ///< write recovery before PRECHARGE
    Cycle tCCD_S = 1;   ///< column-to-column, different bank group
    Cycle tCCD_L = 2;   ///< column-to-column, same bank group
    Cycle tREFI = 3900; ///< average refresh interval
    Cycle tRFC = 260;   ///< refresh cycle time (all banks busy)
    Cycle tFAW = 30;    ///< four-activate window

    // --- Derived / supplementary timings (standard HBM values) ---
    Cycle tCL = 14;     ///< read column access latency
    Cycle tCWL = 10;    ///< write column access latency
    Cycle tBL = 1;      ///< burst occupancy of the data bus (64 B / cycle)
    Cycle tRTP = 5;     ///< read to precharge

    /** Row cycle: minimum ACT-to-ACT on the same bank. */
    Cycle tRC() const { return tRAS + tRP; }

    // --- PIM datapath timings (Newton-style, see DESIGN.md) ---
    /**
     * Cycles for the per-bank datapath to consume one open row. The
     * command-paced multiplier array reads the 1 KB row buffer in
     * 16-element chunks; 80 cycles per row reproduces Newton-class
     * in-bank GEMV throughput once activation waves overlap compute.
     */
    Cycle pimComputePerRow = 80;
    /**
     * Banks allowed to run their GEMV datapaths concurrently in one
     * channel. All-bank compute draws ~4x the power of a read (§8.2,
     * Table 5 assumption), so the same current budget that caps
     * activations at 4-per-tFAW caps concurrent in-bank compute; 8
     * active banks keeps the channel inside the envelope while mem
     * traffic continues on the other banks.
     */
    int pimParallelBanks = 8;
    /** Cycles a PIM_GWRITE occupies (copy one row to global buffer). */
    Cycle tGWRITE = 18;
    /** C/A bus occupancy of one regular DRAM command (ACT/RD/WR/PRE). */
    Cycle caMemCmd = 1;
    /** C/A bus occupancy of one PIM command (wider encoding, §5.3). */
    Cycle caPimCmd = 4;

    /**
     * Refresh guard used when the controller cannot bound a PIM
     * kernel's latency (no PIM_HEADER, §5.2): no PIM round may start
     * within this window before a pending refresh.
     */
    Cycle refreshGuard = 160;
};

struct Organization
{
    int channels = 32;        ///< HBM channels per device (Table 2)
    int banksPerChannel = 32; ///< banks per channel (Table 2)
    int banksPerGroup = 4;    ///< banks per bank group (Table 2)
    Bytes pageBytes = 1024;   ///< DRAM page (row) size (Table 2: 1 KB)
    Bytes channelCapacity = 1_GiB; ///< capacity per channel (Table 2)
    Bytes burstBytes = 64;    ///< one column access moves 64 B

    int bankGroups() const { return banksPerChannel / banksPerGroup; }
    int burstsPerRow() const
    {
        return static_cast<int>(pageBytes / burstBytes);
    }
    Bytes deviceCapacity() const { return channelCapacity * channels; }
    /** Peak data-bus bandwidth of one channel in bytes per cycle. */
    double bytesPerCycle() const
    {
        return static_cast<double>(burstBytes);
    }
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_TIMING_H_
