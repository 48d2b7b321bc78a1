/**
 * @file
 * Micron-style DRAM power model (paper §8.2, Table 5).
 *
 * Average power is composed of (a) background power — which grows
 * when banks carry a second row buffer whose state must be held
 * (paper: "the additional row buffer requires DRAM to consume more
 * background power") — and (b) per-command energies in the style of
 * the Micron DDR power model shipped with DRAMsim3: activate/
 * precharge pair energy, read/write burst energy, refresh energy, and
 * in-bank PIM compute, which the paper models as drawing 4x the power
 * of a read command for its duration.
 */

#ifndef NEUPIMS_DRAM_POWER_MODEL_H_
#define NEUPIMS_DRAM_POWER_MODEL_H_

#include "common/types.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace neupims::dram {

struct PowerParams
{
    // Background power per channel, milliwatts.
    double backgroundMw = 95.0;
    /** Extra background per channel to hold the second row buffer. */
    double dualBufferBackgroundMw = 28.0;

    // Per-event energies, picojoules (Micron-model style, calibrated
    // so the Table-5 bench lands at the paper's 364 mW HBM baseline;
    // see EXPERIMENTS.md).
    double actPrePj = 800.0;    ///< one activate/precharge pair
    double readBurstPj = 620.0;   ///< one 64 B read burst
    double writeBurstPj = 680.0;  ///< one 64 B write burst
    double refreshPj = 25000.0;   ///< one all-bank refresh
    double gwritePj = 550.0;      ///< row -> global buffer copy

    /**
     * PIM compute draws pimComputeFactor x the instantaneous power of
     * a read command while the adder tree runs (paper assumption).
     * Read power is readBurstPj / tBL per cycle.
     */
    double pimComputeFactor = 4.0;

    /**
     * Fraction of a read command's power that is array-internal (the
     * rest drives I/O, which in-bank compute never pays): the 4x
     * factor applies only to this portion. 1/40 of burst power per
     * bank-cycle calibrates the dual-row-buffer PIM to the paper's
     * 635 mW (Table 5).
     */
    double pimArrayEnergyDivisor = 40.0;
};

/** Aggregated activity of one channel over a measurement window. */
struct ChannelActivity
{
    Cycle windowCycles = 0;
    CommandCounts counts;
    Cycle pimBankBusyCycles = 0; ///< sum over banks of compute cycles
    bool dualRowBuffers = false;
};

class PowerModel
{
  public:
    PowerModel(const PowerParams &params, const TimingParams &timing)
        : params_(params), timing_(timing)
    {}

    /** Dynamic energy of the window, picojoules. */
    double energyPj(const ChannelActivity &a) const;

    /** Average power over the window, milliwatts (incl. background). */
    double averagePowerMw(const ChannelActivity &a) const;

    const PowerParams &params() const { return params_; }

  private:
    PowerParams params_;
    TimingParams timing_;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_POWER_MODEL_H_
