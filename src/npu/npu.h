/**
 * @file
 * The NPU chip of one NeuPIMs device: 8 systolic arrays, 8 vector
 * units and a scratchpad (Table 2), plus the accounting behind the
 * executor's utilization numbers (Table 4, Figure 6): useful FLOPs
 * for the systolic arrays and busy cycles for the vector units.
 */

#ifndef NEUPIMS_NPU_NPU_H_
#define NEUPIMS_NPU_NPU_H_

#include "common/stats.h"
#include "common/types.h"
#include "npu/systolic_array.h"
#include "npu/vector_unit.h"

namespace neupims::npu {

struct NpuConfig
{
    SystolicArrayConfig sa;       ///< 128 x 128 (Table 2)
    int systolicArrays = 8;       ///< per chip (Table 2)
    VectorUnitConfig vu;          ///< 128-lane SIMD (Table 2)
    int vectorUnits = 8;          ///< per chip (Table 2)
    Bytes scratchpadBytes = 32_MiB; ///< on-chip SPM (double-buffered)
};

class Npu
{
  public:
    explicit Npu(const NpuConfig &cfg)
        : cfg_(cfg), saPool_(cfg.sa, cfg.systolicArrays),
          vuPool_(cfg.vu, cfg.vectorUnits)
    {}

    const NpuConfig &config() const { return cfg_; }
    const SystolicArrayPool &systolicArrays() const { return saPool_; }
    const VectorUnitPool &vectorUnits() const { return vuPool_; }

    /** Peak GEMM throughput in FLOPs per cycle (all arrays). */
    double
    peakFlopsPerCycle() const
    {
        return saPool_.peakFlopsPerCycle();
    }

    /** Cycles to run @p shape using all systolic arrays. */
    Cycle
    gemmCycles(const GemmShape &shape) const
    {
        return saPool_.gemmCycles(shape);
    }

    // --- accounting -----------------------------------------------------

    /** Record the useful FLOPs of a GEMM. */
    void recordGemm(Flops flops) { flopsExecuted_.add(flops); }

    /** Record vector-unit occupancy. */
    void
    recordVector(Cycle start, Cycle end)
    {
        vuBusy_.addBusy(start, end);
    }

    UtilizationTracker &vuBusy() { return vuBusy_; }
    const Scalar &flopsExecuted() const { return flopsExecuted_; }

  private:
    NpuConfig cfg_;
    SystolicArrayPool saPool_;
    VectorUnitPool vuPool_;

    UtilizationTracker vuBusy_;
    Scalar flopsExecuted_;
};

} // namespace neupims::npu

#endif // NEUPIMS_NPU_NPU_H_
