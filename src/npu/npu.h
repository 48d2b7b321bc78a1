/**
 * @file
 * The NPU chip of one NeuPIMs device: 8 systolic arrays, 8 vector
 * units and a scratchpad (Table 2). The executor's iteration window
 * builds its systolic-array and vector-unit pools from this config.
 */

#ifndef NEUPIMS_NPU_NPU_H_
#define NEUPIMS_NPU_NPU_H_

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

} // namespace neupims::npu

#endif // NEUPIMS_NPU_NPU_H_
