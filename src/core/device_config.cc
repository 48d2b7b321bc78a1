#include "core/device_config.h"

namespace neupims::core {

DeviceConfig
DeviceConfig::npuOnly()
{
    DeviceConfig cfg;
    cfg.name = "NPU-only";
    cfg.kind = SystemKind::NpuOnly;
    // Plain HBM: no PIM row buffers; flags stay false.
    return cfg;
}

DeviceConfig
DeviceConfig::naiveNpuPim()
{
    DeviceConfig cfg;
    cfg.name = "NPU+PIM";
    cfg.kind = SystemKind::NpuPim;
    // Blocked Newton-style PIM: single row buffer, fine-grained
    // PIM_DOTPRODUCT command streams, round-robin channel allocation,
    // no interleaving.
    return cfg;
}

DeviceConfig
DeviceConfig::neuPims()
{
    DeviceConfig cfg;
    cfg.name = "NeuPIMs";
    cfg.kind = SystemKind::NpuPim;
    cfg.flags.dualRowBuffers = true;
    cfg.flags.minLoadPacking = true;
    cfg.flags.subBatchInterleaving = true;
    cfg.flags.prefetchDuringMha = true;
    return cfg;
}

DeviceConfig
DeviceConfig::ablation(bool drb, bool gmlbp, bool sbi)
{
    DeviceConfig cfg = naiveNpuPim();
    cfg.name = "NPU+PIM";
    if (drb) {
        cfg.name += "+DRB";
        cfg.flags.dualRowBuffers = true;
        cfg.flags.prefetchDuringMha = true;
    }
    if (gmlbp) {
        cfg.name += "+GMLBP";
        cfg.flags.minLoadPacking = true;
    }
    if (sbi) {
        cfg.name += "+SBI";
        cfg.flags.subBatchInterleaving = true;
        cfg.sbiMinBatch = 0; // the ablation measures forced SBI
    }
    return cfg;
}

} // namespace neupims::core
