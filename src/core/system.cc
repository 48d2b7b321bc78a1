#include "core/system.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::core {

MultiDeviceSystem::MultiDeviceSystem(const DeviceConfig &device,
                                     const model::LlmConfig &model,
                                     const ParallelismConfig &par)
    : device_(device), model_(model), par_(par)
{
    NEUPIMS_ASSERT(par_.tp >= 1 && par_.pp >= 1);
    NEUPIMS_ASSERT(model_.numHeads % par_.tp == 0,
                   "tp must divide heads");
    NEUPIMS_ASSERT(model_.numLayers % par_.pp == 0,
                   "pp must divide layers");
}

SystemResult
MultiDeviceSystem::run(
    const std::vector<runtime::SequenceSample> &requests,
    int window_layers, int warmup_layers)
{
    NEUPIMS_ASSERT(!requests.empty());

    // Pipeline parallelism splits the batch into pp micro-batches.
    int micro = std::max<int>(
        1, static_cast<int>(requests.size()) / par_.pp);
    std::vector<runtime::SequenceSample> micro_batch(
        requests.begin(), requests.begin() + micro);

    auto est = latencyParamsFor(device_, model_, par_.tp);
    BatchComposition comp =
        buildComposition(micro_batch, device_.org.channels,
                         device_.flags.minLoadPacking, est);

    DeviceExecutor exec(device_, model_, par_.tp,
                        model_.layersPerDevice(par_.pp));
    IterationResult dev = exec.runIteration(comp, window_layers,
                                            warmup_layers);

    // Tensor-parallel all-reduce: two per layer over the [B, d]
    // activation panel; ring all-reduce moves 2 (tp-1)/tp of the
    // panel per device.
    Cycle comm = 0;
    if (par_.tp > 1) {
        double panel_bytes = static_cast<double>(micro) *
                             static_cast<double>(model_.dModel) * 2.0;
        double ring_factor =
            2.0 * static_cast<double>(par_.tp - 1) /
            static_cast<double>(par_.tp);
        double bytes = 2.0 /*allreduces*/ * panel_bytes * ring_factor;
        double seconds = bytes / (par_.interconnectGBps * 1e9);
        comm = static_cast<Cycle>(seconds * 1e9); // 1 GHz cycles
        if (device_.flags.subBatchInterleaving) {
            // One sub-batch communicates while the other computes
            // (§7.2); only the excess beyond half a layer period is
            // exposed.
            Cycle overlap_window = dev.perLayerCycles / 2;
            comm = comm > overlap_window ? comm - overlap_window : 0;
        }
    }

    Cycle iteration =
        dev.iterationCycles +
        comm * static_cast<Cycle>(model_.layersPerDevice(par_.pp));

    SystemResult res;
    res.devices = par_.devices();
    res.perDeviceBatch = micro;
    res.commCyclesPerLayer = comm;
    res.device = dev;
    // Steady-state pipeline: the system emits one micro-batch's
    // tokens per stage time; with pp micro-batches in flight, the
    // full batch advances one token every stage iteration.
    res.tokensPerSec = static_cast<double>(micro) /
                       cyclesToSeconds(iteration);
    return res;
}

} // namespace neupims::core
