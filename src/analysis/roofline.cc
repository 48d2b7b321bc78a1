#include "analysis/roofline.h"

#include <algorithm>

#include "common/log.h"
#include "model/compiler.h"

namespace neupims::analysis {

double
attainable(const MachineSpec &machine, double intensity)
{
    NEUPIMS_ASSERT(intensity >= 0.0);
    return std::min(machine.peakTflops,
                    machine.memGBps * 1e9 * intensity / 1e12);
}

namespace {

RooflinePoint
pointOf(const model::LlmConfig &cfg, const MachineSpec &machine,
        Phase phase, const char *group, double flops, double bytes)
{
    NEUPIMS_ASSERT(bytes > 0.0);
    RooflinePoint p;
    p.model = cfg.name;
    p.operatorGroup = group;
    p.phase = phase;
    p.intensity = flops / bytes;
    p.attainableTflops = attainable(machine, p.intensity);
    p.memoryBound = p.intensity < machine.balance();
    return p;
}

} // namespace

std::vector<RooflinePoint>
rooflinePoints(const model::LlmConfig &cfg, const MachineSpec &machine,
               int batch, int seq_len)
{
    NEUPIMS_ASSERT(batch >= 1 && seq_len >= 1);
    const int tp = 1; // intensity is tp-invariant; use the full model
    const model::Compiler compiler(cfg, tp, model::MemShape{});
    const std::int64_t d = cfg.dModel;
    const std::int64_t heads = cfg.numHeads;
    const std::int64_t head_dim = cfg.headDim();
    const std::int64_t seq = seq_len;

    std::vector<RooflinePoint> points;
    for (Phase phase : {Phase::Summarization, Phase::Generation}) {
        const bool prompt = phase == Phase::Summarization;
        // One request's logit and attend. A prompt batches them into
        // [seq x seq] GEMMs per head against the fresh K/V; a decode
        // step is two GEMVs against the cached K/V (no batching
        // opportunity, §2.1). Each streams its [m x k] operand.
        const npu::GemmShape attention[] = {
            prompt ? npu::GemmShape{seq * heads, head_dim, seq}
                   : npu::GemmShape{seq, d, 1},
            prompt ? npu::GemmShape{seq * heads, seq, head_dim}
                   : npu::GemmShape{d, seq, 1}};
        double flops = 0.0, bytes = 0.0;
        for (const auto &shape : attention) {
            flops += shape.flops() * static_cast<double>(batch);
            bytes += static_cast<double>(shape.m * shape.k * 2) *
                     static_cast<double>(batch);
        }
        points.push_back(
            pointOf(cfg, machine, phase, "Logit/Attend", flops, bytes));

        const model::LayerPlan plan =
            prompt ? compiler.compileLayer(
                         {}, {model::PrefillSliceSpec{0, 0, batch * seq_len}})
                   : compiler.compileLayer(
                         {std::vector<int>(static_cast<std::size_t>(batch),
                                           seq_len)});
        points.push_back(pointOf(
            cfg, machine, phase, "QKV/Proj/FFN", plan.gemmFlops(),
            static_cast<double>(plan.gemmWeightBytes())));
    }
    return points;
}

} // namespace neupims::analysis
