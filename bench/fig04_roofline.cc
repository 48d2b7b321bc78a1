/**
 * @file
 * Figure 4 reproduction: roofline analysis of LLM decoder operators.
 *
 * Paper's claim: generation-phase Logit/Attend (the MHA GEMVs) are
 * severely memory-bound (intensity < 1 FLOP/byte), while the
 * summarization phase and the batched QKV/Proj/FFN GEMMs are
 * compute-bound; the figure annotates intensities 0.25, 8, 43, 978
 * and 1755 FLOPS/byte for GPT3-13B (bright) and GPT3-175B (dark).
 */

#include <cstdio>

#include "analysis/roofline.h"
#include "core/metrics.h"
#include "model/llm_config.h"

using namespace neupims;

int
main()
{
    analysis::MachineSpec machine;
    std::printf("=== Figure 4: arithmetic intensity of LLM layers ===\n");
    std::printf("machine: %.0f TFLOPS peak, %.0f GB/s -> balance at "
                "%.0f FLOPs/byte\n\n",
                machine.peakTflops, machine.memGBps, machine.balance());

    core::TableWriter table({"model", "batch", "phase", "operators",
                             "FLOPs/byte", "attainable", "bound"},
                            14);
    table.printHeader();

    const int seq_len = 376; // ShareGPT average in+out tokens

    // The paper's Fig. 4 points are per-inference (batch 1); batching
    // rescues only the weight-activation operators (added rows), which
    // is the whole motivation for the NPU/PIM split.
    for (int batch : {1, 256}) {
        for (const auto &cfg : {model::gpt3_13b(), model::gpt3_175b()}) {
            auto points =
                analysis::rooflinePoints(cfg, machine, batch, seq_len);
            for (const auto &p : points) {
                table.printRow(
                    {p.model, std::to_string(batch),
                     p.phase == analysis::Phase::Summarization
                         ? "summarize"
                         : "generate",
                     p.operatorGroup,
                     core::TableWriter::num(p.intensity, 2),
                     core::TableWriter::num(p.attainableTflops, 1),
                     p.memoryBound ? "memory" : "compute"});
            }
        }
    }

    std::printf(
        "\npaper shape: generation Logit/Attend ~0.25-8 FLOPs/byte "
        "(memory-bound)\n"
        "at any batch; summarization and weight GEMMs 43-1755 "
        "(compute-bound);\n"
        "batching rescues QKV/Proj/FFN but never the attention "
        "GEMVs.\n");
    return 0;
}
