/**
 * @file
 * Roofline / arithmetic-intensity analysis of LLM decoder operators
 * (paper Figure 4): generation-phase Logit/Attend GEMVs sit far left
 * of the machine balance point (memory-bound), summarization-phase
 * and batched weight-activation operators sit right of it
 * (compute-bound).
 */

#ifndef NEUPIMS_ANALYSIS_ROOFLINE_H_
#define NEUPIMS_ANALYSIS_ROOFLINE_H_

#include <string>
#include <vector>

#include "model/llm_config.h"

namespace neupims::analysis {

enum class Phase
{
    Summarization, ///< prompt encoding: everything batches into GEMMs
    Generation,    ///< autoregressive decode: MHA degrades to GEMVs
};

struct MachineSpec
{
    std::string name = "NeuPIMs-NPU";
    double peakTflops = 262.0;  ///< 8 x 128x128 MACs @ 1 GHz, fp16
    double memGBps = 2048.0;    ///< 32 channels x 64 GB/s

    /** Arithmetic intensity at the roofline knee (FLOPs/byte). */
    double
    balance() const
    {
        return peakTflops * 1e12 / (memGBps * 1e9);
    }
};

struct RooflinePoint
{
    std::string model;
    std::string operatorGroup; ///< "Logit/Attend" or "QKV/Proj/FFN"
    Phase phase;
    double intensity = 0.0;     ///< FLOPs per byte
    double attainableTflops = 0.0;
    bool memoryBound = false;
};

/**
 * Arithmetic intensity of the two operator groups of a decoder block
 * for both phases (Fig. 4's four point clusters per model). The weight
 * GEMMs are model::Compiler's: a decode batch of @p batch rows for
 * generation, one prefill slice of batch x seq_len prompt tokens for
 * summarization.
 *
 * @param batch batched requests (generation) / prompts (summarization)
 * @param seq_len context length
 */
std::vector<RooflinePoint> rooflinePoints(const model::LlmConfig &cfg,
                                          const MachineSpec &machine,
                                          int batch, int seq_len);

/** Attainable TFLOPS at @p intensity under the roofline. */
double attainable(const MachineSpec &machine, double intensity);

} // namespace neupims::analysis

#endif // NEUPIMS_ANALYSIS_ROOFLINE_H_
