/**
 * @file
 * Synthetic ShareGPT / Alpaca workload generators (paper §8.1).
 *
 * Substitution note (see DESIGN.md): we do not ship the datasets; the
 * simulator consumes only input/output sequence-length distributions,
 * which we synthesize as lognormals calibrated to the paper's
 * published means — ShareGPT: 80 input / 296 output tokens; Alpaca:
 * 12 / 56. Like the paper's methodology, batches are "warmed": each
 * sampled request is part-way through its generation so a batch mixes
 * short and long KV histories.
 */

#ifndef NEUPIMS_RUNTIME_WORKLOAD_H_
#define NEUPIMS_RUNTIME_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/rng.h"

namespace neupims::runtime {

struct SequenceSample
{
    int inputLength = 1;
    int outputLength = 1;
    int generatedTokens = 0; ///< warm-batch progress (< outputLength)
};

struct DatasetConfig
{
    std::string name;
    double inputMean = 80.0;
    double outputMean = 296.0;
    double inputSigma = 0.9; ///< sigma of ln(length)
    double outputSigma = 0.9;
    int maxLength = 4096; ///< clamp, keeps KV within device capacity
};

DatasetConfig shareGptDataset();
DatasetConfig alpacaDataset();
/** "ShareGPT" or "Alpaca"; fatal() on other names. */
DatasetConfig datasetByName(const std::string &name);

class WorkloadGenerator
{
  public:
    WorkloadGenerator(const DatasetConfig &cfg, std::uint64_t seed);

    const DatasetConfig &config() const { return cfg_; }

    /** Sample one request's input/output lengths (cold: progress 0). */
    SequenceSample sample();

    /**
     * Sample a warm batch: every request is somewhere inside its
     * generation phase (uniform progress), as produced by the paper's
     * warm-up methodology.
     */
    std::vector<SequenceSample> warmBatch(int batch_size);

  private:
    int sampleLength(double mean, double sigma);

    DatasetConfig cfg_;
    Rng rng_;
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_WORKLOAD_H_
