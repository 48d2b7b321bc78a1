#include "runtime/workload.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace neupims::runtime {

DatasetConfig
shareGptDataset()
{
    DatasetConfig cfg;
    cfg.name = "ShareGPT";
    cfg.inputMean = 80.0;
    cfg.outputMean = 296.0;
    cfg.inputSigma = 0.9;
    cfg.outputSigma = 0.9;
    return cfg;
}

DatasetConfig
alpacaDataset()
{
    DatasetConfig cfg;
    cfg.name = "Alpaca";
    cfg.inputMean = 12.0;
    cfg.outputMean = 56.0;
    cfg.inputSigma = 0.8;
    cfg.outputSigma = 0.8;
    return cfg;
}

DatasetConfig
datasetByName(const std::string &name)
{
    if (name == "ShareGPT")
        return shareGptDataset();
    if (name == "Alpaca")
        return alpacaDataset();
    fatal("unknown dataset '", name, "' (expected ShareGPT|Alpaca)");
}

WorkloadGenerator::WorkloadGenerator(const DatasetConfig &cfg,
                                     std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    NEUPIMS_ASSERT(cfg_.inputMean >= 1.0 && cfg_.outputMean >= 1.0);
}

int
WorkloadGenerator::sampleLength(double mean, double sigma)
{
    // Lognormal with E[X] = mean: mu = ln(mean) - sigma^2 / 2.
    double mu = std::log(mean) - sigma * sigma / 2.0;
    double v = rng_.lognormal(mu, sigma);
    int len = static_cast<int>(std::lround(v));
    return std::clamp(len, 1, cfg_.maxLength);
}

SequenceSample
WorkloadGenerator::sample()
{
    SequenceSample s;
    s.inputLength = sampleLength(cfg_.inputMean, cfg_.inputSigma);
    s.outputLength = sampleLength(cfg_.outputMean, cfg_.outputSigma);
    s.generatedTokens = 0;
    return s;
}

std::vector<SequenceSample>
WorkloadGenerator::warmBatch(int batch_size)
{
    NEUPIMS_ASSERT(batch_size >= 1);
    std::vector<SequenceSample> batch;
    batch.reserve(batch_size);
    for (int i = 0; i < batch_size; ++i) {
        SequenceSample s = sample();
        // Uniform progress through the generation phase; at least one
        // token remains to be produced.
        if (s.outputLength > 1) {
            s.generatedTokens = static_cast<int>(
                rng_.uniformInt(0,
                                static_cast<std::uint64_t>(
                                    s.outputLength - 1)));
        }
        batch.push_back(s);
    }
    return batch;
}

} // namespace neupims::runtime
