#include "core/serving_setup.h"

#include "common/log.h"
#include "runtime/fault_model.h"

namespace neupims::core {

const std::vector<ServingBackend> &
standardServingBackends()
{
    static const std::vector<ServingBackend> backends = [] {
        std::vector<ServingBackend> b;
        b.push_back({"NPU-only", DeviceConfig::npuOnly()});
        b.push_back({"NPU+PIM", DeviceConfig::naiveNpuPim()});
        DeviceConfig serial = DeviceConfig::neuPims();
        serial.flags.subBatchInterleaving = false;
        serial.name = "NeuPIMs";
        b.push_back({"NeuPIMs", serial});
        DeviceConfig sbi = DeviceConfig::neuPims();
        sbi.name = "NeuPIMs+SBI";
        b.push_back({"NeuPIMs+SBI", sbi});
        return b;
    }();
    return backends;
}

const ServingBackend &
servingBackendByName(const std::string &name)
{
    for (const auto &b : standardServingBackends()) {
        if (b.name == name)
            return b;
    }
    fatal("unknown serving backend '", name,
          "' (expected NPU-only|NPU+PIM|NeuPIMs|NeuPIMs+SBI)");
}

runtime::ServingConfig
servingConfigFor(const DeviceConfig &dev, const model::LlmConfig &llm,
                 int max_batch)
{
    int tp = llm.defaultTp;
    runtime::ServingConfig cfg;
    cfg.kv.channels = dev.org.channels;
    cfg.kv.bytesPerChannel = dev.org.channelCapacity * 3 / 4;
    cfg.kv.bytesPerTokenPerLayer = llm.kvBytesPerTokenPerLayer(tp);
    cfg.kv.layers = llm.layersPerDevice(llm.defaultPp);
    cfg.scheduler.channels = dev.org.channels;
    cfg.scheduler.maxBatch = max_batch;
    cfg.scheduler.minLoadPacking = dev.flags.minLoadPacking;
    cfg.scheduler.estimator = latencyParamsFor(dev, llm, tp);
    return cfg;
}

void
applyServingOptions(runtime::ServingConfig &cfg,
                    const ServingOptions &opt)
{
    cfg.scheduler.preempt.mode =
        runtime::preemptModeByName(opt.preempt);
    cfg.scheduler.preempt.victim =
        runtime::victimPolicyByName(opt.victim);
    cfg.scheduler.preempt.swapGBps = opt.swapGbps;

    cfg.scheduler.policy.kind =
        runtime::schedulingPolicyByName(opt.policy);
    // ms -> cycles at the 1 GHz domain (1 ms == 1e6 cycles).
    cfg.scheduler.policy.agingCycles =
        static_cast<Cycle>(opt.agingMs * 1e6);
    cfg.scheduler.policy.defaultTtftSlo =
        static_cast<Cycle>(opt.sloTtftMs * 1e6);
    cfg.scheduler.policy.defaultTptSlo =
        static_cast<Cycle>(opt.sloTptMs * 1e6);

    if (opt.kvScale > 1)
        scaleKvCapacity(cfg, opt.kvScale);

    cfg.kv.prefixSharing = opt.prefixShare;

    if (!opt.fault.empty())
        cfg.fault = runtime::parseFaultSpecs(opt.fault, opt.faultSeed);
    cfg.client.maxRetries = opt.retries;
    cfg.client.backoffCycles =
        static_cast<Cycle>(opt.retryBackoffMs * 1e6);
    cfg.scheduler.shed.kvHeadroom = opt.shedWatermark;
    cfg.scheduler.shed.maxWaitCycles =
        static_cast<Cycle>(opt.shedWaitMs * 1e6);
}

ServingSetup
setupServingRun(const DeviceConfig &dev, const model::LlmConfig &llm,
                const ServingRun &run)
{
    runtime::DatasetConfig ds = runtime::datasetByName(run.dataset);
    if (run.maxLen > 0)
        ds.maxLength = run.maxLen;
    ServingSetup setup;
    if (run.traffic == "replay" && !run.traceCsv.empty())
        setup.traffic = runtime::ReplayTraffic::fromCsvFile(run.traceCsv);
    else if (run.traffic == "session")
        setup.traffic = runtime::makeSessionTraffic(
            ds, run.rate, run.requests, run.seed, run.session);
    else
        setup.traffic = runtime::makeTraffic(run.traffic, ds, run.rate,
                                             run.requests, run.seed);
    setup.traffic->setClassMix(runtime::classMixByName(run.classes),
                               run.seed);
    if (run.clientTimeoutMs > 0)
        setup.traffic->setClientTimeout(
            static_cast<Cycle>(run.clientTimeoutMs * 1e6));

    setup.config = servingConfigFor(dev, llm);
    setup.config.scheduler.prefill = run.prefill;
    applyServingOptions(setup.config, run.options);
    setup.config.client.seed = run.seed;
    return setup;
}

void
scaleKvCapacity(runtime::ServingConfig &cfg, int denominator)
{
    NEUPIMS_ASSERT(denominator >= 1);
    cfg.kv.bytesPerChannel /= static_cast<Bytes>(denominator);
}

void
applyMemSched(DeviceConfig &dev, const std::string &name)
{
    if (!dram::parseMemSchedKind(name, dev.memSched))
        fatal("unknown memory scheduler '", name,
              "' (expected frfcfs|paws)");
}

std::unique_ptr<AnalyticIterationModel>
makeIterationModel(const DeviceConfig &dev, const model::LlmConfig &llm)
{
    return std::make_unique<AnalyticIterationModel>(
        dev, llm, llm.defaultTp, llm.layersPerDevice(llm.defaultPp));
}

std::unique_ptr<HybridIterationModel>
makeHybridIterationModel(const DeviceConfig &dev,
                         const model::LlmConfig &llm, int sample_every)
{
    return std::make_unique<HybridIterationModel>(
        dev, llm, llm.defaultTp, llm.layersPerDevice(llm.defaultPp),
        sample_every);
}

} // namespace neupims::core
