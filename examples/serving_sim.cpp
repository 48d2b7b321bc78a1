/**
 * @file
 * Inference-serving simulation: exercises the full serving runtime —
 * streaming request arrivals, Orca-style iteration-level admission,
 * vLLM-style paged KV-cache accounting, greedy min-load channel
 * packing (Algorithm 2) and sub-batch partitioning (Algorithm 3) —
 * and reports a per-iteration serving trace with Algorithm-1-based
 * latency estimates.
 *
 *   ./examples/serving_sim [iterations] [arrival_per_iter]
 *
 * iterations (default 40) must be an integer >= 1 and
 * arrival_per_iter (default 12) one >= 0; anything else stops the run
 * with an error naming the argument.
 */

#include <algorithm>
#include <cstdio>

#include "common/parse_flag.h"
#include "core/serving_setup.h"
#include "model/llm_config.h"
#include "runtime/batch_scheduler.h"
#include "runtime/workload.h"

using namespace neupims;

int
main(int argc, char **argv)
{
    int iterations = argc > 1 ? parseFlag("iterations", argv[1], 1) : 40;
    int arrivals =
        argc > 2 ? parseFlag("arrival_per_iter", argv[2], 0) : 12;

    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    // KV pages and Orca-style admission as in every serving run; the
    // default prefill config prefills admitted prompts in 256-token
    // chunks piggybacked onto decode iterations.
    auto cfg = core::servingConfigFor(dev, llm);
    runtime::RequestPool pool;
    runtime::PagedKvCache kv(cfg.kv);
    runtime::BatchScheduler scheduler(cfg.scheduler, pool, kv);

    runtime::WorkloadGenerator gen(runtime::shareGptDataset(), 7);

    std::printf("NeuPIMs serving simulation: %s, ShareGPT arrivals, "
                "%d iterations x %d arrivals\n\n",
                llm.name.c_str(), iterations, arrivals);
    std::printf("%6s %8s %8s %8s %8s %8s %10s %12s %10s\n", "iter",
                "wait", "decode", "prefill", "admit", "retire",
                "KV util", "est MHA (us)", "imbalance");

    std::uint64_t served_tokens = 0;
    for (int it = 0; it < iterations; ++it) {
        for (int a = 0; a < arrivals; ++a) {
            auto s = gen.sample();
            pool.submit(s.inputLength, s.outputLength);
        }
        const auto &schedule = scheduler.scheduleIteration();
        double max_load = 0.0, sum_load = 0.0;
        for (double l : schedule.channelLoads) {
            max_load = std::max(max_load, l);
            sum_load += l;
        }
        double mean_load =
            sum_load / static_cast<double>(schedule.channelLoads.size());
        int prefill_tokens = schedule.prefillTokens();
        int retired = scheduler.completeIteration(schedule);
        served_tokens += static_cast<std::uint64_t>(
            schedule.batchSize());

        std::printf("%6d %8zu %8d %8d %8d %8d %9.1f%% %12.1f %9.2fx\n",
                    it, pool.waitingCount(), schedule.batchSize(),
                    prefill_tokens, schedule.admitted, retired,
                    kv.utilization() * 100.0,
                    cyclesToMicros(static_cast<Cycle>(max_load)),
                    mean_load > 0 ? max_load / mean_load : 1.0);
    }

    std::printf("\nserved %llu tokens, %llu requests completed, "
                "%zu still running, %zu waiting\n",
                static_cast<unsigned long long>(served_tokens),
                static_cast<unsigned long long>(pool.completedCount()),
                pool.runningCount(), pool.waitingCount());
    std::printf("KV cache page utilization at end: %.1f%%\n",
                kv.utilization() * 100.0);
    return 0;
}
