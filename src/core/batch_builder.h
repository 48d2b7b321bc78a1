/**
 * @file
 * Bridges the serving runtime and the execution engine: takes warm
 * workload samples, assigns them to PIM channels (Algorithm 2 or
 * round-robin per the system under test), partitions sub-batches
 * (Algorithm 3) and emits the BatchComposition the executor consumes.
 */

#ifndef NEUPIMS_CORE_BATCH_BUILDER_H_
#define NEUPIMS_CORE_BATCH_BUILDER_H_

#include <vector>

#include "core/executor.h"
#include "runtime/latency_model.h"
#include "runtime/request.h"
#include "runtime/workload.h"

namespace neupims::core {

/**
 * Build the iteration batch composition from warm samples.
 *
 * @param samples warm requests (input/output/progress lengths)
 * @param channels PIM channels of the device
 * @param min_load_packing Algorithm 2 when true, round-robin when false
 * @param est Algorithm-1 parameters for the load estimates
 */
BatchComposition
buildComposition(const std::vector<runtime::SequenceSample> &samples,
                 int channels, bool min_load_packing,
                 const runtime::MhaLatencyParams &est);

/**
 * Uniform composition: @p batch requests of identical KV length
 * @p seq_len split evenly across @p channels, with Algorithm-3
 * sub-batches. The per-channel request counts differ by at most one,
 * so at most a handful of distinct per-channel compositions exist.
 * Used by the engine benchmarks, the calibration anchors and the
 * channel-fold equivalence tests.
 */
BatchComposition uniformComposition(int batch, int seq_len,
                                    int channels);

/**
 * Current sequence lengths of channel-grouped requests into @p lens
 * (one list per group; the lists keep their storage, so refilling
 * the same @p lens every iteration allocates nothing once it has
 * grown).
 */
void fillSeqLens(const std::vector<std::vector<runtime::Request *>> &groups,
                 std::vector<std::vector<int>> &lens);

/** Algorithm-1 parameter set matching a device/model combination. */
runtime::MhaLatencyParams
latencyParamsFor(const DeviceConfig &cfg, const model::LlmConfig &model,
                 int tp);

/**
 * Whether @p cfg executes @p batch with sub-batch interleaving: the
 * flag is set, both Algorithm-3 sub-batches are non-empty, and the
 * batch clears the sbiMinBatch fallback threshold (§8.2). The single
 * SBI gate shared by the cycle-accurate executor and the analytic
 * iteration model, so the two can never disagree on the mode.
 */
bool usesSubBatchInterleaving(const DeviceConfig &cfg,
                              const BatchComposition &batch);

} // namespace neupims::core

#endif // NEUPIMS_CORE_BATCH_BUILDER_H_
