/**
 * @file
 * Bridges the serving runtime and the execution engine: takes warm
 * workload samples, assigns them to PIM channels (Algorithm 2 or
 * round-robin per the system under test), partitions sub-batches
 * (Algorithm 3) and emits the BatchComposition the executor consumes.
 * composeBatch is the one place a batch's channel lists and its
 * Algorithm-3 split are built: the warm-batch builders below and the
 * serving iteration models all call it.
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
 * Algorithm 3 over a channel-assigned batch, written into @p comp:
 * each request's current KV length joins its channel's list of
 * comp.full in @p requests order, and each channel's list is halved
 * into comp.sb1 (front) and comp.sb2 (back); when a channel's count is
 * odd, the paper's `turn` flag alternates which sub-batch receives the
 * extra request, so both the totals and every channel's halves stay
 * within one of each other. sb1 ++ sb2 == full on every channel.
 * @p comp's lists are resized to @p channels and keep their storage,
 * so refilling one composition every iteration allocates nothing once
 * it has grown (DESIGN.md §6).
 */
void composeBatch(const std::vector<runtime::Request *> &requests,
                  int channels, BatchComposition &comp);

/**
 * Uniform composition: @p batch requests of identical KV length
 * @p seq_len assigned round-robin across @p channels, with Algorithm-3
 * sub-batches. The per-channel request counts differ by at most one,
 * so at most a handful of distinct per-channel compositions exist.
 * Used by the engine benchmarks, the calibration anchors and the
 * channel-fold equivalence tests.
 */
BatchComposition uniformComposition(int batch, int seq_len,
                                    int channels);

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
