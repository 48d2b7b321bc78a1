/**
 * @file
 * Iteration-latency models backing the serving engine
 * (runtime/serving_engine.h): map one iteration's batch composition
 * to simulated cycles.
 *
 *  - AnalyticIterationModel: closed-form composition of the same
 *    per-phase cost functions the event-driven engine executes — the
 *    compiler's LayerPlan work units, the systolic-array tile model,
 *    the Algorithm-1 PIM MHA estimate and a bandwidth model of the
 *    weight/KV streams — with per-backend phase composition rules
 *    (serial sum vs SBI overlap). Microseconds per iteration instead
 *    of seconds, which is what makes thousand-iteration serving
 *    sweeps tractable; accuracy against the engine is a constant
 *    factor absorbed by calibrate(), which measures one engine point
 *    (DESIGN.md §6).
 *
 *  - HybridIterationModel: the cycle-accurate DeviceExecutor itself,
 *    run on every Nth iteration (plus forced samples when the
 *    composition steps) and memoized on a sequence-length-quantized
 *    composition key; the iterations between samples fast-forward on
 *    the analytic model rescaled by a measured/analytic ratio
 *    anchored earlier in the same run. N = 1 prices every iteration
 *    on the engine.
 *
 * Both models price mixed prefill+decode iterations. The analytic
 * model compiles the mixed LayerPlan (prompt tokens as extra GEMM
 * rows, NPU-side causal prefill attention, prefill KV appends) and,
 * on pipelined-MHA devices, credits part of the NPU prefill work as
 * hidden under the PIM decode MHA span (the piggyback slack). The
 * event engine has no prefill path, so the engine-backed model scales
 * its measured decode cycles by the analytic mixed/decode ratio; a
 * prefill-only iteration is priced analytically on the measured
 * clock.
 */

#ifndef NEUPIMS_CORE_ITERATION_MODEL_H_
#define NEUPIMS_CORE_ITERATION_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "runtime/serving_engine.h"

namespace neupims::core {

/** One iteration's full work: decode composition + prefill slices +
 * KV swap traffic over the host link (preemption Swap mode). */
struct MixedComposition
{
    BatchComposition decode;
    std::vector<model::PrefillSliceSpec> prefill;
    /** Host-link KV traffic priced into this iteration (swap-out of
     * victims + swap-in of restored sequences). */
    Bytes swapBytes = 0;
    /** Host link rate; 0 disables swap pricing. */
    double swapBytesPerCycle = 0.0;

    bool hasDecode() const { return decode.batchSize() > 0; }
    bool hasPrefill() const { return !prefill.empty(); }
    bool hasSwap() const
    {
        return swapBytes > 0 && swapBytesPerCycle > 0.0;
    }
};

class AnalyticIterationModel : public runtime::IterationLatencyModel
{
  public:
    AnalyticIterationModel(const DeviceConfig &cfg,
                           const model::LlmConfig &model, int tp,
                           int layers_per_device);

    const std::string &name() const override { return name_; }

    Cycle
    iterationCycles(const runtime::IterationSchedule &schedule) override;

    /** Composition-level entry (benches, calibration, tests). */
    Cycle iterationCyclesFor(const BatchComposition &comp);

    /** Mixed prefill+decode entry (schedules with prefill slices). */
    Cycle iterationCyclesFor(const MixedComposition &mix);

    /** iterationCyclesFor(@p mix) without its swap traffic: the
     * compute alone, which the engine-backed model rescales. */
    Cycle computeCyclesFor(const MixedComposition &mix);

    /** Steady-state per-layer cycles for @p comp. */
    Cycle perLayerCyclesFor(const BatchComposition &comp);

    /** Steady-state per-layer cycles for a mixed iteration. */
    Cycle perLayerCyclesFor(const MixedComposition &mix);

    /**
     * Visible cycles of @p mix's KV swap traffic: transfer time over
     * the host link, minus the share hidden under the PIM decode-MHA
     * spans on pipelined devices (the same idle-NPU window the prefill
     * piggyback credit draws on, so swap only claims the half the
     * prefill credit leaves behind). Serial and non-pipelined devices
     * expose the full transfer.
     */
    Cycle swapOverheadCycles(const MixedComposition &mix);

    /**
     * Scale so one DeviceExecutor measurement of a uniform
     * @p batch x @p seq_len composition matches the analytic value
     * exactly at that point; everything else scales with it. Every
     * call runs the engine once.
     * @return the calibration factor applied.
     */
    double calibrate(int batch, int seq_len, int window_layers = 0);

    double scale() const { return scale_; }
    void setScale(double scale) { scale_ = scale; }

    /** DRAM arbitration stats of the calibration anchor's engine run
     * (invalid until calibrate() has been called). */
    runtime::MemSchedSummary
    memSchedSummary() const override
    {
        return memSchedSummary_;
    }

    /**
     * Scale-free SBI overlap components of @p comp: @p serial is the
     * summed serial cost of both sub-batches (s1 + s2), @p hideable
     * is min(mha, serial - mha) — the span the hide fraction
     * multiplies. Exposed for the mem_sched_sweep least-squares fit.
     */
    void sbiComponents(const BatchComposition &comp, double &serial,
                       double &hideable);

  private:
    /** Cycles of one layer executed serially (no SBI). */
    double serialLayerCycles(const model::LayerPlan &plan,
                             bool allow_prefetch) const;
    /** Cycles of one steady-state layer under sub-batch interleaving. */
    double sbiLayerCycles(const model::LayerPlan &sb1,
                          const model::LayerPlan &sb2) const;

    /** GEMM phase: max(systolic compute, weight stream). */
    double gemmPhaseCycles(const model::GemmWork &gemm,
                           Bytes prefetched_bytes) const;
    /** Dense stream of @p bytes page-interleaved over all channels. */
    double denseStreamCycles(Bytes bytes) const;
    /** MHA phase cycles of @p plan for this device's MHA path. */
    double mhaCycles(const model::LayerPlan &plan) const;
    /** NPU-side prefill attention of @p plan's slices: batched
     * logit/attend GEMMs + softmax, K/V window streaming from each
     * slice's channel. */
    double prefillAttnCycles(const model::LayerPlan &plan) const;
    /** Unscaled per-layer cycles of a mixed iteration. */
    double mixedLayerCycles(const MixedComposition &mix);

    std::string name_;
    DeviceConfig cfg_;
    model::LlmConfig model_;
    int tp_;
    int layersPerDevice_;
    model::Compiler compiler_;
    npu::SystolicArrayPool saPool_;
    npu::VectorUnitPool vuPool_;
    runtime::MhaLatencyEstimator estimator_;
    double scale_ = 1.0;
    runtime::MemSchedSummary memSchedSummary_;

    // --- per-call scratch, refilled in place (DESIGN.md §6) ---------
    /** The schedule's composition (iterationCycles). */
    MixedComposition mix_;
    /** Compiled plans: the whole batch (with any prefill slices) and
     * the two Algorithm-3 sub-batches. Each pricing function compiles
     * what it reads and reads nothing compiled by another call. */
    model::LayerPlan fullPlan_;
    model::LayerPlan sb1Plan_;
    model::LayerPlan sb2Plan_;
};

/**
 * Calibrated SBI overlap hide fraction for @p cfg's arbitration
 * policy at one composition point: bilinear interpolation (edge
 * clamped) over the effective fractions measured from the engine grid
 * — per-channel sub-batch size {4, 6, 8, 12} x KV length {512, 1024,
 * 1536}, i.e. batch 256-768 x sequence 512-1536 on the 32-channel
 * device (see bench/fig_serving_latency.cc mem_sched_sweep and
 * DESIGN.md §11). The measured surface is strongly batch-dependent
 * (near zero at 4 requests/channel/sub-batch, where the pipeline has
 * no interleaving grain, rising to policy-specific plateaus), which
 * is why the historical constant 0.25 left a ±9% gap no constant can
 * close.
 *
 * @param per_channel_sb decode requests per channel in ONE
 *        Algorithm-3 sub-batch (batch / (2 x channels) for a uniform
 *        split)
 * @param kv_len mean KV context length of the batch
 */
double calibratedSbiHideFraction(const DeviceConfig &cfg,
                                 double per_channel_sb, double kv_len);

/**
 * The engine-backed iteration model (hybrid fidelity): runs the
 * cycle-accurate event engine on sampled iteration windows — every
 * @p sample_every iteration boundary, plus forced samples whenever
 * the batch composition steps (batch-size bucket change, preemption
 * or restore, swap traffic, fault eviction, load shedding, a
 * straggler window opening or closing) — and fast-forwards the
 * iterations in between with the analytic model rescaled by the last
 * measured/analytic ratio observed at a sample. sample_every == 1
 * prices every iteration on the engine.
 *
 * Engine runs are memoized on the decode composition with every
 * sequence length rounded up to kQuantizeSeq, so a serving run's
 * slowly drifting batches replay cached windows, and a fast-forward
 * whose composition is already cached takes the engine value at
 * lookup cost instead of the ratio estimate. The engine executes
 * decode only: a mixed iteration scales the measured decode cycles
 * by the analytic mixed/decode ratio (the analytic scale cancels), and
 * a prefill-only iteration rescales the analytic value by the
 * measured/analytic quotient of the latest engine run, keeping every
 * span of a run on one clock.
 *
 * Anchors (per composition-bucket measured/analytic ratios) live for
 * the model's lifetime: a fast-forward prices on its bucket's anchor
 * when one was sampled, else on the running ratio.
 */
class HybridIterationModel : public runtime::IterationLatencyModel
{
  public:
    /** Engine runs round every sequence length up to this multiple,
     * so drifting serving batches reuse measurements. */
    static constexpr int kQuantizeSeq = 64;

    /**
     * @param sample_every run the event engine every Nth iteration
     *        boundary (>= 1; 1 prices every iteration on the engine)
     */
    HybridIterationModel(const DeviceConfig &cfg,
                         const model::LlmConfig &model, int tp,
                         int layers_per_device, int sample_every = 8);

    const std::string &name() const override { return name_; }

    Cycle
    iterationCycles(const runtime::IterationSchedule &schedule) override;

    /** DRAM arbitration stats summed over the engine runs (invalid
     * until the first). */
    runtime::MemSchedSummary memSchedSummary() const override;

    // --- sampling telemetry (benches, tests) ------------------------
    /** Iterations priced by the event engine (periodic + forced). */
    std::uint64_t sampledIterations() const { return sampled_; }
    /** Samples forced by a composition change off the Nth boundary. */
    std::uint64_t forcedSamples() const { return forced_; }
    /** Iterations fast-forwarded analytically. */
    std::uint64_t fastForwarded() const { return fastForwarded_; }
    /** Fast-forwards that hit the engine-run cache — engine-accurate
     * pricing at lookup cost, no ratio involved. */
    std::uint64_t fastForwardCacheHits() const { return ffCacheHits_; }
    /** Engine windows actually executed (one per cached composition)
     * — the wall-clock proxy the bench's speedup assertion uses. */
    std::uint64_t executorRuns() const { return cache_.size(); }
    /** Last measured/analytic ratio (1.0 until the first sample). */
    double ratio() const { return ratio_; }
    int sampleEvery() const { return sampleEvery_; }

    /** Anchor keys sampled so far. */
    std::size_t anchorCount() const { return anchors_.size(); }

  private:
    /** Composition signature: a forced sample fires when any field
     * changes between consecutive iterations. */
    struct Signature
    {
        int batchBucket = -1; ///< batchSize() / kBatchBucket
        int prefillTokens = 0;
        bool preempted = false;
        bool restored = false;
        bool swap = false;
        bool faulted = false;
        bool shed = false;
        bool straggler = false;

        bool
        operator==(const Signature &o) const
        {
            return batchBucket == o.batchBucket &&
                   prefillTokens == o.prefillTokens &&
                   preempted == o.preempted && restored == o.restored &&
                   swap == o.swap && faulted == o.faulted &&
                   shed == o.shed && straggler == o.straggler;
        }
        bool operator!=(const Signature &o) const { return !(*this == o); }
    };

    Signature signatureOf(const runtime::IterationSchedule &schedule) const;

    /**
     * @p mix priced on the engine clock, stragglers excluded. A decode
     * composition missing from the cache runs the engine when
     * @p run_engine; otherwise nothing runs and the result is empty.
     */
    std::optional<Cycle> engineCycles(const MixedComposition &mix,
                                      bool run_engine);

    std::string name_;
    DeviceExecutor executor_;
    AnalyticIterationModel analytic_;
    int sampleEvery_;
    /** Engine cycles per quantized decode composition, keyed on its
     * per-channel lengths alone: the Algorithm-3 sub-batches are a
     * function of them (composeBatch). */
    std::map<std::vector<std::vector<int>>, Cycle> cache_;
    /** Per-call scratch, refilled in place: the schedule's
     * composition and its quantized decode part. */
    MixedComposition mix_;
    BatchComposition quantized_;
    /** Measured/analytic quotient of the latest engine run: prices
     * prefill-only iterations. Unlike ratio_ it is taken per engine
     * run over decode work alone, not per sample over the iteration. */
    double measuredOverAnalytic_ = 1.0;
    /** Scheduling stats summed over engine runs (memSchedSummary). */
    dram::MemSchedStats memSchedAccum_;
    double bankUtilSum_ = 0.0;
    std::uint64_t iter_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t forced_ = 0;
    std::uint64_t fastForwarded_ = 0;
    std::uint64_t ffCacheHits_ = 0;
    double ratio_ = 1.0;
    Signature lastSig_;
    bool haveSig_ = false;
    /** Latest measured/analytic ratio per anchor key: batch bucket,
     * quantized mean KV length, prefill present. */
    std::map<std::tuple<int, int, bool>, double> anchors_;
};

/**
 * Fill @p mix from @p schedule on a device of @p channels channels:
 * the decode composition (composeBatch over the schedule's batch), the
 * prefill slices and the swap traffic. @p mix's lists keep their
 * storage, so a model refilling one member composition every
 * iteration allocates nothing (DESIGN.md §6).
 */
void fillComposition(const runtime::IterationSchedule &schedule,
                     int channels, MixedComposition &mix);

} // namespace neupims::core

#endif // NEUPIMS_CORE_ITERATION_MODEL_H_
