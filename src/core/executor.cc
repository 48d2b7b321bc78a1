#include "core/executor.h"

#include <algorithm>
#include <map>

#include "common/event_queue.h"
#include "common/log.h"
#include "core/batch_builder.h"
#include "npu/dma.h"

namespace neupims::core {

namespace {

/** Split @p total into @p parts chunks differing by at most one. */
std::vector<int>
splitEven(int total, int parts)
{
    std::vector<int> out(parts, total / parts);
    for (int i = 0; i < total % parts; ++i)
        ++out[i];
    return out;
}

/**
 * Channel equivalence classes of one iteration: channels whose
 * controllers receive identical work share one simulated controller,
 * the class representative (DESIGN.md §5). A channel's signature is
 * what the executor enqueues on it alone, per thread plan: its KV
 * append bytes and, when MHA runs on PIM, its requests' GEMV kernels
 * and softmax sizes in order. NPU-only MHA is one all-channel stream
 * sized by device-wide totals, so there the append bytes are the
 * whole signature. Channel 0 always forms a singleton class because
 * all-channel DMA streams park their sub-burst tail there.
 */
dram::SymmetryGroups
computeSymmetryGroups(int channels,
                      const std::vector<model::LayerPlan> &plans,
                      bool mha_on_pim)
{
    dram::SymmetryGroups g;
    g.representative.resize(channels);
    g.classSize.assign(channels, 0);

    using Signature = std::vector<std::uint64_t>;
    std::map<Signature, ChannelId> first_with;
    for (ChannelId ch = 0; ch < channels; ++ch) {
        ChannelId rep = ch;
        if (ch > 0) {
            Signature sig;
            for (const auto &plan : plans) {
                sig.push_back(plan.mha.kvAppendBytes[ch]);
                if (!mha_on_pim)
                    continue;
                const auto &reqs = plan.mha.requests[ch];
                sig.push_back(reqs.size());
                for (const auto &r : reqs) {
                    for (const auto *k : {&r.logit, &r.attend})
                        sig.insert(sig.end(),
                                   {std::uint64_t(k->rowTiles),
                                    std::uint64_t(k->gwrites),
                                    std::uint64_t(k->resultBursts)});
                    sig.push_back(r.softmaxElems);
                }
            }
            rep = first_with.try_emplace(std::move(sig), ch)
                      .first->second;
        }
        g.representative[ch] = rep;
        ++g.classSize[rep];
    }
    for (ChannelId ch = 0; ch < channels; ++ch) {
        if (g.representative[ch] == ch)
            ++g.numClasses;
        else
            g.classSize[ch] = g.classSize[g.representative[ch]];
    }
    return g;
}

/**
 * One simulated iteration window and everything it drives: the event
 * queue, the memory stack, the DMA engine and the NPU pools. The
 * executor builds one per runIteration() and frees it on return;
 * callbacks capture `this`, which stays valid until the queue drains.
 */
class IterationSim
{
  public:
    /** One thread per compiled plan in @p plans. */
    IterationSim(const DeviceConfig &cfg, dram::SymmetryGroups groups,
                 std::vector<model::LayerPlan> plans, int window_layers,
                 int warmup_layers, const ExtraMemTraffic &extra)
        : hbm_(eq_, cfg.memConfig(), std::move(groups)), dma_(eq_, hbm_),
          sa_(cfg.npu.sa, cfg.npu.systolicArrays),
          vu_(cfg.npu.vu, cfg.npu.vectorUnits), cfg_(cfg), extra_(extra),
          windowLayers_(window_layers), warmupLayers_(warmup_layers)
    {
        for (auto &p : plans) {
            threads_.emplace_back(std::move(p));
            threads_.back().layerEnd.assign(windowLayers_, 0);
        }
    }
    IterationSim(const IterationSim &) = delete;
    IterationSim &operator=(const IterationSim &) = delete;

    /** Launch all threads at cycle 0 and run the queue dry. */
    void
    run()
    {
        for (std::size_t i = 0; i < threads_.size(); ++i)
            startGemmPhase(static_cast<int>(i), 0);
        launchExtraTraffic();
        eq_.run();
        for (const auto &t : threads_)
            NEUPIMS_ASSERT(t.layer == windowLayers_,
                           "thread stalled at layer ", t.layer);
    }

    const dram::HbmStack &hbm() const { return hbm_; }

    /** Measure the window and compose the full iteration (§6.2). */
    IterationResult
    result(int layers_per_device, int batch_size)
    {
        finalizePhases();
        IterationResult res;
        Cycle warm_end = warmupEnd();
        Cycle end = windowEnd();
        NEUPIMS_ASSERT(end > warm_end);
        res.windowCycles = end;
        res.perLayerCycles = perLayerCycles();
        // §6.2 composition: measured window + steady-state periods for
        // the layers beyond it.
        std::int64_t extra_layers =
            static_cast<std::int64_t>(layers_per_device) - windowLayers_;
        NEUPIMS_ASSERT(extra_layers >= 0);
        res.iterationCycles =
            end + res.perLayerCycles * static_cast<Cycle>(extra_layers);
        double iter_seconds = cyclesToSeconds(res.iterationCycles);
        res.throughputTokensPerSec =
            static_cast<double>(batch_size) / iter_seconds;

        Cycle span = end - warm_end;
        res.npuUtil = (flops_ - flopsAtWarmup_) /
                      (sa_.peakFlopsPerCycle() * static_cast<double>(span));
        double pim_busy = static_cast<double>(
            hbm_.totalPimBankBusyCycles() - pimBusyAtWarmup_);
        res.pimUtil = pim_busy / (static_cast<double>(span) *
                                  hbm_.pimCapacityBanks());
        res.bwUtil = hbm_.dataBusUtilization(warm_end, end);
        res.totalFlops = flops_;
        res.dataBusBytes = hbm_.totalDataBusBytes();
        res.pimBankBusyCycles = hbm_.totalPimBankBusyCycles();
        res.commands = hbm_.totalCommandCounts();
        res.phases = phases_;
        res.memSched = hbm_.totalMemSchedStats();
        const auto &org = cfg_.org;
        res.memBankUtil =
            static_cast<double>(hbm_.totalMemBankBusyCycles() -
                                memBusyAtWarmup_) /
            (static_cast<double>(org.channels) *
             static_cast<double>(org.banksPerChannel) *
             static_cast<double>(span));
        res.extraTrafficEndCycle = extraEnd_;
        for (ChannelId ch = 0; ch < org.channels; ++ch)
            res.channelActivity.push_back(hbm_.channelActivity(ch, end));
        return res;
    }

  private:
    // --- measurement ----------------------------------------------------

    Cycle
    windowEnd() const
    {
        Cycle end = 0;
        for (const auto &t : threads_)
            end = std::max(end, t.layerEnd.back());
        return end;
    }

    Cycle
    warmupEnd() const
    {
        Cycle end = 0;
        for (const auto &t : threads_)
            end = std::max(end, t.layerEnd[warmupLayers_ - 1]);
        return end;
    }

    /** Steady-state per-layer period (max over threads). */
    Cycle
    perLayerCycles() const
    {
        Cycle per = 0;
        for (const auto &t : threads_) {
            Cycle span = t.layerEnd.back() -
                         t.layerEnd[warmupLayers_ - 1];
            per = std::max(per, span / static_cast<Cycle>(
                                            windowLayers_ -
                                            warmupLayers_));
        }
        return per;
    }

    /**
     * Inject the out-of-band streams at cycle 0: swap-outs are reads
     * (KV pages leave HBM for the host tier), swap-ins writes — both
     * page-granular so they compete with PIM GEMV at full row-buffer
     * locality, exactly the contention the MemArbiter arbitrates.
     */
    void
    launchExtraTraffic()
    {
        if (!extra_.any())
            return;
        int dense = hbm_.config().org.burstsPerRow();
        auto done = [this](Cycle c) {
            extraEnd_ = std::max(extraEnd_, c);
        };
        if (extra_.swapOutBytes > 0)
            dma_.streamAllChannels(extra_.swapOutBytes, false, dense,
                                   done);
        if (extra_.swapInBytes > 0)
            dma_.streamAllChannels(extra_.swapInBytes, true, dense,
                                   done);
    }
    /**
     * An in-flight weight prefetch. The next layer's GEMM consumes
     * the credit even when the stream has not yet completed — it
     * gates its completion on readyAt via the waiter hook instead of
     * re-issuing the traffic.
     */
    struct Prefetch
    {
        Bytes bytes = 0;
        bool done = false;
        Cycle readyAt = 0;
        std::function<void(Cycle)> waiter;
    };

    struct Thread
    {
        explicit Thread(model::LayerPlan p) : plan(std::move(p)) {}

        model::LayerPlan plan;
        int layer = 0;
        std::vector<Cycle> layerEnd;
        // Prefetch credit for the next layer's first GEMM.
        std::shared_ptr<Prefetch> prefetch;
        // Per-layer phase stamps (serial-mode Fig. 6 measurement).
        Cycle tLayerStart = 0;
        Cycle tQkvDone = 0;
        Cycle tMhaDone = 0;
        Flops flopsAtLayerStart = 0.0;
        Flops flopsAtQkv = 0.0;
        Cycle pimBusyAtQkv = 0;
        Flops flopsAtMha = 0.0;
    };

    /**
     * Run one batched GEMM: occupy the systolic arrays and stream the
     * weights (minus any prefetched credit); calls @p done at
     * max(compute end, stream end, prefetch ready).
     */
    void
    runGemm(const model::GemmWork &g, Cycle ready,
            std::shared_ptr<Prefetch> prefetch,
            std::function<void(Cycle)> done)
    {
        Cycle sa_start = std::max(ready, saFree_);
        Cycle compute = sa_.gemmCycles(g.shape);
        Cycle sa_end = sa_start + compute;
        saFree_ = sa_end;
        flops_ += g.flops();

        Bytes prefetched = prefetch ? prefetch->bytes : 0;
        Bytes to_stream = g.weightBytes() > prefetched
                              ? g.weightBytes() - prefetched
                              : 0;
        auto cb = [this, sa_end, prefetch,
                   done = std::move(done)](Cycle stream_end) {
            Cycle fin = std::max(sa_end, stream_end);
            auto finish = [this, done](Cycle f) {
                eq_.schedule(std::max(f, eq_.now()),
                             [f, done] { done(f); });
            };
            if (prefetch && !prefetch->done) {
                // Gate on the still-in-flight prefetch stream.
                prefetch->waiter = [fin, finish](Cycle pf_ready) {
                    finish(std::max(fin, pf_ready));
                };
            } else {
                if (prefetch)
                    fin = std::max(fin, prefetch->readyAt);
                finish(fin);
            }
        };
        if (to_stream == 0) {
            cb(ready);
        } else {
            dma_.streamAllChannels(to_stream, false,
                                   hbm_.config().org.burstsPerRow(),
                                   std::move(cb));
        }
    }

    /** Vector-unit job serialized on the VU pool timeline. */
    Cycle
    runVector(Cycle ready, Cycle cycles)
    {
        Cycle end = std::max(ready, vuFree_) + cycles;
        vuFree_ = end;
        return end;
    }

    /**
     * MHA softmax of one channel's logits: starts the moment the
     * logits are available, independent of other channels' softmaxes.
     * The 8x128-lane VU pool sustains far more softmax throughput
     * than the PIM GEMVs demand (§6.1: the softmax fully hides under
     * PIM compute), so cross-channel VU queueing is not modeled; this
     * channel-locality is also what makes channels with identical
     * kernels behave identically end to end — the invariant the
     * channel fold rests on (DESIGN.md §5).
     */
    Cycle
    channelSoftmax(Cycle ready, std::uint64_t elems)
    {
        return ready + vu_.softmaxCycles(elems);
    }

    /** Build a PIM kernel job from a GEMV kernel footprint. */
    dram::PimJob
    makePimJob(const model::GemvKernelWork &w,
               std::function<void(Cycle)> cb) const
    {
        dram::PimJob job;
        job.rowTiles = std::max(1, w.rowTiles);
        job.banksUsed = std::min(cfg_.timing.pimParallelBanks,
                                 cfg_.org.banksPerChannel);
        job.gwrites = w.gwrites;
        job.resultBursts = std::max(1, w.resultBursts);
        job.composite = cfg_.flags.compositeGemv();
        job.header = cfg_.flags.compositeGemv();
        job.onComplete = std::move(cb);
        return job;
    }

    /**
     * Split one request's GEMV into the rigid per-head kernels the
     * baseline PIM interface supports (fixed-dimensionality GEMV,
     * §5.2), including the row-utilization penalty of the per-head
     * layout relative to the packed §6.3 layout.
     */
    std::vector<model::GemvKernelWork>
    perHeadKernels(const model::GemvKernelWork &w, int heads) const
    {
        std::vector<model::GemvKernelWork> out;
        if (w.rowTiles == 0)
            return out;
        heads = std::max(1, heads);
        int padded = static_cast<int>(
            static_cast<double>(w.rowTiles) * cfg_.rigidLayoutFactor);
        auto tiles = splitEven(std::max(padded, heads), heads);
        auto bursts = splitEven(w.resultBursts, heads);
        out.reserve(heads);
        for (int h = 0; h < heads; ++h) {
            model::GemvKernelWork k;
            k.rowTiles = std::max(1, tiles[h]);
            k.gwrites = 1; // each head stages its own operand slice
            k.resultBursts = std::max(1, bursts[h]);
            out.push_back(k);
        }
        return out;
    }

    // --- phase drivers ----------------------------------------------------

    void
    startGemmPhase(int ti, Cycle ready)
    {
        Thread &t = threads_[ti];
        t.tLayerStart = ready;
        t.flopsAtLayerStart = flops_;
        const auto &qkv = t.plan.gemms[0];
        auto prefetch = std::move(t.prefetch);
        t.prefetch.reset();
        runGemm(qkv, ready, std::move(prefetch),
                [this, ti](Cycle done) { onQkvDone(ti, done); });
    }

    void
    onQkvDone(int ti, Cycle done)
    {
        Thread &t = threads_[ti];
        t.tQkvDone = done;
        t.flopsAtQkv = flops_;
        t.pimBusyAtQkv = hbm_.totalPimBankBusyCycles();
        // The fresh K/V token vectors must land in the cache before
        // the GEMVs read them.
        dma_.streamPerChannel(
            t.plan.mha.kvAppendBytes, true,
            hbm_.config().org.burstsPerRow(),
            [this, ti](Cycle c) { startMhaPhase(ti, c); });
    }

    void
    startMhaPhase(int ti, Cycle ready)
    {
        Thread &t = threads_[ti];
        if (cfg_.kind == SystemKind::NpuOnly) {
            runMhaOnNpu(ti, ready);
            return;
        }
        // Optional weight prefetch for the next layer's QKV GEMM —
        // only possible with dual row buffers, and superseded by the
        // other sub-batch's GEMM traffic under SBI. The credit is
        // bounded by half the scratchpad (double-buffered panels own
        // the rest).
        if (cfg_.flags.prefetchDuringMha &&
            !cfg_.flags.subBatchInterleaving && !t.prefetch &&
            t.layer + 1 < windowLayers_) {
            Bytes budget = cfg_.npu.scratchpadBytes / 2;
            Bytes want = t.plan.gemms[0].weightBytes();
            Bytes fetch = std::min(budget, want);
            if (fetch > 0) {
                auto pf = std::make_shared<Prefetch>();
                pf->bytes = fetch;
                t.prefetch = pf;
                dma_.streamAllChannels(
                    fetch, false, hbm_.config().org.burstsPerRow(),
                    [pf](Cycle c) {
                        pf->done = true;
                        pf->readyAt = c;
                        if (pf->waiter)
                            pf->waiter(c);
                    });
            }
        }
        runMhaOnPim(ti, ready);
    }

    /** NPU-only MHA: stream the KV cache over the external bus. */
    void
    runMhaOnNpu(int ti, Cycle ready)
    {
        Thread &t = threads_[ti];
        const auto &mha = t.plan.mha;
        // Without PIM there is no reason to localize a request's KV
        // on one channel: pages stripe across the device (vLLM-style
        // paging), so the sweep is channel-balanced by construction.
        Bytes total = 0;
        for (std::size_t ch = 0; ch < mha.logit.size(); ++ch) {
            Bytes tiles = static_cast<Bytes>(mha.logit[ch].rowTiles) +
                          static_cast<Bytes>(mha.attend[ch].rowTiles);
            total += tiles * hbm_.config().org.pageBytes;
        }
        (void)ready; // streams start now; `ready` ordering is implicit
        dma_.streamAllChannels(
            total, false, cfg_.gemvStreamBursts,
            [this, ti](Cycle stream_end) {
                Thread &t2 = threads_[ti];
                Cycle vu = vu_.softmaxCycles(t2.plan.mha.totalSoftmaxElems);
                Cycle end = runVector(stream_end, vu);
                eq_.schedule(std::max(end, eq_.now()), [this, ti, end] {
                    onMhaDone(ti, end);
                });
            });
    }

    /**
     * PIM MHA.
     *
     * NeuPIMs path (pipelinedMha): one composite kernel per request
     * and GEMV phase; the request's softmax runs on the vector units
     * while the channel's PIM already computes the next request's
     * logits (§6.1, Fig. 10) and releases that request's attend
     * kernel when it completes.
     *
     * Baseline path: the rigid PIM interface executes one fixed-
     * width kernel per head, and a channel serializes
     * logit(all) -> softmax(all) -> attend(all) — results only leave
     * the PIM at kernel boundaries, so vector units and PIM cannot
     * overlap within a channel.
     */
    void
    runMhaOnPim(int ti, Cycle ready)
    {
        Thread &t = threads_[ti];
        const auto &mha = t.plan.mha;

        auto state = std::make_shared<MhaState>();
        state->thread = ti;

        // Folded (non-representative) channels are skipped outright:
        // their representative's kernels, completions and statistics
        // stand in for theirs (DESIGN.md §5).
        if (cfg_.flags.pipelinedMha()) {
            for (std::size_t ch = 0; ch < mha.requests.size(); ++ch) {
                if (!hbm_.isRepresentative(static_cast<ChannelId>(ch)))
                    continue;
                auto &ctrl =
                    hbm_.controller(static_cast<ChannelId>(ch));
                for (const auto &req : mha.requests[ch]) {
                    if (req.logit.rowTiles == 0)
                        continue;
                    ++state->outstanding;
                    auto attend_work = req.attend;
                    ctrl.enqueuePim(makePimJob(
                        req.logit,
                        [this, state, attend_work, ch,
                         elems = req.softmaxElems](Cycle logit_done) {
                            Cycle sm_end =
                                channelSoftmax(logit_done, elems);
                            eq_.schedule(
                                std::max(sm_end, eq_.now()),
                                [this, state, attend_work, ch] {
                                    auto &c2 = hbm_.controller(
                                        static_cast<ChannelId>(ch));
                                    c2.enqueuePim(makePimJob(
                                        attend_work,
                                        [this, state](Cycle done) {
                                            kernelDone(state, done);
                                        }));
                                });
                        }));
                }
            }
        } else {
            for (std::size_t ch = 0; ch < mha.requests.size(); ++ch) {
                if (mha.requests[ch].empty())
                    continue;
                if (!hbm_.isRepresentative(static_cast<ChannelId>(ch)))
                    continue;
                ++state->outstanding;
                runBaselineChannelMha(ti, static_cast<ChannelId>(ch),
                                      state);
            }
        }

        if (state->outstanding == 0) {
            // No MHA work at all (empty channels) — degenerate.
            eq_.schedule(std::max(ready, eq_.now()),
                         [this, ti, ready] { onMhaDone(ti, ready); });
        }
    }

    struct MhaState
    {
        int thread = 0;
        int outstanding = 0;
        Cycle lastDone = 0;
    };

    /** Per-channel barrier state of the baseline MHA. */
    struct BaselineChannelState
    {
        int pending = 0;
        Cycle lastDone = 0;
        std::uint64_t softmaxElems = 0;
        std::vector<model::GemvKernelWork> attendKernels;
    };

    void
    runBaselineChannelMha(int ti, ChannelId ch,
                          const std::shared_ptr<MhaState> &state)
    {
        const auto &mha = threads_[ti].plan.mha;
        auto &ctrl = hbm_.controller(ch);
        auto chan = std::make_shared<BaselineChannelState>();
        for (const auto &req : mha.requests[ch]) {
            auto logit_heads =
                perHeadKernels(req.logit, mha.headsPerDevice);
            auto attend_heads =
                perHeadKernels(req.attend, mha.headsPerDevice);
            chan->pending += static_cast<int>(logit_heads.size());
            chan->softmaxElems += req.softmaxElems;
            chan->attendKernels.insert(chan->attendKernels.end(),
                                       attend_heads.begin(),
                                       attend_heads.end());
            for (const auto &k : logit_heads) {
                ctrl.enqueuePim(makePimJob(
                    k, [this, state, chan, ch](Cycle done) {
                        chan->lastDone =
                            std::max(chan->lastDone, done);
                        if (--chan->pending == 0)
                            baselineLogitsDone(state, chan, ch);
                    }));
            }
        }
    }

    void
    baselineLogitsDone(const std::shared_ptr<MhaState> &state,
                       const std::shared_ptr<BaselineChannelState> &chan,
                       ChannelId ch)
    {
        // Exposed softmax: the channel's PIM sits idle while the
        // vector units normalize all its logits.
        Cycle sm_end = channelSoftmax(chan->lastDone, chan->softmaxElems);
        eq_.schedule(std::max(sm_end, eq_.now()), [this, state, chan,
                                                   ch] {
            auto &ctrl = hbm_.controller(ch);
            chan->pending =
                static_cast<int>(chan->attendKernels.size());
            for (const auto &k : chan->attendKernels) {
                ctrl.enqueuePim(makePimJob(
                    k, [this, state, chan](Cycle done) {
                        chan->lastDone =
                            std::max(chan->lastDone, done);
                        if (--chan->pending == 0)
                            kernelDone(state, chan->lastDone);
                    }));
            }
        });
    }

    void
    kernelDone(const std::shared_ptr<MhaState> &state, Cycle done)
    {
        state->lastDone = std::max(state->lastDone, done);
        if (--state->outstanding == 0) {
            Cycle fin = state->lastDone;
            eq_.schedule(std::max(fin, eq_.now()),
                         [this, ti = state->thread, fin] {
                             onMhaDone(ti, fin);
                         });
        }
    }

    void
    onMhaDone(int ti, Cycle done)
    {
        Thread &t = threads_[ti];
        t.tMhaDone = done;
        t.flopsAtMha = flops_;
        recordMhaPhase(ti);
        runProjFfn(ti, done, 1);
    }

    /** Chain projection -> ffn_up -> ffn_down, then finish the layer. */
    void
    runProjFfn(int ti, Cycle ready, std::size_t gemm_index)
    {
        Thread &t = threads_[ti];
        if (gemm_index >= t.plan.gemms.size()) {
            // Layer norms and residual adds ride the vector units.
            Cycle vu = vu_.opCycles(t.plan.vectorElems,
                                    cfg_.npu.vu.layerNormOpsPerElem);
            Cycle end = runVector(ready, vu);
            eq_.schedule(std::max(end, eq_.now()),
                         [this, ti, end] { finishLayer(ti, end); });
            return;
        }
        runGemm(t.plan.gemms[gemm_index], ready, nullptr,
                [this, ti, gemm_index](Cycle done) {
                    runProjFfn(ti, done, gemm_index + 1);
                });
    }

    void
    finishLayer(int ti, Cycle done)
    {
        Thread &t = threads_[ti];
        recordLayer(ti, done);
        t.layerEnd[t.layer] = done;
        ++t.layer;
        if (t.layer == warmupLayers_)
            maybeSnapshotWarmup();
        if (t.layer < windowLayers_)
            startGemmPhase(ti, done);
    }

    void
    maybeSnapshotWarmup()
    {
        for (const auto &t : threads_) {
            if (t.layer < warmupLayers_)
                return;
        }
        flopsAtWarmup_ = flops_;
        pimBusyAtWarmup_ = hbm_.totalPimBankBusyCycles();
        memBusyAtWarmup_ = hbm_.totalMemBankBusyCycles();
    }

    // --- Fig. 6 phase accounting (serial modes, measured layers) --------

    void
    recordMhaPhase(int ti)
    {
        Thread &t = threads_[ti];
        if (threads_.size() > 1 || t.layer < warmupLayers_)
            return;
        Cycle span = t.tMhaDone - t.tQkvDone;
        if (span == 0)
            return;
        phases_.mhaCycles += span;
        double peak = sa_.peakFlopsPerCycle();
        phases_.npuUtilMha +=
            (t.flopsAtMha - t.flopsAtQkv) /
            (peak * static_cast<double>(span));
        double pim_busy = static_cast<double>(
            hbm_.totalPimBankBusyCycles() - t.pimBusyAtQkv);
        double pim_capacity =
            static_cast<double>(span) * hbm_.pimCapacityBanks();
        phases_.pimUtilMha += pim_busy / pim_capacity;
        ++mhaPhaseSamples_;
    }

    void
    recordLayer(int ti, Cycle done)
    {
        Thread &t = threads_[ti];
        if (threads_.size() > 1 || t.layer < warmupLayers_)
            return;
        Cycle qkv_span = t.tQkvDone - t.tLayerStart;
        Cycle proj_span = done - t.tMhaDone;
        double peak = sa_.peakFlopsPerCycle();
        if (qkv_span > 0) {
            phases_.qkvCycles += qkv_span;
            phases_.npuUtilQkv +=
                (t.flopsAtQkv - t.flopsAtLayerStart) /
                (peak * static_cast<double>(qkv_span));
        }
        if (proj_span > 0) {
            phases_.projFfnCycles += proj_span;
            phases_.npuUtilProjFfn +=
                (flops_ - t.flopsAtMha) /
                (peak * static_cast<double>(proj_span));
        }
        ++layerSamples_;
    }

    /** Average the accumulated per-layer phase numbers. */
    void
    finalizePhases()
    {
        if (layerSamples_ > 0) {
            phases_.npuUtilQkv /= layerSamples_;
            phases_.npuUtilProjFfn /= layerSamples_;
            phases_.qkvCycles /= layerSamples_;
            phases_.projFfnCycles /= layerSamples_;
        }
        if (mhaPhaseSamples_ > 0) {
            phases_.npuUtilMha /= mhaPhaseSamples_;
            phases_.pimUtilMha /= mhaPhaseSamples_;
            phases_.mhaCycles /= mhaPhaseSamples_;
        }
    }

    // The first data member, so destroyed last: the stack and the DMA
    // engine hold references to it.
    EventQueue eq_;
    dram::HbmStack hbm_;
    npu::DmaEngine dma_;
    npu::SystolicArrayPool sa_;
    npu::VectorUnitPool vu_;
    Cycle saFree_ = 0; ///< systolic arrays' timeline
    Cycle vuFree_ = 0; ///< vector units' timeline
    const DeviceConfig &cfg_;
    ExtraMemTraffic extra_;

    int windowLayers_;
    int warmupLayers_;
    std::vector<Thread> threads_;
    Flops flops_ = 0.0; ///< useful GEMM FLOPs executed so far
    int layerSamples_ = 0;
    int mhaPhaseSamples_ = 0;

    Flops flopsAtWarmup_ = 0.0;
    Cycle pimBusyAtWarmup_ = 0;
    Cycle memBusyAtWarmup_ = 0;
    PhaseBreakdown phases_;
    Cycle extraEnd_ = 0; ///< last ExtraMemTraffic row completion
};

} // namespace

DeviceExecutor::DeviceExecutor(const DeviceConfig &cfg,
                               const model::LlmConfig &model, int tp,
                               int layers_per_device)
    : cfg_(cfg), layersPerDevice_(layers_per_device),
      compiler_(model, tp,
                model::MemShape{cfg.org.channels, cfg.org.banksPerChannel,
                                cfg.org.pageBytes, cfg.org.burstBytes})
{
    NEUPIMS_ASSERT(layersPerDevice_ >= 1);
}

IterationResult
DeviceExecutor::runIteration(const BatchComposition &batch,
                             int window_layers, int warmup_layers)
{
    return runIteration(batch, ExtraMemTraffic{}, window_layers,
                        warmup_layers);
}

IterationResult
DeviceExecutor::runIteration(const BatchComposition &batch,
                             const ExtraMemTraffic &extra,
                             int window_layers, int warmup_layers)
{
    return run(batch, extra, window_layers, warmup_layers, true);
}

IterationResult
DeviceExecutor::run(const BatchComposition &batch,
                    const ExtraMemTraffic &extra, int window_layers,
                    int warmup_layers, bool fold,
                    const std::function<void(const dram::HbmStack &)> &inspect)
{
    NEUPIMS_ASSERT(window_layers > warmup_layers && warmup_layers >= 1);
    // Never simulate more layers than the device actually holds.
    if (window_layers > layersPerDevice_ && layersPerDevice_ >= 2)
        window_layers = layersPerDevice_;
    NEUPIMS_ASSERT(layersPerDevice_ >= window_layers,
                   "device must hold at least the window: ",
                   layersPerDevice_, " < ", window_layers);

    // One plan per thread; the plans also decide the fold.
    std::vector<model::LayerPlan> plans;
    if (usesSubBatchInterleaving(cfg_, batch)) {
        plans.push_back(compiler_.compileLayer(batch.sb1));
        plans.push_back(compiler_.compileLayer(batch.sb2));
    } else {
        // A sub-batch too small to split falls back to serial
        // execution (the paper notes SBI can hurt tiny batches).
        plans.push_back(compiler_.compileLayer(batch.full));
    }

    auto groups =
        fold ? computeSymmetryGroups(cfg_.org.channels, plans,
                                     cfg_.kind != SystemKind::NpuOnly)
             : dram::SymmetryGroups::identity(cfg_.org.channels);
    lastSymmetryClasses_ = groups.numClasses;
    IterationSim sim(cfg_, std::move(groups), std::move(plans),
                     window_layers, warmup_layers, extra);
    sim.run();
    if (inspect)
        inspect(sim.hbm());
    return sim.result(layersPerDevice_, batch.batchSize());
}

} // namespace neupims::core
