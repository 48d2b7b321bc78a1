/**
 * @file
 * Allocation guard for the serving boundary (DESIGN.md §6): once a
 * run reaches steady state, an iteration boundary — the engine loop,
 * the scheduler, the KV cache and the analytic iteration model —
 * makes no heap allocation; every per-channel list lives in storage
 * the scheduler and the model reuse. The test replaces the global
 * operator new with a counting one, so it runs in its own executable,
 * and reads the count at every latency-model call of a seeded
 * session-KV analytic run (prefix sharing, recompute preemption,
 * edf).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/serving_setup.h"
#include "model/llm_config.h"
#include "runtime/serving_engine.h"

namespace {

/** Global operator new calls so far (the engine is single-threaded). */
std::uint64_t gAllocations = 0;

void *
countedAlloc(std::size_t size)
{
    ++gAllocations;
    return std::malloc(size ? size : 1);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace neupims {
namespace {

/**
 * Decorator that snapshots the allocation count at every call: the
 * difference between two consecutive snapshots is what one whole
 * boundary allocated (the previous call's pricing, the engine's
 * bookkeeping and the next schedule).
 */
class AllocationProbe : public runtime::IterationLatencyModel
{
  public:
    explicit AllocationProbe(runtime::IterationLatencyModel &inner)
        : inner_(inner)
    {
        perBoundary_.reserve(1 << 16);
    }

    const std::string &name() const override { return inner_.name(); }

    Cycle
    iterationCycles(const runtime::IterationSchedule &schedule) override
    {
        const std::uint64_t now = gAllocations;
        if (calls_++ > 0 && perBoundary_.size() < perBoundary_.capacity())
            perBoundary_.push_back(now - last_);
        last_ = now;
        return inner_.iterationCycles(schedule);
    }

    const std::vector<std::uint64_t> &
    perBoundary() const
    {
        return perBoundary_;
    }

  private:
    runtime::IterationLatencyModel &inner_;
    std::vector<std::uint64_t> perBoundary_;
    std::uint64_t calls_ = 0;
    std::uint64_t last_ = 0;
};

TEST(ServingBoundary, SteadyStateBoundaryAllocatesNothing)
{
    // simbench's serve_session_kv workload at a tenth of its requests.
    auto llm = model::gpt3_13b();
    const auto &dev = core::servingBackendByName("NeuPIMs+SBI").device;
    core::ServingRun run;
    run.traffic = "session";
    run.maxLen = 512;
    run.rate = 28.0;
    run.requests = 2000;
    run.seed = 7;
    run.classes = "two-tier";
    run.options.preempt = "recompute";
    run.options.policy = "edf";
    run.options.kvScale = 2;
    run.options.prefixShare = true;
    core::ServingSetup setup = core::setupServingRun(dev, llm, run);
    auto model = core::makeIterationModel(dev, llm);
    AllocationProbe probe(*model);
    runtime::ServingEngine engine(setup.config, *setup.traffic, probe);
    runtime::ServingReport report = engine.run();
    ASSERT_FALSE(report.hitSafetyStop);
    ASSERT_GT(report.preemptions, 0u);
    ASSERT_GT(report.prefixHits, 0u);

    // Skip the ramp-up, where the reused storage grows to the run's
    // batch and channel sizes.
    const auto &all = probe.perBoundary();
    ASSERT_GT(all.size(), 4000u);
    std::vector<std::uint64_t> steady(all.begin() + 1000, all.end());
    std::uint64_t total = 0;
    for (std::uint64_t n : steady)
        total += n;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(steady.size());
    std::nth_element(steady.begin(),
                     steady.begin() + static_cast<std::ptrdiff_t>(
                                          steady.size() / 2),
                     steady.end());
    const std::uint64_t median = steady[steady.size() / 2];
    // What remains is per request, not per boundary (0.99 per boundary
    // on this run): an admission creates its KV sequence, copies its
    // prompt and reserves its shared-node list once, from the prompt's
    // page count; a new index node gets its token and child lists; and
    // a retirement returns its id list. One allocation more per
    // boundary breaks the bound.
    EXPECT_EQ(median, 0u);
    EXPECT_LT(mean, 1.2) << "over " << steady.size() << " boundaries";
}

} // namespace
} // namespace neupims
