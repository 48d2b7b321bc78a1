#include "dram/mem_sched.h"

#include <algorithm>

#include "common/types.h"

namespace neupims::dram {

const char *
memSchedKindName(MemSchedKind kind)
{
    switch (kind) {
      case MemSchedKind::FrFcfs:
        return "frfcfs";
      case MemSchedKind::PimFrFcfs:
        return "pim-frfcfs";
      case MemSchedKind::Paws:
        return "paws";
    }
    return "frfcfs";
}

bool
parseMemSchedKind(const std::string &name, MemSchedKind &out)
{
    if (name == "frfcfs") {
        out = MemSchedKind::FrFcfs;
        return true;
    }
    if (name == "pim-frfcfs") {
        out = MemSchedKind::PimFrFcfs;
        return true;
    }
    if (name == "paws") {
        out = MemSchedKind::Paws;
        return true;
    }
    return false;
}

void
MemSchedPolicy::recordIssue(const ArbView &v, bool picked_pim)
{
    if (picked_pim) {
        ++stats_.pimCommands;
        if (v.cm < v.cp)
            stats_.pimWasteCycles += v.cp - v.cm;
    } else if (v.cp < v.cm) {
        stats_.pimStallCycles += v.cm - v.cp;
    }
    onIssue(v, picked_pim);
}

namespace {

/**
 * The historical arbitration, extracted verbatim: earliest candidate
 * issues, PIM wins ties (§5.3). The executor golden pins this choice
 * function bit-for-bit against the pre-refactor controller.
 */
class FrFcfsPolicy final : public MemSchedPolicy
{
  public:
    MemSchedKind kind() const override { return MemSchedKind::FrFcfs; }

    bool
    choosePim(const ArbView &v) override
    {
        return v.cp <= v.cm;
    }
};

/**
 * PIM-priority FR-FCFS (Sacusa pim_frfcfs shape): an active kernel's
 * commands drain ahead of MEM activates/precharges, but MEM row hits
 * pass untouched and a cap on consecutively deferred MEM decisions
 * guarantees forward progress for the MEM stream.
 */
class PimFrFcfsPolicy final : public MemSchedPolicy
{
  public:
    explicit PimFrFcfsPolicy(const MemSchedConfig &cfg) : cfg_(cfg) {}

    MemSchedKind kind() const override { return MemSchedKind::PimFrFcfs; }

    bool
    choosePim(const ArbView &v) override
    {
        if (v.cp <= v.cm)
            return true; // PIM is earliest anyway (FR-FCFS agrees)
        if (v.memIsRowHit)
            return false; // row hits cost no row-buffer state: let pass
        if (deferred_ >= cfg_.pimStarveCap)
            return false; // starvation cap: force one MEM service
        return true;      // drain the kernel at priority
    }

  protected:
    void
    onIssue(const ArbView &v, bool picked_pim) override
    {
        if (!picked_pim)
            deferred_ = 0;
        else if (v.cm < v.cp)
            ++deferred_; // a ready MEM command waited for this
    }

  private:
    MemSchedConfig cfg_;
    int deferred_ = 0;
};

/**
 * PAWS-style cap-and-switch (GPGPU-Sim dram_sched_paws shape): the
 * channel runs in an explicit mode. A PIM stint is capped at
 * `pawsPimCap` commands once MEM work waits; the MEM stint budget is
 * the job backlog captured at switch time — drain what accumulated,
 * no more. Both caps bound every stint, so neither class can be
 * starved. PAWS bins pending requests per row to serve row hits
 * first; an NPU stream opens each row once, so there are no bins here
 * (DESIGN.md §11).
 */
class PawsPolicy final : public MemSchedPolicy
{
  public:
    explicit PawsPolicy(const MemSchedConfig &cfg) : cfg_(cfg) {}

    MemSchedKind kind() const override { return MemSchedKind::Paws; }

    bool
    choosePim(const ArbView &v) override
    {
        updateMode(v);
        return mode_ == Mode::Pim;
    }

  protected:
    void
    onIssue(const ArbView &v, bool picked_pim) override
    {
        (void)v;
        if (picked_pim)
            ++pimCmdsThisStint_;
    }

    void
    onMemJobsCompleted(std::uint64_t n) override
    {
        memJobsThisStint_ += n;
    }

  private:
    enum class Mode { Mem, Pim };

    void
    updateMode(const ArbView &v)
    {
        // choosePim() runs only when both classes have work, so the
        // "other class empty" transitions never deadlock here.
        if (mode_ == Mode::Pim) {
            if (cfg_.pawsPimCap > 0 &&
                pimCmdsThisStint_ >= cfg_.pawsPimCap)
                switchTo(Mode::Mem, v);
        } else if (memJobsThisStint_ >= memStintBudget_) {
            switchTo(Mode::Pim, v);
        }
    }

    void
    switchTo(Mode mode, const ArbView &v)
    {
        mode_ = mode;
        ++stats_.modeSwitches;
        pimCmdsThisStint_ = 0;
        memJobsThisStint_ = 0;
        if (mode == Mode::Mem)
            memStintBudget_ =
                std::max<std::size_t>(1, v.memPending);
    }

    MemSchedConfig cfg_;
    Mode mode_ = Mode::Pim; // a queued kernel claims the channel first
    int pimCmdsThisStint_ = 0;
    std::size_t memJobsThisStint_ = 0;
    std::size_t memStintBudget_ = 1;
};

} // namespace

std::unique_ptr<MemSchedPolicy>
makeMemSchedPolicy(const MemSchedConfig &cfg)
{
    switch (cfg.kind) {
      case MemSchedKind::FrFcfs:
        return std::make_unique<FrFcfsPolicy>();
      case MemSchedKind::PimFrFcfs:
        return std::make_unique<PimFrFcfsPolicy>(cfg);
      case MemSchedKind::Paws:
        return std::make_unique<PawsPolicy>(cfg);
    }
    return std::make_unique<FrFcfsPolicy>();
}

} // namespace neupims::dram
