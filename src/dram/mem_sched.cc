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

bool
MemArbiter::choosePim(const ArbView &v)
{
    switch (cfg_.kind) {
      case MemSchedKind::FrFcfs:
        // The historical arbitration: earliest candidate issues, PIM
        // wins ties (§5.3). The executor golden pins it bit-for-bit.
        return v.cp <= v.cm;
      case MemSchedKind::PimFrFcfs:
        // An active kernel's commands drain ahead of MEM activates and
        // precharges, but MEM row hits pass untouched and the cap on
        // consecutively deferred MEM decisions guarantees the MEM
        // stream forward progress.
        if (v.cp <= v.cm)
            return true; // PIM is earliest anyway (FR-FCFS agrees)
        if (v.memIsRowHit)
            return false; // row hits cost no row-buffer state: let pass
        return deferred_ < cfg_.pimStarveCap;
      case MemSchedKind::Paws:
        // GPGPU-Sim dram_sched_paws shape: a PIM stint is capped at
        // pawsPimCap commands once MEM work waits; the MEM stint budget
        // is the job backlog captured at switch time — drain what
        // accumulated, no more. Both caps bound every stint, so neither
        // class can be starved. PAWS bins pending requests per row to
        // serve row hits first; an NPU stream opens each row once, so
        // there are no bins here (DESIGN.md §11). Both classes have
        // work here, so neither switch can deadlock.
        if (pimMode_ ? cfg_.pawsPimCap > 0 &&
                           pimCmdsThisStint_ >= cfg_.pawsPimCap
                     : memJobsThisStint_ >= memStintBudget_) {
            pimMode_ = !pimMode_;
            ++stats_.modeSwitches;
            pimCmdsThisStint_ = 0;
            memJobsThisStint_ = 0;
            if (!pimMode_)
                memStintBudget_ = std::max<std::size_t>(1, v.memPending);
        }
        return pimMode_;
    }
    return v.cp <= v.cm;
}

void
MemArbiter::recordIssue(const ArbView &v, bool picked_pim)
{
    if (picked_pim) {
        ++stats_.pimCommands;
        if (v.cm < v.cp)
            stats_.pimWasteCycles += v.cp - v.cm;
    } else if (v.cp < v.cm) {
        stats_.pimStallCycles += v.cm - v.cp;
    }
    switch (cfg_.kind) {
      case MemSchedKind::FrFcfs:
        break;
      case MemSchedKind::PimFrFcfs:
        if (!picked_pim)
            deferred_ = 0;
        else if (v.cm < v.cp)
            ++deferred_; // a ready MEM command waited for this
        break;
      case MemSchedKind::Paws:
        if (picked_pim)
            ++pimCmdsThisStint_;
        break;
    }
}

} // namespace neupims::dram
