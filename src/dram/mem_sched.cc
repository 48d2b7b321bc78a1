#include "dram/mem_sched.h"

#include <algorithm>

#include "common/types.h"

namespace neupims::dram {

namespace {

/** Paws: PIM commands per PIM-mode stint before the channel switches
 * to MEM mode (when MEM work is waiting). */
constexpr int kPawsPimCap = 48;

} // namespace

const char *
memSchedKindName(MemSchedKind kind)
{
    return kind == MemSchedKind::Paws ? "paws" : "frfcfs";
}

bool
parseMemSchedKind(const std::string &name, MemSchedKind &out)
{
    if (name == "frfcfs")
        out = MemSchedKind::FrFcfs;
    else if (name == "paws")
        out = MemSchedKind::Paws;
    else
        return false;
    return true;
}

bool
MemArbiter::choosePim(const ArbView &v)
{
    // FR-FCFS: earliest candidate issues, PIM wins ties (§5.3). The
    // executor golden pins it bit-for-bit.
    if (kind_ == MemSchedKind::FrFcfs)
        return v.cp <= v.cm;
    // Paws, GPGPU-Sim dram_sched_paws shape: a PIM stint is capped at
    // kPawsPimCap commands once MEM work waits; the MEM stint budget is
    // the job backlog captured at switch time — drain what accumulated,
    // no more. Both caps bound every stint, so neither class can be
    // starved. PAWS bins pending requests per row to serve row hits
    // first; an NPU stream opens each row once, so there are no bins
    // here (DESIGN.md §11). Both classes have work here, so neither
    // switch can deadlock.
    if (pimMode_ ? pimCmdsThisStint_ >= kPawsPimCap
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

void
MemArbiter::recordIssue(const ArbView &v, bool picked_pim)
{
    if (picked_pim) {
        ++stats_.pimCommands;
        if (v.cm < v.cp)
            stats_.pimWasteCycles += v.cp - v.cm;
        if (kind_ == MemSchedKind::Paws)
            ++pimCmdsThisStint_;
    } else if (v.cp < v.cm) {
        stats_.pimStallCycles += v.cm - v.cp;
    }
}

} // namespace neupims::dram
