#include "dram/channel.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::dram {

Channel::Channel(const TimingParams &timing, const Organization &org,
                 bool dual_row_buffers)
    : timing_(&timing), org_(&org), dualRowBuffers_(dual_row_buffers),
      banks_(timing, dual_row_buffers, org.banksPerChannel),
      lastActPerGroup_(org.bankGroups(), 0), nextRefresh_(timing.tREFI)
{}

void
Channel::recordActivate(BankId bank, Cycle when)
{
    actRing_[actRingHead_] = when + 1;
    actRingHead_ = (actRingHead_ + 1) % static_cast<int>(actRing_.size());
    lastActAny_ = std::max(lastActAny_, when + 1);
    lastActPerGroup_[bankGroup(bank)] =
        std::max(lastActPerGroup_[bankGroup(bank)], when + 1);
}

Cycle
Channel::issueActivate(BankId bank, BufferSide side, int row,
                       Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = earliestActivate(bank, side, not_before);
    banks_.activate(bank, side, row, when);
    recordActivate(bank, when);
    caNextFree_ = when + t.caMemCmd;
    caBusyCycles_ += t.caMemCmd;
    counts_.record(side == BufferSide::Pim ? CommandType::PimActivate
                                           : CommandType::Act);
    return when;
}

Cycle
Channel::issuePrecharge(BankId bank, BufferSide side, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = std::max(not_before,
                          banks_.earliestPrecharge(bank, side));
    when = std::max(when, caNextFree_);
    banks_.precharge(bank, side, when);
    caNextFree_ = when + t.caMemCmd;
    caBusyCycles_ += t.caMemCmd;
    counts_.record(side == BufferSide::Pim ? CommandType::PimPrecharge
                                           : CommandType::Pre);
    return when;
}

Cycle
Channel::issueRefresh(Cycle not_before)
{
    const auto &t = *timing_;
    // All banks must be precharged; wait for every bank to be
    // precharge-ready, then precharge implicitly (REF closes rows).
    Cycle when = std::max(not_before, caNextFree_);
    when = std::max(when, banks_.maxEarliestPrecharge());
    banks_.refreshAll(when);
    caNextFree_ = when + t.caMemCmd;
    caBusyCycles_ += t.caMemCmd;
    counts_.record(CommandType::Ref);
    nextRefresh_ += t.tREFI * (1 + postponedRefreshes_);
    postponedRefreshes_ = 0;
    return when + t.tRFC;
}

Cycle
Channel::earliestPimActivateGroup(BankId first, int nbanks,
                                  Cycle not_before, bool needs_ca) const
{
    Cycle when = not_before;
    for (int i = 0; i < nbanks; ++i)
        when = std::max(when, banks_.earliestActivate(
                                  first + i, BufferSide::Pim));
    when = actWindowConstraint(first, when);
    if (needs_ca)
        when = std::max(when, caNextFree_);
    return when;
}

Cycle
Channel::issuePimActivateGroup(BankId first, int nbanks, int row,
                               Cycle not_before, bool charge_ca)
{
    const auto &t = *timing_;
    NEUPIMS_ASSERT(first + nbanks <= numBanks());
    Cycle when = earliestPimActivateGroup(first, nbanks, not_before,
                                          charge_ca);
    for (int i = 0; i < nbanks; ++i)
        banks_.activate(first + i, BufferSide::Pim, row, when);
    recordActivate(first, when);
    if (charge_ca) {
        caNextFree_ = when + t.caPimCmd;
        caBusyCycles_ += t.caPimCmd;
        counts_.record(CommandType::PimActivate);
    }
    return when;
}

bool
Channel::postponeRefresh()
{
    // JEDEC allows postponing up to 8 refresh commands.
    if (postponedRefreshes_ >= 8)
        return false;
    ++postponedRefreshes_;
    nextRefresh_ += timing_->tREFI;
    return true;
}

Cycle
Channel::issuePimCaCommand(CommandType type, Cycle not_before)
{
    const auto &t = *timing_;
    Cycle when = std::max(not_before, caNextFree_);
    caNextFree_ = when + t.caPimCmd;
    caBusyCycles_ += t.caPimCmd;
    counts_.record(type);
    return when;
}

std::pair<Cycle, Cycle>
Channel::reserveDataBus(Cycle not_before, int bursts)
{
    const auto &t = *timing_;
    Cycle start = std::max(not_before, dataNextFree_);
    Cycle end = start + t.tBL * static_cast<Cycle>(bursts);
    dataNextFree_ = end;
    recordDataBusy(start, end);
    dataBusBytes_ += org_->burstBytes * static_cast<Bytes>(bursts);
    return {start, end};
}

double
Channel::dataBusUtilization(Cycle from, Cycle to) const
{
    NEUPIMS_ASSERT(to > from);
    Cycle busy = 0;
    for (const auto &[s, e] : dataBusy_) {
        Cycle lo = std::max(s, from);
        Cycle hi = std::min(e, to);
        if (hi > lo)
            busy += hi - lo;
    }
    return static_cast<double>(busy) / static_cast<double>(to - from);
}

} // namespace neupims::dram
