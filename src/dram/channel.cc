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

Channel::ColumnTrain
Channel::issueColumnTrain(BankId bank, BufferSide side, bool write, int n,
                          Cycle until)
{
    const auto &t = *timing_;
    ColumnTrain tr;
    tr.first = earliestColumn(bank, side, 0);
    tr.step = std::max(t.caMemCmd, t.tBL);
    if (n <= 0 || tr.first >= until)
        return tr;
    // The first burst may wait for the data bus. Each later one waits
    // only for its predecessor's C/A slot and data burst: burst i
    // issues at when0 + i * step, its candidate caMemCmd after burst
    // i - 1.
    const Cycle lat = write ? t.tCWL : t.tCL;
    const Cycle start = std::max(tr.first + lat, dataNextFree_);
    const Cycle when0 = start - lat;
    tr.next = when0 + t.caMemCmd;
    // Burst i >= 1 issues while its candidate stays below until.
    auto k = static_cast<Cycle>(n);
    if (n > 1 && tr.next + (k - 2) * tr.step >= until)
        k = tr.next < until ? (until - tr.next - 1) / tr.step + 2 : 1;
    tr.issued = static_cast<int>(k);
    // Precharge readiness only grows with the issue cycle, so the last
    // burst sets it.
    const Cycle last = when0 + (k - 1) * tr.step;
    if (write)
        banks_.write(bank, side, last);
    else
        banks_.read(bank, side, last);
    caNextFree_ = last + t.caMemCmd;
    caBusyCycles_ += k * t.caMemCmd;
    tr.dataEnd = dataNextFree_ = last + lat + t.tBL;
    recordDataBusy(start, k, tr.step);
    dataBusBytes_ += org_->burstBytes * k;
    counts_.record(write ? CommandType::Wr : CommandType::Rd, k);
    return tr;
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
    NEUPIMS_ASSERT(bursts >= 1);
    Cycle start = std::max(not_before, dataNextFree_);
    Cycle end = start + t.tBL * static_cast<Cycle>(bursts);
    dataNextFree_ = end;
    recordDataBusy(start, static_cast<Cycle>(bursts), t.tBL);
    dataBusBytes_ += org_->burstBytes * static_cast<Bytes>(bursts);
    return {start, end};
}

double
Channel::dataBusUtilization(Cycle from, Cycle to) const
{
    NEUPIMS_ASSERT(to > from);
    const Cycle burst = timing_->tBL;
    // Busy cycles of span @p s before cycle @p x.
    auto before = [burst](const BusySpan &s, Cycle x) -> Cycle {
        if (x <= s.start)
            return 0;
        const Cycle q = std::min(x, s.end()) - s.start;
        return q / s.period * burst + std::min(q % s.period, burst);
    };
    // Spans are disjoint and in time order: skip those that end by from.
    auto it = std::partition_point(
        dataBusy_.begin(), dataBusy_.end(),
        [from](const BusySpan &s) { return s.end() <= from; });
    Cycle busy = 0;
    for (; it != dataBusy_.end() && it->start < to; ++it)
        busy += before(*it, to) - before(*it, from);
    return static_cast<double>(busy) / static_cast<double>(to - from);
}

} // namespace neupims::dram
