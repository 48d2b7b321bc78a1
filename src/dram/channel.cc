#include "dram/channel.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::dram {

Channel::Channel(const TimingParams &timing, const Organization &org,
                 bool dual_row_buffers)
    : timing_(&timing), org_(&org),
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
Channel::issueActivate(BankId bank, int row, Cycle not_before)
{
    Cycle when = earliestActivate(bank, not_before);
    banks_.activate(bank, BufferSide::Mem, row, when);
    recordActivate(bank, when);
    caNextFree_ = when + timing_->caMemCmd;
    counts_.record(CommandType::Act);
    if (sink_)
        sink_->push_back({when, CommandType::Act, bank, row});
    return when;
}

Channel::ColumnTrain
Channel::issueColumnTrain(BankId bank, bool write, int n, Cycle until)
{
    const auto &t = *timing_;
    ColumnTrain tr;
    tr.first = earliestColumn(bank, 0);
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
        banks_.write(bank, BufferSide::Mem, last);
    else
        banks_.read(bank, BufferSide::Mem, last);
    caNextFree_ = last + t.caMemCmd;
    tr.dataEnd = dataNextFree_ = last + lat + t.tBL;
    recordDataBusy(start, k, tr.step);
    dataBusBytes_ += org_->burstBytes * k;
    const CommandType type = write ? CommandType::Wr : CommandType::Rd;
    counts_.record(type, k);
    if (sink_)
        for (Cycle i = 0; i < k; ++i)
            sink_->push_back({when0 + i * tr.step, type, bank,
                              banks_.openRow(bank, BufferSide::Mem)});
    return tr;
}

Cycle
Channel::issuePrecharge(BankId bank, Cycle not_before)
{
    Cycle when = std::max(not_before,
                          banks_.earliestPrecharge(bank, BufferSide::Mem));
    when = std::max(when, caNextFree_);
    const int row = banks_.openRow(bank, BufferSide::Mem);
    banks_.precharge(bank, BufferSide::Mem, when);
    caNextFree_ = when + timing_->caMemCmd;
    counts_.record(CommandType::Pre);
    if (sink_)
        sink_->push_back({when, CommandType::Pre, bank, row});
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
    counts_.record(CommandType::Ref);
    if (sink_)
        sink_->push_back({when, CommandType::Ref, -1, -1});
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
        counts_.record(CommandType::PimActivate);
    }
    // Logged by its first bank, with or without a C/A slot.
    if (sink_)
        sink_->push_back({when, CommandType::PimActivate, first, row});
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
    Cycle when = std::max(not_before, caNextFree_);
    caNextFree_ = when + timing_->caPimCmd;
    counts_.record(type);
    if (sink_)
        sink_->push_back({when, type, -1, -1});
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

Channel::PeriodMark
Channel::periodMark() const
{
    PeriodMark m;
    m.spans = dataBusy_.size();
    m.spanEnd = dataBusy_.empty() ? 0 : dataBusy_.back().end();
    m.counts = counts_;
    m.dataBytes = dataBusBytes_;
    m.logged = sink_ ? sink_->size() : 0;
    return m;
}

void
Channel::normalize(std::vector<Cycle> &out, Cycle now, BankId origin,
                   std::int64_t lin) const
{
    const auto &t = *timing_;
    // An ACT tracker binds while its cycle (stored + 1, 0 for none)
    // plus its spacing lies ahead of now.
    auto act = [now](Cycle stored, Cycle gap) -> Cycle {
        return stored != 0 && stored - 1 + gap > now ? stored - 1 + gap - now
                                                     : 0;
    };
    out.push_back(caNextFree_ > now ? caNextFree_ - now : 0);
    out.push_back(dataNextFree_ - now);
    out.push_back(dataBusy_.empty() ? 0 : dataBusy_.back().period);
    const auto ring = static_cast<int>(actRing_.size());
    for (int i = 0; i < ring; ++i)
        out.push_back(act(actRing_[(actRingHead_ + i) % ring], t.tFAW));
    out.push_back(act(lastActAny_, t.tRRD_S));
    const auto groups = static_cast<int>(lastActPerGroup_.size());
    for (int g = 0; g < groups; ++g)
        out.push_back(act(lastActPerGroup_[static_cast<std::size_t>(
                              (bankGroup(origin) + g) % groups)],
                          t.tRRD_L));
    out.push_back(static_cast<Cycle>(postponedRefreshes_));
    banks_.normalize(out, now, origin, lin);
}

void
Channel::advancePeriods(const PeriodMark &m, Cycle dt, std::int64_t rows,
                        std::uint64_t k)
{
    const auto &t = *timing_;
    const auto n = static_cast<std::int64_t>(numBanks());
    // Busy spans: each period grows the span before it as the mark's
    // period grew its last span, then appends copies of the spans it
    // logged; copy those first, since growing the last span may grow
    // one of them.
    const Cycle grown_end = m.spans ? dataBusy_[m.spans - 1].end() : 0;
    const Cycle period = m.spans ? dataBusy_[m.spans - 1].period : 1;
    spanCopy_.assign(dataBusy_.begin() + static_cast<std::ptrdiff_t>(m.spans),
                     dataBusy_.end());
    for (Cycle j = 1; j <= k; ++j) {
        if (grown_end > m.spanEnd)
            recordDataBusy(m.spanEnd - t.tBL + period + j * dt,
                           (grown_end - m.spanEnd) / period, period);
        for (const BusySpan &s : spanCopy_)
            recordDataBusy(s.start + j * dt, (s.length - t.tBL) / s.period + 1,
                           s.period);
    }
    if (sink_) {
        const std::size_t end = sink_->size();
        for (std::int64_t j = 1; j <= static_cast<std::int64_t>(k); ++j) {
            for (std::size_t q = m.logged; q < end; ++q) {
                CommandRecord r = (*sink_)[q];
                const std::int64_t lin = std::int64_t{r.row} * n + r.bank +
                                         j * rows;
                r.cycle += static_cast<Cycle>(j) * dt;
                r.bank = static_cast<BankId>(lin % n);
                r.row = static_cast<int>(lin / n);
                sink_->push_back(r);
            }
        }
    }
    // Counters repeat.
    for (int i = 0; i < kNumCommandTypes; ++i)
        counts_.counts[i] += k * (counts_.counts[i] - m.counts.counts[i]);
    dataBusBytes_ += k * (dataBusBytes_ - m.dataBytes);

    // The timing state, k periods on.
    const Cycle shift = k * dt;
    const std::int64_t moved = static_cast<std::int64_t>(k) * rows;
    caNextFree_ += shift;
    dataNextFree_ += shift;
    auto later = [shift](Cycle &stored) {
        if (stored != 0)
            stored += shift;
    };
    // The ACT window holds no bank: only its order from the head is
    // read, so it moves in place. The per-group trackers turn with the
    // banks, whole groups at a time.
    for (Cycle &c : actRing_)
        later(c);
    later(lastActAny_);
    const auto groups = static_cast<std::int64_t>(lastActPerGroup_.size());
    std::rotate(lastActPerGroup_.begin(),
                lastActPerGroup_.end() -
                    (moved / org_->banksPerGroup) % groups,
                lastActPerGroup_.end());
    for (Cycle &c : lastActPerGroup_)
        later(c);
    banks_.advance(shift, moved);
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
