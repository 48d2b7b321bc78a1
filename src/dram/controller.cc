#include "dram/controller.h"

#include <algorithm>

namespace neupims::dram {

namespace {

/** Integer ceiling division. */
constexpr int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

/** Bit mask of banks [first, first + n). */
constexpr std::uint64_t
bankSpan(int first, int n)
{
    return (n >= 64 ? ~0ULL : (1ULL << n) - 1) << first;
}

} // namespace

MemoryController::MemoryController(EventQueue &eq,
                                   const TimingParams &timing,
                                   const Organization &org,
                                   ControllerConfig cfg)
    : eq_(eq), cfg_(cfg), channel_(timing, org, cfg.dualRowBuffers),
      arbiter_(cfg.sched)
{
    NEUPIMS_ASSERT(channel_.numBanks() <= 64,
                   "bank occupancy mask holds at most 64 banks");
    memInFlight_.reserve(cfg_.memIssueWindow);
    // One process() call can complete several jobs.
    completions_.reserve(64);
    // Periods of one and two bank groups' rows (DESIGN.md §3.6).
    admitTimes_.assign(
        static_cast<std::size_t>(4 * org.banksPerGroup + 1), 0);
}

void
MemoryController::enqueueMem(MemJob job)
{
    NEUPIMS_ASSERT(!epoch_ || !epoch_->replaying,
                   "a completion enqueued during an epoch replay");
    NEUPIMS_ASSERT(job.bank >= 0 && job.bank < channel_.numBanks());
    NEUPIMS_ASSERT(job.bursts >= 1 &&
                   job.bursts <= channel_.organization().burstsPerRow());
    NEUPIMS_ASSERT(job.rows >= 1 && job.tailBursts >= 0 &&
                   job.tailBursts <= job.bursts);
    MemStream s{job.bank, job.row, job.rows, job.bursts,
                job.tailBursts ? job.tailBursts : job.bursts, job.write,
                -1};
    if (job.onComplete) {
        if (freeDone_.empty()) {
            freeDone_.push_back(static_cast<int>(streamDone_.size()));
            streamDone_.emplace_back();
        }
        s.done = freeDone_.back();
        freeDone_.pop_back();
        streamDone_[s.done] = {
            std::move(job.onComplete), job.rows, 0,
            static_cast<std::uint64_t>(job.rows - 1) *
                    static_cast<std::uint64_t>(s.bursts) +
                static_cast<std::uint64_t>(s.tailBursts)};
    }
    queuedRows_ += static_cast<std::size_t>(job.rows);
    memQueue_.push_back(s);
    kick();
}

void
MemoryController::enqueuePim(PimJob job)
{
    NEUPIMS_ASSERT(job.rowTiles >= 1);
    NEUPIMS_ASSERT(job.banksUsed >= 1 &&
                   job.banksUsed <= channel_.numBanks());
    NEUPIMS_ASSERT(!epoch_ || !epoch_->replaying,
                   "a completion enqueued during an epoch replay");
    pimQueue_.push_back(std::move(job));
    kick();
}

MemSchedStats
MemoryController::memSchedStats() const
{
    // Only stepMem issues MEM-side ACT and PRE: a conflict precharges
    // once, and every row but a hit activates once (DESIGN.md §11).
    const CommandCounts &c = channel_.commandCounts();
    MemSchedStats s = arbiter_.stats();
    s.rowHits = rowHits_;
    s.rowConflicts = c.count(CommandType::Pre);
    s.rowMisses = c.count(CommandType::Act) - s.rowConflicts;
    s.memCommands = c.count(CommandType::Act) + s.rowConflicts +
                    c.count(CommandType::Rd) + c.count(CommandType::Wr);
    return s;
}

bool
MemoryController::idle() const
{
    NEUPIMS_ASSERT(!epoch_ || !epoch_->replaying,
                   "a completion read controller state in a replay");
    return memQueue_.empty() && pimQueue_.empty() &&
           memInFlight_.empty() && !pim_;
}

std::size_t
MemoryController::pendingMemJobs() const
{
    return queuedRows_ + memInFlight_.size();
}

void
MemoryController::kick()
{
    Cycle now = eq_.now();
    if (nextKickAt_ <= now)
        return;
    nextKickAt_ = now;
    eq_.schedule(now, [this] { wake(); });
}

void
MemoryController::wake()
{
    // Only the registered wake-up runs the loop. A superseded one (a
    // later kick or run replaced its registration) would issue nothing
    // under either policy and only re-arm a duplicate resume
    // (DESIGN.md §3.1).
    const Cycle now = eq_.now();
    if (nextKickAt_ != now)
        return;
    if (epoch_ && epoch_->blocker == this)
        epoch_->blocker = nullptr;
    beginRun(now);
    const Cycle resume = process();
    for (Completion &c : completions_)
        c.fn(c.at);
    // The resume is scheduled after the callbacks, so a kick one of
    // them causes is queued ahead of it.
    if (resume != kCycleMax)
        scheduleResume(resume);
    completions_.clear();
}

void
MemoryController::beginRun(Cycle at)
{
    now_ = at;
    nextKickAt_ = kCycleMax;
}

void
MemoryController::scheduleResume(Cycle at)
{
    // Only a stack's controllers tag, and kicks stay untagged: an
    // epoch never spans one (DESIGN.md §3.4).
    if (epoch_)
        eq_.scheduleTagged(at, this, [this] { wake(); });
    else
        eq_.schedule(at, [this] { wake(); });
}

void
MemoryController::advanceEpoch(Cycle end)
{
    // Only the registered resume starts a run, as in wake()
    // (DESIGN.md §3.4).
    if (nextKickAt_ >= end)
        return;
    replayAt_ = nextKickAt_;
    addWakes(nextKickAt_, 1, 1);
    beginRun(nextKickAt_);
    epochEnd_ = end;
    process();
    epochEnd_ = 0;
    // A mark's logs live in this epoch's chain; the admission ring only
    // filters where to mark, so it carries on.
    mark_.valid = false;
}

void
MemoryController::completionBounds(Cycle now, Cycle &hard,
                                   Cycle &soft) const
{
    // Each remaining burst of a stream takes its own C/A slot, in
    // order, so its last one issues no sooner than (bursts - 1) slots
    // after the bus frees, and its data ends tCL (tCWL) + tBL later.
    std::uint64_t fewest = UINT64_MAX;
    for (const StreamDone &d : streamDone_) {
        if (d.rowsLeft > 0)
            fewest = std::min(fewest, d.burstsLeft);
    }
    const Cycle pim = pimBound(now);
    hard = std::min(hard, pim);
    if (fewest == UINT64_MAX)
        return;
    // Beside a kernel a paws stint can switch to MEM after a PIM command
    // that takes no C/A slot, before its run's horizon: the horizon rule
    // does not cover its MEM completions.
    Cycle &m = cfg_.sched == MemSchedKind::Paws && pim != kCycleMax ? hard
                                                                    : soft;
    const auto &t = channel_.timing();
    m = std::min(m, channel_.earliestCa(now) + (fewest - 1) * t.caMemCmd +
                        std::min(t.tCL, t.tCWL) + t.tBL);
}

Cycle
MemoryController::pimBound(Cycle now) const
{
    if (!pim_ && pimQueue_.empty())
        return kCycleMax;
    const auto &t = channel_.timing();
    const Cycle ca = channel_.earliestCa(now);
    // MEM rows a paws MEM stint retires before the kernel's next
    // command, its budget or the MEM work left: each takes a burst, a
    // queued row all of its own, so the last issues at `held` or later.
    const std::uint64_t rows =
        std::min(arbiter_.memJobsBeforePim(), pendingMemJobs());
    Cycle held = 0;
    if (rows > 0) {
        const std::uint64_t open =
            std::min<std::uint64_t>(rows, memInFlight_.size());
        int row = channel_.organization().burstsPerRow();
        for (const MemStream &s : memQueue_)
            row = std::min({row, s.bursts, s.tailBursts});
        held = ca + (open + (rows - open) * static_cast<std::uint64_t>(row) -
                     1) * t.caMemCmd;
    }
    using Phase = PimExec::Phase;
    const PimExec *p = pim_.get();
    // A finished kernel's cycle is known, and may lie behind now: the
    // wake-up that collects it lies no sooner than a horizon before
    // the stint's end.
    if (p && p->phase == Phase::Precharge)
        return std::max({p->resultEnd, p->kernelComputeEnd,
                         held > cfg_.horizon ? held - cfg_.horizon : 0});
    const PimJob &job = p ? p->job : pimQueue_.front();
    Cycle end = p ? std::max(now, p->kernelComputeEnd) : 0;
    if (!p || p->phase != Phase::FinalResult) {
        // The current round's first activation: after the stint, the
        // header's C/A slot and each GWRITE's, GWRITEs and group 0
        // tGWRITE and a C/A slot apart (DESIGN.md §3.4).
        Cycle first;
        if (p && (p->phase == Phase::DotProduct ||
                  p->phase == Phase::RoundResult || p->group > 0)) {
            first = p->groupRowReady[0] - t.tRCD;
        } else {
            const Cycle hdr = p ? p->phase == Phase::Header : job.header;
            const auto gw = static_cast<Cycle>(
                job.gwrites - (p ? p->gwritesDone : 0));
            first = std::max(held, std::max(ca + hdr * t.caPimCmd,
                                            p ? p->gwriteReady : 0) +
                                       gw * std::max(t.tGWRITE, t.caPimCmd));
            first = channel_.earliestPimActivateGroup(
                0, std::min(4, p ? p->banksThisRound
                                 : std::min(job.rowTiles, job.banksUsed)),
                first, false);
        }
        // Later rounds reopen the same banks, tRC apart, after the
        // activation window passed a round's groups; a fine-grained
        // round also waits for the last one's compute and readback.
        // Each round computes tRCD + pimComputePerRow after it opens.
        const auto groups = static_cast<Cycle>(ceilDiv(job.banksUsed, 4));
        Cycle spacing =
            std::max(t.tRC(), groups / 4 * t.tFAW + groups % 4 * t.tRRD_S);
        if (!job.composite)
            spacing = std::max(spacing,
                               t.tRCD + t.pimComputePerRow + t.caPimCmd);
        const auto later = static_cast<Cycle>(
            ceilDiv(job.rowTiles, job.banksUsed) - (p ? p->round : 0) - 1);
        end = std::max(end, first + later * spacing + t.tRCD +
                                t.pimComputePerRow);
    }
    // The results follow, after the stint's last burst on the data bus.
    const Cycle done =
        end + (job.composite
                   ? t.tBL * static_cast<Cycle>(std::max(1, job.resultBursts))
                   : t.tCL + t.tBL);
    return rows > 0 ? std::max(done, held + std::min(t.tCL, t.tCWL) + t.tBL)
                    : done;
}

bool
MemoryController::notePeriod()
{
    const std::size_t ring = admitTimes_.size();
    admitTimes_[admissions_++ % ring] = now_;
    const int group = channel_.organization().banksPerGroup;
    if (mark_.valid && admissions_ - mark_.admission ==
                           static_cast<std::uint64_t>(mark_.rows)) {
        mark_.valid = false;
        if (const std::uint64_t k = periodsToAdvance()) {
            advancePeriods(k);
            admissions_ = 1;
            admitTimes_[0] = now_;
            return true;
        }
        // The state may repeat only every other group of rows (each
        // row's spacing can still repeat every group): try the other.
        longPeriod_ = !longPeriod_;
    }
    // Mark only where the admissions already repeat: comparing whole
    // states costs a few hundred values.
    const int p = longPeriod_ ? 2 * group : group;
    if (!mark_.valid && admissionsRepeat(p))
        takeMark(p);
    return false;
}

bool
MemoryController::admissionsRepeat(int p) const
{
    const auto n = static_cast<std::uint64_t>(p);
    if (admissions_ < 2 * n + 1)
        return false;
    const std::size_t ring = admitTimes_.size();
    auto at = [&](std::uint64_t back) {
        return admitTimes_[(admissions_ - 1 - back) % ring];
    };
    const Cycle gap = at(0) - at(n);
    if (gap == 0)
        return false;
    for (std::uint64_t i = 1; i <= n; ++i) {
        if (at(i) - at(i + n) != gap)
            return false;
    }
    return true;
}

void
MemoryController::normalize(std::vector<Cycle> &out) const
{
    // Everything a MEM-only decision reads (DESIGN.md §3.6): banks from
    // the front stream's cursor on, rows as linear indices relative to
    // it, timestamps relative to now_ and 0 once they no longer bind.
    // The controller's own part comes first; the channel's follows.
    const MemStream &s = memQueue_.front();
    const int banks = channel_.numBanks();
    const std::int64_t lin = std::int64_t{s.row} * banks + s.bank;
    auto rel = [this](Cycle c) { return c > now_ ? c - now_ : 0; };
    auto rotate = [&](std::uint64_t mask) {
        return s.bank == 0 ? mask
                           : ((mask >> s.bank) | (mask << (banks - s.bank))) &
                                 bankSpan(0, banks);
    };
    out.clear();
    out.push_back(memQueue_.size());
    out.push_back(static_cast<Cycle>(s.bursts));
    out.push_back(static_cast<Cycle>(s.tailBursts));
    out.push_back(s.write);
    out.push_back(static_cast<Cycle>(s.done));
    out.push_back(memInFlight_.size());
    for (const MemExec &m : memInFlight_) {
        out.push_back(
            static_cast<Cycle>((m.job.bank - s.bank + banks) % banks));
        out.push_back(static_cast<Cycle>(std::int64_t{m.job.row} * banks +
                                         m.job.bank - lin));
        out.push_back(static_cast<Cycle>(m.job.bursts));
        out.push_back(m.job.write);
        out.push_back(static_cast<Cycle>(m.job.done));
        out.push_back(static_cast<Cycle>(m.phase));
        out.push_back(static_cast<Cycle>(m.burstsDone));
        out.push_back(static_cast<Cycle>(m.next));
        out.push_back(rel(m.bankReady));
        out.push_back(rel(m.ready));
    }
    out.push_back(rotate(banksBusyMask_));
    out.push_back(rotate(staleBanks_));
    out.push_back(actIssued_);
    out.push_back(memScanValid_);
    out.push_back(memScanValid_ ? rel(memBest_) : 0);
    out.push_back(memScanValid_ ? static_cast<Cycle>(memBestIdx_) : 0);
    out.push_back(completions_.size());
    out.push_back(chain_.back().stride);
    out.push_back(s.done >= 0 ? rel(streamDone_[s.done].last) : 0);
}

void
MemoryController::takeMark(int p)
{
    const MemStream &s = memQueue_.front();
    // Periods stay inside one stream's rows, with no completion due,
    // and move banks by whole groups.
    const int group = channel_.organization().banksPerGroup;
    if (s.rows < 2 * p + 1 || channel_.numBanks() % group != 0)
        return;
    for (const MemExec &m : memInFlight_) {
        if (m.job.done != s.done)
            return;
    }
    // Banks left closed outside the window (by a refresh, or a fresh
    // channel) change the state at every row until the stream has
    // swept them: a mark there would only miss.
    int closed = 0;
    for (BankId b = 0; b < channel_.numBanks(); ++b)
        closed += channel_.banks().openRow(b, BufferSide::Mem) < 0;
    if (closed > cfg_.memIssueWindow)
        return;
    mark_.valid = true;
    mark_.rows = p;
    mark_.admission = admissions_;
    mark_.now = now_;
    mark_.refreshDue = channel_.nextRefreshDue();
    normalize(mark_.state);
    mark_.own = mark_.state.size();
    channel_.normalize(mark_.state, now_, s.bank,
                       std::int64_t{s.row} * channel_.numBanks() + s.bank);
    mark_.channel = channel_.periodMark();
    mark_.runs = chain_.size();
    mark_.runLast = chain_.back().last;
    mark_.completed = completedMemJobs_;
    mark_.rowHits = rowHits_;
    mark_.burstsLeft = s.done >= 0 ? streamDone_[s.done].burstsLeft : 0;
    reach_ = 0;
}

std::uint64_t
MemoryController::periodsToAdvance()
{
    // The state repeats the mark's, p rows on by whole bank groups and
    // dt cycles later, with no refresh or completion between: every
    // decision from here repeats the mark's, p rows on and dt later,
    // while no candidate reaches a refresh or the epoch's end, since
    // neither moves with the state (DESIGN.md §3.6).
    const MemStream &s = memQueue_.front();
    const auto p = static_cast<std::uint64_t>(mark_.rows);
    const Cycle dt = now_ - mark_.now;
    if (dt == 0 || channel_.nextRefreshDue() != mark_.refreshDue ||
        p % static_cast<std::uint64_t>(
                channel_.organization().banksPerGroup) != 0)
        return 0;
    for (const MemExec &m : memInFlight_) {
        if (m.job.done != s.done)
            return 0;
    }
    // Most mismatches show in the window, before the banks.
    normalize(scratch_);
    if (scratch_.size() != mark_.own ||
        !std::equal(scratch_.begin(), scratch_.end(), mark_.state.begin()))
        return 0;
    channel_.normalize(scratch_, now_, s.bank,
                       std::int64_t{s.row} * channel_.numBanks() + s.bank);
    if (scratch_ != mark_.state)
        return 0;
    // Stop before the stream's last row, and before any candidate, or
    // the wake-up horizon cycles ahead of it, reaches a refresh or the
    // epoch's end.
    std::uint64_t k = (static_cast<std::uint64_t>(s.rows) - 1) / p;
    const Cycle limit =
        std::min(channel_.nextRefreshDue(), epochEnd_ + cfg_.horizon);
    if (reach_ >= limit)
        return 0;
    k = std::min(k, (limit - 1 - reach_) / dt);
    return channel_.spanRoom((k + 1) * dt) ? k : 0;
}

void
MemoryController::advancePeriods(std::uint64_t k)
{
    MemStream &s = memQueue_.front();
    const auto banks = static_cast<std::int64_t>(channel_.numBanks());
    const std::int64_t p = mark_.rows;
    const Cycle dt = now_ - mark_.now;
    const Cycle shift = k * dt;
    const std::int64_t moved = static_cast<std::int64_t>(k) * p;
    auto bankOf = [banks](std::int64_t lin) {
        return static_cast<BankId>(lin % banks);
    };
    auto rowOf = [banks](std::int64_t lin) {
        return static_cast<int>(lin / banks);
    };

    // Repeat the loop's work since the mark k times: wake-ups in order,
    // counters in closed form. Each period grows the run before it as
    // the mark's grew its last run, then appends copies of the runs it
    // logged; copy those first, since growing the last run may grow
    // one of them.
    const Cycle grown = chain_[mark_.runs - 1].last - mark_.runLast;
    runCopy_.assign(chain_.begin() + static_cast<std::ptrdiff_t>(mark_.runs),
                    chain_.end());
    for (Cycle j = 1; j <= k; ++j) {
        if (grown > 0)
            addWakes(mark_.runLast + 1 + j * dt, grown, 1);
        for (const WakeRun &r : runCopy_)
            addWakes(r.first + j * dt, (r.last - r.first) / r.stride + 1,
                     r.stride);
    }
    // A row hits only if its row is open at the cursor when it enters,
    // and a repeated state leaves no row open there: window jobs open
    // rows only behind the cursor (DESIGN.md §3.6). So the periods add
    // no hit.
    NEUPIMS_ASSERT(rowHits_ == mark_.rowHits, "a row hit inside a period");
    const std::uint64_t retired = completedMemJobs_ - mark_.completed;
    completedMemJobs_ += k * retired;
    arbiter_.noteMemJobsCompleted(k * retired);
    if (s.done >= 0) {
        StreamDone &d = streamDone_[s.done];
        d.rowsLeft -= static_cast<int>(k * retired);
        d.burstsLeft -= k * (mark_.burstsLeft - d.burstsLeft);
        d.last += shift;
    }

    // Then the state, k periods on: the cursor and every in-flight row
    // move by k * p rows, their banks with them, and time by k * dt.
    const std::int64_t lin = std::int64_t{s.row} * banks + s.bank + moved;
    s.bank = bankOf(lin);
    s.row = rowOf(lin);
    s.rows -= static_cast<int>(moved);
    queuedRows_ -= static_cast<std::size_t>(moved);
    for (MemExec &m : memInFlight_) {
        const std::int64_t l =
            std::int64_t{m.job.row} * banks + m.job.bank + moved;
        m.job.bank = bankOf(l);
        m.job.row = rowOf(l);
        m.enqueued += shift;
        m.lastBurstEnd += shift;
        m.bankReady += shift;
        m.ready += shift;
    }
    const int r = static_cast<int>(moved % banks);
    auto rotate = [&](std::uint64_t mask) {
        const std::uint64_t all = bankSpan(0, static_cast<int>(banks));
        return r == 0 ? mask
                      : ((mask << r) | (mask >> (banks - r))) & all;
    };
    banksBusyMask_ = rotate(banksBusyMask_);
    staleBanks_ = rotate(staleBanks_);
    if (memScanValid_ && memBest_ != kCycleMax)
        memBest_ += shift;
    now_ += shift;
    channel_.advancePeriods(mark_.channel, dt, p, k);
    rowsAdvanced_ += static_cast<std::uint64_t>(moved);
}

Cycle
MemoryController::fireEpochWake(Cycle w)
{
    // The first event at the chain's next cycle runs it, as in wake();
    // any other event is a superseded one.
    if (runPos_ == chain_.size() || replayAt_ != w)
        return kCycleMax;
    for (; compPos_ < completions_.size() && completions_[compPos_].wake == w;
         ++compPos_)
        completions_[compPos_].fn(completions_[compPos_].at);
    const WakeRun &run = chain_[runPos_];
    if (w < run.last)
        return replayAt_ = w + run.stride;
    if (++runPos_ < chain_.size())
        return replayAt_ = chain_[runPos_].first;
    if (nextKickAt_ != kCycleMax)
        scheduleResume(nextKickAt_);
    chain_.clear();
    completions_.clear();
    runPos_ = compPos_ = 0;
    return kCycleMax;
}

Cycle
MemoryController::replayStop() const
{
    // Only a run of consecutive cycles fires at every cycle.
    const WakeRun &run = chain_[runPos_];
    Cycle stop = run.stride == 1 ? run.last : replayAt_;
    if (compPos_ < completions_.size())
        stop = std::min(stop, completions_[compPos_].wake);
    return stop;
}

void
MemoryController::addWakes(Cycle first, Cycle count, Cycle stride)
{
    if (count == 1)
        stride = 1;
    if (!chain_.empty() && stride == 1 && chain_.back().stride == 1 &&
        chain_.back().last + 1 == first) {
        chain_.back().last = first + count - 1;
        return;
    }
    chain_.push_back({first, first + (count - 1) * stride, stride});
}

void
MemoryController::refillMemWindow()
{
    // Blocked-mode PIM (baseline single-row-buffer devices) stalls all
    // regular memory traffic while a PIM kernel is queued or running.
    if (cfg_.blockedMode() && (pim_ || !pimQueue_.empty()))
        return;
    // Expand the front stream's rows in order (DESIGN.md §3.5).
    while (static_cast<int>(memInFlight_.size()) < cfg_.memIssueWindow &&
           !memQueue_.empty()) {
        // Keep at most one in-flight job per bank so an incoming job
        // cannot precharge a row a sibling is still bursting on.
        MemStream &s = memQueue_.front();
        if (banksBusyMask_ & (1ULL << s.bank))
            break;
        // An advance leaves the state just before a later row of the
        // same stream enters, on a free bank; the state it compares
        // holds no PIM work (DESIGN.md §3.6).
        if (epochEnd_ != 0 && !pim_ && pimQueue_.empty() && notePeriod())
            NEUPIMS_ASSERT(!(banksBusyMask_ & (1ULL << s.bank)) &&
                           s.rows >= 1);
        MemExec exec;
        exec.job = s;
        exec.job.bursts = s.rows == 1 ? s.tailBursts : s.bursts;
        exec.enqueued = now_;
        recomputeNext(exec);
        banksBusyMask_ |= 1ULL << s.bank;
        memScanValid_ = false;
        memInFlight_.push_back(exec);
        --queuedRows_;
        if (--s.rows == 0) {
            memQueue_.pop_front();
        } else if (++s.bank == channel_.numBanks()) {
            s.bank = 0;
            ++s.row;
        }
    }
}

void
MemoryController::startNextPimKernel()
{
    if (pim_ || pimQueue_.empty())
        return;
    // Blocked mode drains in-flight memory accesses before switching
    // the channel into PIM operation.
    if (cfg_.blockedMode() && !memInFlight_.empty())
        return;
    memScanValid_ = false;
    pim_ = std::make_unique<PimExec>();
    pim_->job = std::move(pimQueue_.front());
    pimQueue_.pop_front();
    pim_->phase = pim_->job.header ? PimExec::Phase::Header
                                   : PimExec::Phase::Gwrite;
    if (pim_->job.gwrites == 0 && pim_->phase == PimExec::Phase::Gwrite)
        pim_->phase = PimExec::Phase::Group;
    pim_->rounds = ceilDiv(pim_->job.rowTiles, pim_->job.banksUsed);
    pim_->banksThisRound = std::min(pim_->job.rowTiles,
                                    pim_->job.banksUsed);
    pim_->groupsPerRound = ceilDiv(pim_->banksThisRound, 4);
    pim_->groupRowReady.assign(pim_->groupsPerRound, 0);
}

void
MemoryController::recomputeNext(MemExec &m) const
{
    const BankArray &banks = channel_.banks();
    const BankId b = m.job.bank;
    int open = banks.openRow(b, BufferSide::Mem);
    Cycle ready;
    if (m.phase == MemExec::Phase::Bursts || open == m.job.row) {
        m.next = MemExec::Next::Column;
        ready = banks.earliestColumn(b, BufferSide::Mem);
    } else if (open != -1) {
        m.next = MemExec::Next::Precharge;
        ready = banks.earliestPrecharge(b, BufferSide::Mem);
    } else {
        m.next = MemExec::Next::Activate;
        ready = banks.earliestActivate(b, BufferSide::Mem);
    }
    m.bankReady = m.ready = std::max(ready, m.enqueued);
    if (m.next == MemExec::Next::Activate)
        m.ready = channel_.actWindowConstraint(m.job.bank, m.ready);
}

Cycle
MemoryController::candidateMem(int &which)
{
    // Nothing changed since the last scan and its winner still lies
    // ahead of now, so now binds no candidate: the scan still holds.
    if (!memScanValid_ || memBest_ <= now_) {
        memScanValid_ = true;
        memBest_ = kCycleMax;
        memBestIdx_ = -1;
        if (!(cfg_.blockedMode() && pim_))
            scanMem();
    }
    which = memBestIdx_;
    return memBest_;
}

void
MemoryController::scanMem()
{
    // A job's bankReady moves only when its bank is touched, and its
    // ACT window only when an ACT issues (DESIGN.md §3.5).
    if (staleBanks_ != 0 || actIssued_) {
        for (MemExec &m : memInFlight_) {
            if (staleBanks_ & (1ULL << m.job.bank))
                recomputeNext(m);
            else if (actIssued_ && m.next == MemExec::Next::Activate)
                m.ready =
                    channel_.actWindowConstraint(m.job.bank, m.bankReady);
        }
        staleBanks_ = 0;
        actIssued_ = false;
    }
    // Each candidate is max(ready, C/A bus). The window is in admission
    // order, so the first minimum breaks cycle ties oldest-first.
    const Cycle ca = channel_.earliestCa(now_);
    Cycle best = kCycleMax;
    int idx = -1;
    for (int i = 0; i < static_cast<int>(memInFlight_.size()); ++i) {
        const Cycle c = std::max(memInFlight_[i].ready, ca);
        if (c < best) {
            best = c;
            idx = i;
        }
    }
    memBest_ = best;
    memBestIdx_ = idx;
}

Cycle
MemoryController::candidatePim(bool with_ca) const
{
    if (!pim_)
        return kCycleMax;
    const auto &p = *pim_;
    const auto &t = channel_.timing();
    Cycle lb = now_;
    auto ca = [&](Cycle c) { return with_ca ? channel_.earliestCa(c) : c; };
    switch (p.phase) {
      case PimExec::Phase::Header:
        return ca(lb);
      case PimExec::Phase::Gwrite:
        return ca(std::max(lb, p.gwriteReady));
      case PimExec::Phase::Group: {
        // The operand vector must be staged before any dot-products.
        Cycle ready = std::max(lb, p.gwriteReady);
        bool needs_ca = with_ca && (!p.job.composite || p.group == 0);
        Cycle c = channel_.earliestPimActivateGroup(
            p.group * 4, std::min(4, p.banksThisRound - p.group * 4),
            ready, needs_ca);
        if (!p.job.header) {
            // Without PIM_HEADER the controller cannot bound the
            // kernel's latency, so it conservatively refuses to start
            // a round inside the guard window before a refresh (§5.2).
            Cycle due = channel_.nextRefreshDue();
            if (c + t.refreshGuard > due)
                c = std::max(c, due);
        }
        return c;
      }
      case PimExec::Phase::DotProduct:
        return ca(std::max(lb, p.groupRowReady[p.dotProductsDone / 4]));
      case PimExec::Phase::RoundResult:
        return ca(std::max(lb, p.roundComputeEnd));
      case PimExec::Phase::FinalResult:
        return std::max(lb, p.kernelComputeEnd);
      case PimExec::Phase::Precharge:
        return ca(std::max({lb, p.kernelComputeEnd, p.resultEnd}));
      case PimExec::Phase::Done:
        return kCycleMax;
    }
    return kCycleMax;
}

bool
MemoryController::stepMem(int which)
{
    auto &m = memInFlight_[which];
    Cycle lb = std::max(m.enqueued, now_);

    // Only the issuing job's bank moves, so its ready cycle is
    // recomputed at once and no other job's is (DESIGN.md §3.5).
    if (m.phase == MemExec::Phase::PreOrAct) {
        int open = channel_.banks().openRow(m.job.bank, BufferSide::Mem);
        if (open == m.job.row) {
            ++rowHits_;
            m.phase = MemExec::Phase::Bursts; // row hit, fall through
        } else {
            if (open != -1) {
                channel_.issuePrecharge(m.job.bank, lb);
            } else {
                channel_.issueActivate(m.job.bank, m.job.row, lb);
                actIssued_ = true;
                m.phase = MemExec::Phase::Bursts;
            }
            recomputeNext(m);
            return false;
        }
    }

    m.lastBurstEnd = channel_.issueColumn(m.job.bank, m.job.write, lb).second;
    if (m.job.done >= 0)
        --streamDone_[m.job.done].burstsLeft;
    if (++m.burstsDone < m.job.bursts) {
        recomputeNext(m);
        return true;
    }
    retireMem(which);
    return false;
}

void
MemoryController::runTrain(int which)
{
    MemExec &m = memInFlight_[which];
    // The winner's next burst waits only for the C/A bus (its row is
    // open, and column commands leave no bank-local spacing), so its
    // candidate is the bus cycle itself: a younger job can at most tie
    // it and loses on seq. An older job ties it once the bus reaches
    // that job's own ready cycle. Stop there, where a refresh falls
    // due, or where the next burst's wake-up would reach the epoch's
    // end (DESIGN.md §3.4).
    const Cycle due = channel_.nextRefreshDue();
    Cycle until = std::min(due, epochEnd_ + cfg_.horizon);
    // The scan that picked the winner left every ready cycle current.
    for (int i = 0; i < which; ++i)
        until = std::min(until, memInFlight_[i].ready);
    // Beside a kernel, frfcfs picks PIM once the bus reaches the
    // kernel's candidate without its C/A term: PIM wins ties. A paws
    // MEM stint cannot switch before a row retires, but each burst's
    // pick adds its stall behind a kernel whose next command takes no
    // C/A slot: one waiting for its ready cycle, or for its pick's
    // wake-up, a horizon before the burst (DESIGN.md §3.4).
    const Cycle pim = candidatePim(false);
    const bool stalls =
        cfg_.sched == MemSchedKind::Paws && pim < due &&
        (pim_->phase == PimExec::Phase::FinalResult ||
         (pim_->phase == PimExec::Phase::Group && pim_->job.composite &&
          pim_->group > 0));
    if (cfg_.sched == MemSchedKind::FrFcfs)
        until = std::min(until, pim);
    else if (stalls && !pim_->job.header)
        // Later picks find the kernel held at the refresh by its guard.
        until = std::min(until, due + cfg_.horizon + 1 -
                                    channel_.timing().refreshGuard);
    const Channel::ColumnTrain tr = channel_.issueColumnTrain(
        m.job.bank, m.job.write, m.job.bursts - m.burstsDone, until);
    if (tr.issued == 0)
        return;
    const auto n = static_cast<Cycle>(tr.issued);
    for (Cycle i = 0; stalls && i < n; ++i) {
        const Cycle c = tr.first + i * tr.step;
        arbiter_.recordIssue(
            {c, std::max(pim, c - std::min(c, cfg_.horizon)), 0}, false);
    }
    // The train follows the job's own burst, so nothing else pushes
    // its first one: all its candidates are step apart. Each beyond
    // the horizon had its own wake-up, horizon cycles before it.
    NEUPIMS_ASSERT(n == 1 || tr.next == tr.first + tr.step);
    reach_ = std::max(reach_, n == 1 ? tr.first : tr.next + (n - 2) * tr.step);
    if (m.job.done >= 0)
        streamDone_[m.job.done].burstsLeft -= n;
    const Cycle horizon_end = now_ + cfg_.horizon;
    const Cycle last = tr.first + (n - 1) * tr.step;
    if (last > horizon_end) {
        const Cycle i = tr.first > horizon_end
                            ? 0
                            : (horizon_end - tr.first) / tr.step + 1;
        addWakes(tr.first + i * tr.step - cfg_.horizon, n - i, tr.step);
        beginRun(last - cfg_.horizon);
    }
    m.lastBurstEnd = tr.dataEnd;
    m.burstsDone += tr.issued;
    if (m.burstsDone == m.job.bursts)
        retireMem(which);
    else
        recomputeNext(m);
}

void
MemoryController::retireMem(int which)
{
    MemExec &m = memInFlight_[which];
    banksBusyMask_ &= ~(1ULL << m.job.bank);
    finishMem(m);
    // Keep admission order: it breaks candidate ties.
    memInFlight_.erase(memInFlight_.begin() + which);
}

void
MemoryController::finishMem(const MemExec &exec)
{
    ++completedMemJobs_;
    arbiter_.noteMemJobsCompleted();
    if (exec.job.done < 0)
        return;
    StreamDone &d = streamDone_[exec.job.done];
    d.last = std::max(d.last, exec.lastBurstEnd);
    if (--d.rowsLeft > 0)
        return;
    // Callback contract: invoked as soon as the completion cycle is
    // *known* (commands are committed ahead of simulated time up to
    // the horizon); the Cycle argument is the authoritative completion
    // time and callers schedule their continuations at it. wake()
    // invokes it once process() returns, in completion order.
    completions_.push_back({std::move(d.fn), d.last, now_});
    freeDone_.push_back(exec.job.done);
    ++memCompletions_;
}

void
MemoryController::stepPim()
{
    auto &p = *pim_;
    const auto &t = channel_.timing();
    Cycle lb = now_;

    switch (p.phase) {
      case PimExec::Phase::Header: {
        channel_.issuePimCaCommand(CommandType::PimHeader, lb);
        p.phase = p.job.gwrites > 0 ? PimExec::Phase::Gwrite
                                    : PimExec::Phase::Group;
        return;
      }
      case PimExec::Phase::Gwrite: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimGwrite, std::max(lb, p.gwriteReady));
        p.gwriteReady = when + t.tGWRITE;
        if (++p.gwritesDone == p.job.gwrites)
            p.phase = PimExec::Phase::Group;
        return;
      }
      case PimExec::Phase::Group: {
        Cycle ready = std::max(lb, p.gwriteReady);
        if (!p.job.header) {
            Cycle due = channel_.nextRefreshDue();
            Cycle est = channel_.earliestPimActivateGroup(
                p.group * 4,
                std::min(4, p.banksThisRound - p.group * 4), ready,
                !p.job.composite || p.group == 0);
            if (est + t.refreshGuard > due)
                ready = std::max(ready, due);
        }
        if (p.job.composite && p.group == 0) {
            // One composite PIM_GEMV command drives the whole round:
            // activation waves and dot-products are sequenced
            // internally and occupy no further C/A slots (Fig. 9b).
            ready = channel_.issuePimCaCommand(CommandType::PimGemv,
                                               ready);
        }
        int first = p.group * 4;
        int nbanks = std::min(4, p.banksThisRound - first);
        Cycle act = channel_.issuePimActivateGroup(
            first, nbanks, /*row=*/p.round, ready,
            /*charge_ca=*/!p.job.composite);
        // tRC spans both row buffers, and single-buffer banks alias
        // the MEM side outright.
        staleBanks_ |= bankSpan(first, nbanks);
        actIssued_ = true;
        Cycle row_ready = act + t.tRCD;
        p.groupRowReady[p.group] = row_ready;
        if (p.job.composite) {
            // Composite mode: compute is triggered internally as soon
            // as the row is ready.
            Cycle end = row_ready + t.pimComputePerRow;
            pimBankBusyCycles_ +=
                static_cast<Cycle>(nbanks) * t.pimComputePerRow;
            p.roundComputeEnd = std::max(p.roundComputeEnd, end);
            p.kernelComputeEnd = std::max(p.kernelComputeEnd, end);
        }
        if (++p.group == p.groupsPerRound) {
            if (p.job.composite) {
                p.rowsIssued += p.banksThisRound;
                advanceRound();
            } else {
                p.phase = PimExec::Phase::DotProduct;
                p.dotProductsDone = 0;
            }
        }
        return;
      }
      case PimExec::Phase::DotProduct: {
        // Fine-grained baseline: every bank's dot-product needs its
        // own command on the C/A bus (Fig. 9a).
        Cycle row_ready = p.groupRowReady[p.dotProductsDone / 4];
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimDotProduct, std::max(lb, row_ready));
        Cycle start = std::max(when + 1, row_ready);
        Cycle end = start + t.pimComputePerRow;
        pimBankBusyCycles_ += t.pimComputePerRow;
        p.roundComputeEnd = std::max(p.roundComputeEnd, end);
        p.kernelComputeEnd = std::max(p.kernelComputeEnd, end);
        if (++p.dotProductsDone == p.banksThisRound)
            p.phase = PimExec::Phase::RoundResult;
        return;
      }
      case PimExec::Phase::RoundResult: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimRdResult, std::max(lb, p.roundComputeEnd));
        int bursts = std::max(
            1, ceilDiv(p.banksThisRound * 4,
                       static_cast<int>(
                           channel_.organization().burstBytes)));
        auto [ds, de] = channel_.reserveDataBus(when + t.tCL, bursts);
        (void)ds;
        p.resultEnd = std::max(p.resultEnd, de);
        p.rowsIssued += p.banksThisRound;
        advanceRound();
        return;
      }
      case PimExec::Phase::FinalResult: {
        auto [ds, de] = channel_.reserveDataBus(
            std::max(lb, p.kernelComputeEnd),
            std::max(1, p.job.resultBursts));
        (void)ds;
        p.resultEnd = std::max(p.resultEnd, de);
        p.phase = PimExec::Phase::Precharge;
        return;
      }
      case PimExec::Phase::Precharge: {
        Cycle when = channel_.issuePimCaCommand(
            CommandType::PimPrecharge,
            std::max({lb, p.kernelComputeEnd, p.resultEnd}));
        auto &banks = channel_.banks();
        for (int b = 0; b < p.job.banksUsed; ++b) {
            Cycle w = std::max(
                when, banks.earliestPrecharge(b, BufferSide::Pim));
            banks.precharge(b, BufferSide::Pim, w);
        }
        staleBanks_ |= bankSpan(0, p.job.banksUsed);
        p.phase = PimExec::Phase::Done;
        finishPim(std::max(p.resultEnd, p.kernelComputeEnd));
        return;
      }
      case PimExec::Phase::Done:
        return;
    }
}

void
MemoryController::advanceRound()
{
    auto &p = *pim_;
    if (++p.round < p.rounds) {
        p.banksThisRound = std::min(p.job.rowTiles - p.rowsIssued,
                                    p.job.banksUsed);
        p.groupsPerRound = ceilDiv(p.banksThisRound, 4);
        p.groupRowReady.assign(p.groupsPerRound, 0);
        p.group = 0;
        p.phase = PimExec::Phase::Group;
    } else {
        p.phase = p.job.composite ? PimExec::Phase::FinalResult
                                  : PimExec::Phase::Precharge;
    }
}

void
MemoryController::finishPim(Cycle done)
{
    ++completedPimJobs_;
    auto job = std::move(pim_->job);
    pim_.reset();
    // Same deferred-callback contract as finishMem.
    if (job.onComplete)
        completions_.push_back({std::move(job.onComplete), done, now_});
}

bool
MemoryController::maybeRefresh(Cycle when)
{
    if (channel_.nextRefreshDue() > when)
        return false;
    // An announced (PIM_HEADER'd) kernel lets the controller postpone
    // the refresh — up to the JEDEC budget — instead of splitting the
    // kernel (§5.2).
    if (pim_ && pim_->job.header && pim_->phase != PimExec::Phase::Done) {
        if (channel_.postponeRefresh())
            return false;
    }
    channel_.issueRefresh(std::max(channel_.nextRefreshDue(), now_));
    staleBanks_ = ~0ULL;
    return true;
}

Cycle
MemoryController::process()
{
    while (true) {
        refillMemWindow();
        startNextPimKernel();

        int mem_idx = -1;
        Cycle cm = candidateMem(mem_idx);
        Cycle cp = candidatePim();
        if (cm == kCycleMax && cp == kCycleMax)
            return kCycleMax; // idle: nothing queued or in flight

        ArbView v;
        v.cm = cm;
        v.cp = cp;
        v.memPending = pendingMemJobs();

        // The policy arbitrates only when both classes hold a legal
        // command; a lone class always issues (no policy can idle the
        // channel's only available work). Under FR-FCFS the chosen
        // candidate is min(cm, cp) — PIM takes priority on ties
        // (§5.3) — reproducing the historical schedule bit-for-bit.
        bool pick_pim;
        if (cp == kCycleMax)
            pick_pim = false;
        else if (cm == kCycleMax)
            pick_pim = true;
        else
            pick_pim = arbiter_.choosePim(v);

        Cycle cand = pick_pim ? cp : cm;
        if (maybeRefresh(cand)) {
            memScanValid_ = false;
            continue; // constraints changed; recompute candidates
        }
        reach_ = std::max(reach_, cand);

        if (cand > now_ + cfg_.horizon) {
            // Do not reserve bus slots far beyond simulated time: a
            // job arriving meanwhile deserves its priority. Resume
            // when the candidate enters the horizon; wake() schedules
            // it. No kick can land inside the loop, so this is the
            // only registered wake-up.
            const Cycle resume = cand - cfg_.horizon;
            if (resume >= epochEnd_) {
                nextKickAt_ = resume;
                return resume;
            }
            // Inside an epoch that wake-up runs now, virtually. Only
            // the clock moved. If it binds no candidate, the run at
            // `resume` reaches this same decision; paws's deferred
            // class may lie at or before it (DESIGN.md §3.4).
            addWakes(resume, 1, 1);
            beginRun(resume);
            if (std::min(cm, cp) <= resume)
                continue;
        }

        memScanValid_ = false;
        arbiter_.recordIssue(v, pick_pim);
        ++decisions_;
        if (pick_pim)
            stepPim();
        else if (stepMem(mem_idx) && epochEnd_ != 0)
            runTrain(mem_idx);
    }
}

} // namespace neupims::dram
