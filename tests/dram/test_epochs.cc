/**
 * @file
 * Epochs against the event-by-event path (DESIGN.md §3.4, §3.6). Each
 * seeded multi-channel workload runs twice: on an HbmStack, which
 * simulates the stretches between arrivals as epochs, beside PIM
 * kernels too, and advances whole periods of MEM-only ones in closed
 * form, and on bare MemoryControllers sharing one EventQueue, which
 * have neither. Every channel's command
 * log, completions, the events they schedule, command counts,
 * scheduling statistics and data-bus utilization must all match
 * exactly.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dram/hbm.h"

namespace neupims::dram {
namespace {

constexpr int kChannels = 8;

/** Everything observable a run produced, in order. */
struct Trace
{
    /** (id, cycle) per completion callback and per event they
     * schedule, in invocation order. */
    std::vector<std::pair<std::uint64_t, Cycle>> log;
    std::vector<CommandCounts> counts;
    std::vector<MemSchedStats> sched;
    std::vector<Bytes> dataBytes;
    std::vector<double> dataUtil;
    /** Every command each channel issued, in issue order. */
    std::vector<std::vector<CommandRecord>> commands;
    /** Rows the controllers advanced over in closed form. */
    std::uint64_t rowsAdvanced = 0;
    Cycle end = 0;
    std::uint64_t events = 0;
    /** The channel whose prologue row on bank 4 completed first. */
    int firstBank4 = -1;
};

void
expectSame(const MemSchedStats &a, const MemSchedStats &b, int ch)
{
    EXPECT_EQ(a.rowHits, b.rowHits) << "channel " << ch;
    EXPECT_EQ(a.rowMisses, b.rowMisses) << "channel " << ch;
    EXPECT_EQ(a.rowConflicts, b.rowConflicts) << "channel " << ch;
    EXPECT_EQ(a.memCommands, b.memCommands) << "channel " << ch;
    EXPECT_EQ(a.pimCommands, b.pimCommands) << "channel " << ch;
    EXPECT_EQ(a.modeSwitches, b.modeSwitches) << "channel " << ch;
    EXPECT_EQ(a.pimStallCycles, b.pimStallCycles) << "channel " << ch;
    EXPECT_EQ(a.pimWasteCycles, b.pimWasteCycles) << "channel " << ch;
}

/** Log each channel's commands into @p tr until finish() reads the
 * end state. */
void
attachSinks(Trace &tr, const std::vector<MemoryController *> &ctrls)
{
    tr.commands.resize(ctrls.size());
    for (std::size_t ch = 0; ch < ctrls.size(); ++ch)
        ctrls[ch]->channel().setCommandSink(&tr.commands[ch]);
}

/** Read every controller's end state into @p tr. */
void
finish(Trace &tr, EventQueue &eq,
       const std::vector<MemoryController *> &ctrls)
{
    tr.end = eq.now();
    tr.events = eq.executedEvents();
    for (MemoryController *mc : ctrls) {
        EXPECT_TRUE(mc->idle());
        mc->channel().setCommandSink(nullptr);
        tr.counts.push_back(mc->channel().commandCounts());
        tr.sched.push_back(mc->memSchedStats());
        tr.dataBytes.push_back(mc->channel().dataBusBytes());
        tr.dataUtil.push_back(
            mc->channel().dataBusUtilization(0, tr.end + 1));
        tr.rowsAdvanced += mc->rowsAdvanced();
    }
}

/**
 * The workload, DMA-shaped: streams of row jobs rotate banks per
 * channel, and each stream's last completion schedules a done event at
 * its cycle, as DmaEngine's trackers do. Callbacks follow the
 * MemJob::onComplete contract: they log and schedule, nothing else.
 */
Trace
drive(EventQueue &eq, const std::vector<MemoryController *> &ctrls,
      std::uint64_t seed)
{
    Trace tr;
    attachSinks(tr, ctrls);
    Rng rng(seed);
    std::uint64_t next_id = 0;
    std::vector<int> next_bank(kChannels, 0);
    std::vector<int> next_row(kChannels, 0);
    const int banks = ctrls[0]->channel().numBanks();

    struct Tracker
    {
        std::uint64_t id = 0;
        int outstanding = 0;
        Cycle last = 0;
    };
    auto done_cb = [&tr, &eq](const std::shared_ptr<Tracker> &t) {
        return [&tr, &eq, t](Cycle c) {
            tr.log.emplace_back(t->id, c);
            t->last = std::max(t->last, c);
            if (--t->outstanding == 0)
                eq.schedule(std::max(t->last, eq.now()), [&tr, &eq, t] {
                    tr.log.emplace_back(t->id, eq.now());
                });
        };
    };
    auto stream = [&](int first, int nch, int rows, int bursts,
                      bool write) {
        auto t = std::make_shared<Tracker>();
        t->id = next_id++;
        for (int ch = first; ch < first + nch; ++ch) {
            for (int r = 0; r < rows; ++r) {
                MemJob job;
                job.bank = next_bank[ch];
                job.row = next_row[ch];
                job.bursts = bursts;
                job.write = write;
                ++t->outstanding;
                job.onComplete = done_cb(t);
                ctrls[ch]->enqueueMem(std::move(job));
                if (++next_bank[ch] == banks) {
                    next_bank[ch] = 0;
                    ++next_row[ch];
                }
            }
        }
    };
    auto row = [&](int ch, BankId bank, int r, int bursts) {
        auto t = std::make_shared<Tracker>();
        t->id = next_id++;
        t->outstanding = 1;
        MemJob job;
        job.bank = bank;
        job.row = r;
        job.bursts = bursts;
        job.onComplete = done_cb(t);
        ctrls[ch]->enqueueMem(std::move(job));
    };
    auto pim = [&](int ch) {
        static constexpr int kBanks[] = {4, 8, 32};
        auto t = std::make_shared<Tracker>();
        t->id = next_id++;
        t->outstanding = 1;
        PimJob job;
        job.rowTiles = static_cast<int>(rng.uniformInt(1, 64));
        job.banksUsed = kBanks[rng.uniformInt(0, 2)];
        job.gwrites = static_cast<int>(rng.uniformInt(0, 2));
        job.resultBursts = static_cast<int>(rng.uniformInt(1, 8));
        job.composite = rng.uniform() < 0.5;
        job.header = rng.uniform() < 0.5;
        job.onComplete = done_cb(t);
        ctrls[ch]->enqueuePim(std::move(job));
    };

    // A superseded resume inside a run of wake-ups. Each channel, last
    // to first, gets a row on bank 0 and then another row there, whose
    // precharge lies beyond a short horizon: each registers a resume
    // ahead. A 16-burst row on bank 4 then arrives on every channel,
    // first to last, and its bursts wake each controller every cycle
    // from before that resume on. The superseded resumes still fire
    // their controllers, last to first, so the rows on bank 4 then
    // complete in that order, in the same cycle.
    for (int ch = kChannels - 1; ch >= 0; --ch) {
        row(ch, 0, 0, 1);
        row(ch, 0, 1, 1);
    }
    eq.schedule(5, [&] {
        for (int ch = 0; ch < kChannels; ++ch)
            row(ch, 4, 0, 16);
    });
    eq.run();
    const Cycle t0 = eq.now();
    // Ids 0 to 2 * kChannels - 1 went to the rows on bank 0.
    for (const auto &[id, cycle] : tr.log) {
        if (id >= 2 * kChannels) {
            tr.firstBank4 = static_cast<int>(id) - 2 * kChannels;
            break;
        }
    }

    // Lockstep: identical streams on every channel complete on the
    // same cycles everywhere. Then two identical streams on the two
    // halves, whose final completions tie.
    stream(0, kChannels, 40, 16, false);
    stream(0, kChannels / 2, 24, 16, false);
    stream(kChannels / 2, kChannels / 2, 24, 16, false);
    // Mid-stream arrivals: MEM streams of every shape, writes, and PIM
    // kernels that arrive and drain, over several refresh intervals.
    for (int k = 0; k < 60; ++k) {
        Cycle at = rng.uniformInt(40, 24'000);
        int first = static_cast<int>(rng.uniformInt(0, kChannels - 1));
        int nch = static_cast<int>(
            rng.uniformInt(1, static_cast<std::uint64_t>(kChannels - first)));
        int rows = static_cast<int>(rng.uniformInt(1, 24));
        int bursts = static_cast<int>(rng.uniformInt(1, 16));
        bool write = rng.uniform() < 0.3;
        bool with_pim = rng.uniform() < 0.2;
        int pim_ch = static_cast<int>(rng.uniformInt(0, kChannels - 1));
        eq.schedule(t0 + at, [=, &stream, &pim] {
            stream(first, nch, rows, bursts, write);
            if (with_pim)
                pim(pim_ch);
        });
    }
    eq.run();
    finish(tr, eq, ctrls);
    return tr;
}

/**
 * Long stream descriptors, which MEM-only epochs advance whole periods
 * of (DESIGN.md §3.6). Every channel starts on its own bank, row and
 * cycle; streams run through refreshes, some write, some end in a
 * shorter tail row; channel 3's first stream is short and completes
 * while the others keep streaming; and each stream's done event, a
 * DMA tracker's, starts its channel's next one.
 */
Trace
driveLong(EventQueue &eq, const std::vector<MemoryController *> &ctrls,
          std::uint64_t seed)
{
    Trace tr;
    attachSinks(tr, ctrls);
    const int banks = ctrls[0]->channel().numBanks();
    std::vector<Rng> rng;
    std::vector<int> bank(kChannels), row(kChannels), left(kChannels, 3);
    for (int ch = 0; ch < kChannels; ++ch) {
        rng.emplace_back(seed * 100 + static_cast<std::uint64_t>(ch));
        bank[ch] = (5 * ch) % banks;
        row[ch] = ch;
    }
    std::uint64_t next_id = 0;
    std::function<void(int)> start = [&](int ch) {
        // Each shape on some channel first: 2-burst rows stream at the
        // ACT window's pace, where tRRD_L binds within a bank group.
        static constexpr int kBursts[] = {16, 2, 8, 2};
        Rng &r = rng[static_cast<std::size_t>(ch)];
        const bool first = left[ch] == 3;
        MemJob job;
        job.bank = bank[ch];
        job.row = row[ch];
        job.rows = ch == 3 && first
                       ? 24
                       : static_cast<int>(r.uniformInt(200, 600));
        job.bursts = kBursts[first ? ch % 4 : r.uniformInt(0, 3)];
        if (r.uniform() < 0.5)
            job.tailBursts = static_cast<int>(
                r.uniformInt(1, static_cast<std::uint64_t>(job.bursts)));
        job.write = r.uniform() < 0.25;
        const std::int64_t lin =
            std::int64_t{row[ch]} * banks + bank[ch] + job.rows;
        bank[ch] = static_cast<int>(lin % banks);
        row[ch] = static_cast<int>(lin / banks);
        const std::uint64_t id = next_id++;
        job.onComplete = [&tr, &eq, &start, &left, id, ch](Cycle c) {
            tr.log.emplace_back(id, c);
            eq.schedule(std::max(c, eq.now()),
                        [&tr, &eq, &start, &left, id, ch] {
                            tr.log.emplace_back(id, eq.now());
                            if (--left[ch] > 0)
                                start(ch);
                        });
        };
        ctrls[ch]->enqueueMem(std::move(job));
    };
    for (int ch = 0; ch < kChannels; ++ch)
        eq.schedule(static_cast<Cycle>(37 * ch), [&start, ch] { start(ch); });
    eq.run();
    finish(tr, eq, ctrls);
    return tr;
}

/**
 * Long MEM streams and long PIM kernels on every channel at once, so
 * that epochs run beside the kernels (DESIGN.md §3.4): kernels of up
 * to 512 row tiles, composite and fine-grained, with and without
 * PIM_HEADER, over several refresh intervals and, under paws, long MEM
 * stints. Each stream's done event starts its channel's next stream,
 * and each kernel's completion schedules the next kernel's release at
 * max(c + d, now), as the executor's softmax chain does.
 */
Trace
drivePim(EventQueue &eq, const std::vector<MemoryController *> &ctrls,
         std::uint64_t seed)
{
    Trace tr;
    attachSinks(tr, ctrls);
    const int banks = ctrls[0]->channel().numBanks();
    std::vector<Rng> mem_rng, pim_rng;
    std::vector<int> bank(kChannels), row(kChannels);
    std::vector<int> streams(kChannels, 3), kernels(kChannels, 8);
    for (int ch = 0; ch < kChannels; ++ch) {
        mem_rng.emplace_back(seed * 100 + static_cast<std::uint64_t>(ch));
        pim_rng.emplace_back(seed * 100 + 50 + static_cast<std::uint64_t>(ch));
        bank[ch] = (3 * ch) % banks;
        row[ch] = 2 * ch;
    }
    std::uint64_t next_id = 0;
    std::function<void(int)> stream = [&](int ch) {
        static constexpr int kBursts[] = {16, 8, 2, 16};
        Rng &r = mem_rng[static_cast<std::size_t>(ch)];
        MemJob job;
        job.bank = bank[ch];
        job.row = row[ch];
        job.rows = static_cast<int>(r.uniformInt(100, 400));
        job.bursts = kBursts[r.uniformInt(0, 3)];
        if (r.uniform() < 0.3)
            job.tailBursts = static_cast<int>(
                r.uniformInt(1, static_cast<std::uint64_t>(job.bursts)));
        job.write = r.uniform() < 0.25;
        const std::int64_t lin =
            std::int64_t{row[ch]} * banks + bank[ch] + job.rows;
        bank[ch] = static_cast<int>(lin % banks);
        row[ch] = static_cast<int>(lin / banks);
        const std::uint64_t id = next_id++;
        job.onComplete = [&tr, &eq, &stream, &streams, id, ch](Cycle c) {
            tr.log.emplace_back(id, c);
            eq.schedule(std::max(c, eq.now()),
                        [&tr, &eq, &stream, &streams, id, ch] {
                            tr.log.emplace_back(id, eq.now());
                            if (--streams[ch] > 0)
                                stream(ch);
                        });
        };
        ctrls[ch]->enqueueMem(std::move(job));
    };
    std::function<void(int)> kernel = [&](int ch) {
        static constexpr int kBanks[] = {4, 8, 32};
        Rng &r = pim_rng[static_cast<std::size_t>(ch)];
        PimJob job;
        job.rowTiles = static_cast<int>(r.uniform() < 0.5
                                            ? r.uniformInt(1, 24)
                                            : r.uniformInt(64, 512));
        job.banksUsed = kBanks[r.uniformInt(0, 2)];
        job.gwrites = static_cast<int>(r.uniformInt(0, 3));
        job.resultBursts = static_cast<int>(r.uniformInt(1, 8));
        job.composite = r.uniform() < 0.5;
        job.header = r.uniform() < 0.5;
        // The next release waits for a softmax-like delay, often none.
        const Cycle d = r.uniform() < 0.3 ? 0 : r.uniformInt(1, 300);
        const std::uint64_t id = next_id++;
        job.onComplete = [&tr, &eq, &kernel, &kernels, id, ch, d](Cycle c) {
            tr.log.emplace_back(id, c);
            eq.schedule(std::max(c + d, eq.now()),
                        [&tr, &eq, &kernel, &kernels, id, ch] {
                            tr.log.emplace_back(id, eq.now());
                            if (--kernels[ch] > 0)
                                kernel(ch);
                        });
        };
        ctrls[ch]->enqueuePim(std::move(job));
    };
    for (int ch = 0; ch < kChannels; ++ch) {
        eq.schedule(static_cast<Cycle>(29 * ch), [&stream, ch] { stream(ch); });
        eq.schedule(static_cast<Cycle>(200 + 113 * ch),
                    [&kernel, ch] { kernel(ch); });
    }
    eq.run();
    finish(tr, eq, ctrls);
    return tr;
}

/** Everything two runs of one workload must share. */
void
expectSameRun(const Trace &with, const Trace &without, std::uint64_t seed)
{
    EXPECT_EQ(with.log, without.log) << "seed " << seed;
    EXPECT_EQ(with.end, without.end) << "seed " << seed;
    for (int ch = 0; ch < kChannels; ++ch) {
        for (int i = 0; i < kNumCommandTypes; ++i)
            EXPECT_EQ(with.counts[ch].counts[i],
                      without.counts[ch].counts[i])
                << "channel " << ch << " command " << i;
        expectSame(with.sched[ch], without.sched[ch], ch);
        // The full command log: each burst of a train and each command
        // of an advanced period, at its cycle, bank and row.
        const auto &a = with.commands[ch];
        const auto &b = without.commands[ch];
        EXPECT_EQ(a.size(), b.size()) << "channel " << ch;
        std::size_t i = 0;
        while (i < a.size() && i < b.size() && a[i] == b[i])
            ++i;
        if (i < a.size() && i < b.size())
            ADD_FAILURE() << "seed " << seed << " channel " << ch
                          << " command " << i << ": "
                          << commandName(a[i].type) << " at " << a[i].cycle
                          << " bank " << a[i].bank << " row " << a[i].row
                          << ", event by event "
                          << commandName(b[i].type) << " at " << b[i].cycle
                          << " bank " << b[i].bank << " row " << b[i].row;
    }
    EXPECT_EQ(with.dataBytes, without.dataBytes);
    EXPECT_EQ(with.dataUtil, without.dataUtil);
}

struct EpochCase
{
    MemSchedKind kind;
    bool dual;
    Cycle horizon;
};

std::string
caseName(const EpochCase &c)
{
    return memSchedKindName(c.kind) +
           std::string(c.dual ? "_dual_h" : "_blocked_h") +
           std::to_string(c.horizon);
}

/** Keeps the CTest names free of gtest's byte dump (padding bytes
 * would make them differ between builds). */
void
PrintTo(const EpochCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class EpochDifferential : public ::testing::TestWithParam<EpochCase>
{};

MemConfig
configFor(const EpochCase &c)
{
    MemConfig cfg;
    cfg.org.channels = kChannels;
    cfg.ctrl = ControllerConfig::make(c.dual);
    cfg.ctrl.horizon = c.horizon;
    cfg.ctrl.sched = c.kind;
    return cfg;
}

struct TimingRun
{
    std::uint64_t seed;
    Cycle tBL;
    Cycle caMemCmd;
    Cycle tRRD_L = TimingParams{}.tRRD_L;
};

/** @p workload on an HbmStack, then on bare controllers. */
template <typename Workload>
std::pair<Trace, Trace>
bothWays(MemConfig cfg, const TimingRun &run, Workload workload)
{
    cfg.timing.tBL = run.tBL;
    cfg.timing.caMemCmd = run.caMemCmd;
    cfg.timing.tRRD_L = run.tRRD_L;
    EventQueue eq_epochs;
    HbmStack hbm(eq_epochs, cfg);
    std::vector<MemoryController *> stacked;
    for (ChannelId ch = 0; ch < kChannels; ++ch)
        stacked.push_back(&hbm.controller(ch));
    Trace with = workload(eq_epochs, stacked, run.seed);

    EventQueue eq_plain;
    std::vector<std::unique_ptr<MemoryController>> bare;
    std::vector<MemoryController *> plain;
    for (int ch = 0; ch < kChannels; ++ch) {
        bare.push_back(std::make_unique<MemoryController>(
            eq_plain, cfg.timing, cfg.org, cfg.ctrl));
        plain.push_back(bare.back().get());
    }
    Trace without = workload(eq_plain, plain, run.seed);
    return {std::move(with), std::move(without)};
}

TEST_P(EpochDifferential, MatchesEventByEventRun)
{
    const EpochCase c = GetParam();
    // Three seeds in default timing, then bursts two cycles apart: a
    // train's wake-ups form a run of stride 2, and with caMemCmd = 2
    // the data bus idles between its bursts.
    for (const TimingRun &run :
         {TimingRun{1, 1, 1}, TimingRun{2, 1, 1}, TimingRun{3, 1, 1},
          TimingRun{4, 2, 1}, TimingRun{5, 1, 2}}) {
        auto [with, without] = bothWays(configFor(c), run, drive);
        ASSERT_GT(without.log.size(), 1000u);
        // The workload reaches a superseded resume inside a run.
        if (c.horizon == 16) {
            EXPECT_EQ(without.firstBank4, kChannels - 1);
        }
        expectSameRun(with, without, run.seed);
        // The stack really ran epochs: they replace most wake-up
        // events.
        EXPECT_LT(2 * with.events, without.events) << "seed " << run.seed;
    }
}

TEST_P(EpochDifferential, LongStreamsMatchEventByEventRun)
{
    const EpochCase c = GetParam();
    // Default timing, then tBL = 2, caMemCmd = 2, and a tRRD_L long
    // enough to bind where a period starts, so each bank group's ACT
    // tracker must turn with the banks.
    for (const TimingRun &run :
         {TimingRun{11, 1, 1}, TimingRun{12, 2, 1}, TimingRun{13, 1, 2},
          TimingRun{14, 1, 1, 16}}) {
        auto [with, without] = bothWays(configFor(c), run, driveLong);
        ASSERT_EQ(without.log.size(), 2u * 3 * kChannels);
        expectSameRun(with, without, run.seed);
        // Whole periods really were advanced in closed form.
        EXPECT_GT(with.rowsAdvanced, 0u) << "seed " << run.seed;
        EXPECT_EQ(without.rowsAdvanced, 0u);
    }
}

TEST_P(EpochDifferential, KernelsBesideStreamsMatchEventByEventRun)
{
    const EpochCase c = GetParam();
    // Default timing, then tBL = 2 and caMemCmd = 2: trains beside a
    // kernel whose bursts issue two cycles apart.
    for (const TimingRun &run :
         {TimingRun{21, 1, 1}, TimingRun{22, 1, 1}, TimingRun{23, 2, 1},
          TimingRun{24, 1, 2}}) {
        auto [with, without] = bothWays(configFor(c), run, drivePim);
        ASSERT_EQ(without.log.size(), 2u * (3 + 8) * kChannels);
        expectSameRun(with, without, run.seed);
        // Epochs really ran beside the kernels: 336-565 of the
        // 73,891-84,691 events remain. Declining every epoch while a
        // kernel was queued or running kept 55,819-84,078 of them.
        EXPECT_LT(50 * with.events, without.events) << "seed " << run.seed;
    }
}

std::vector<EpochCase>
allCases()
{
    std::vector<EpochCase> cases;
    for (MemSchedKind kind : {MemSchedKind::FrFcfs, MemSchedKind::Paws})
        for (bool dual : {true, false})
            for (Cycle horizon : {Cycle{16}, Cycle{256}})
                cases.push_back({kind, dual, horizon});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EpochDifferential, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<EpochCase> &param_info) {
        return caseName(param_info.param);
    });

} // namespace
} // namespace neupims::dram
