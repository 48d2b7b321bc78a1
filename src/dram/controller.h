/**
 * @file
 * Per-channel memory controller (paper §5.3).
 *
 * The controller owns two queues — regular memory row-stream jobs
 * (NPU weight/activation/KV traffic) and PIM GEMV kernels — and
 * interleaves their commands on the channel's shared C/A bus.
 *
 * Modes reproduce the paper's design space:
 *  - blocked (baseline PIM, single row buffer): while a PIM kernel
 *    executes, no memory command may issue; the shared row buffer
 *    means PIM activations evict open MEM rows.
 *  - concurrent (NeuPIMs, dual row buffers): commands of both classes
 *    are merged in issue-time order with PIM commands prioritized on
 *    ties (§5.3: PIM priority keeps the slower PIM control path from
 *    starving while MEM commands fill the abundant C/A gaps, Fig. 9).
 *  - composite PIM_GEMV vs fine-grained PIM_DOTPRODUCT streams, and
 *    PIM_HEADER-based refresh scheduling vs a conservative refresh
 *    guard (§5.2).
 *
 * Dispatch is event-driven with a bounded reservation horizon: the
 * controller never commits bus slots more than `horizon` cycles ahead
 * of simulated time, so a PIM kernel arriving mid-phase observes at
 * most `horizon` cycles of priority staleness. Inside an HbmStack,
 * stretches between arrivals run as epochs on a virtual clock, MEM
 * bursts and PIM phases alike (DESIGN.md §3.4), with the exact
 * schedule of the event-by-event path.
 *
 * Committed-schedule lifetime: a schedule (and its horizon-ahead
 * commitments) lives exactly as long as the controller object. The
 * executor rebuilds every controller per runIteration() call, and the
 * serving layer's channel-failure path (PagedKvCache::failChannel)
 * operates on capacity only — no MemoryController exists across a
 * failure, so an in-flight committed schedule can never be replayed
 * onto a failed channel. tests/runtime/test_controller_lifecycle.cc
 * locks this invariant.
 *
 * Arbitration between the two classes is the controller's MemArbiter
 * (dram/mem_sched.h), a value configured by kind: FR-FCFS is the
 * paper's choice rule; PAWS alternates PIM and MEM modes under
 * stint caps.
 */

#ifndef NEUPIMS_DRAM_CONTROLLER_H_
#define NEUPIMS_DRAM_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"
#include "dram/channel.h"
#include "dram/mem_sched.h"

namespace neupims::dram {

/**
 * A stream of regular memory accesses on one channel (DESIGN.md §3.5):
 * @p rows row jobs, the first at (@p bank, @p row), each later one on
 * the next bank, the row advancing after a sweep of the banks. The
 * controller expands them in that order. The defaults are one row.
 */
struct MemJob
{
    BankId bank = 0;          ///< the first row's bank
    int row = 0;              ///< the first row
    int rows = 1;             ///< row jobs in the stream (>= 1)
    int bursts = 1;           ///< 64 B bursts per row (1..16)
    int tailBursts = 0;       ///< the last row's bursts; 0 means bursts
    bool write = false;
    /**
     * Invoked once the stream's last row completes (rows may complete
     * out of order), with the latest row's data-burst end. NOTE: the
     * controller commits command schedules up to a bounded horizon
     * ahead of simulated time, so the callback may run *before* the
     * reported cycle is reached; the Cycle argument is authoritative
     * and continuations must be scheduled at it. It may schedule events
     * but must not enqueue onto a controller or read controller state:
     * inside an HbmStack it can run at the end of an epoch, after the
     * controller moved on (DESIGN.md §3.4).
     */
    std::function<void(Cycle)> onComplete;
};

/** One PIM GEMV kernel (a batch of dot-products on this channel). */
struct PimJob
{
    int rowTiles = 1;         ///< total matrix-operand bank-rows
    int banksUsed = 32;       ///< banks participating per round
    int gwrites = 1;          ///< operand-vector chunks to stage
    int resultBursts = 1;     ///< 64 B result bursts returned to host
    bool composite = true;    ///< PIM_GEMV vs PIM_DOTPRODUCT stream
    bool header = true;       ///< PIM_HEADER announced (refresh-safe)
    /**
     * Invoked once the kernel's completion cycle (results returned to
     * the host) is known; same synchronous contract as MemJob. Inside
     * an HbmStack an epoch can hold it back too: it may run after the
     * controller moved on, so it may only schedule, at or after its
     * cycle (DESIGN.md §3.4).
     */
    std::function<void(Cycle)> onComplete;
};

class MemoryController;

/** What an HbmStack shares with its controllers (DESIGN.md §3.4). */
struct EpochState
{
    bool replaying = false; ///< an epoch is invoking its completions
    /** The controller whose completion bound declined the last offer;
     * the stack declines at once until it runs again. */
    const MemoryController *blocker = nullptr;
};

struct ControllerConfig
{
    bool dualRowBuffers = true;  ///< NeuPIMs banks vs baseline banks
    Cycle horizon = 256;         ///< reservation lookahead bound
    /**
     * In-flight row jobs the controller issues out of (bank overlap).
     * A bank's row cycle is ~4x the data-bus occupancy of one full
     * row, so 8 in-flight banks keep the data bus saturated on
     * streaming reads.
     */
    int memIssueWindow = 8;

    /** Arbitration policy between MEM and PIM command classes. */
    MemSchedKind sched = MemSchedKind::FrFcfs;

    /**
     * Blocked mode: serialize MEM and PIM phases, as a baseline bank's
     * single row buffer forces (§5.1).
     */
    bool blockedMode() const { return !dualRowBuffers; }

    static ControllerConfig
    make(bool dual_row_buffers)
    {
        ControllerConfig c;
        c.dualRowBuffers = dual_row_buffers;
        return c;
    }
};

class MemoryController
{
  public:
    MemoryController(EventQueue &eq, const TimingParams &timing,
                     const Organization &org, ControllerConfig cfg);

    void enqueueMem(MemJob job);
    void enqueuePim(PimJob job);

    Channel &channel() { return channel_; }
    const Channel &channel() const { return channel_; }
    const ControllerConfig &config() const { return cfg_; }

    /** True when no job is queued or in flight. */
    bool idle() const;

    /** Queued + in-flight MEM rows, expanded or not. */
    std::size_t pendingMemJobs() const;

    // --- statistics -----------------------------------------------------
    /** Sum over banks of PIM compute cycles. */
    Cycle pimBankBusyCycles() const { return pimBankBusyCycles_; }
    /** MEM row jobs completed; MemJob completions invoked. */
    std::uint64_t completedMemJobs() const { return completedMemJobs_; }
    std::uint64_t memCompletions() const { return memCompletions_; }
    std::uint64_t completedPimJobs() const { return completedPimJobs_; }
    /** Commands the arbitration loop issued (a train counts once). */
    std::uint64_t decisions() const { return decisions_; }
    /** MEM rows an epoch admitted by advancing whole periods in closed
     * form (DESIGN.md §3.6), with no loop decision. */
    std::uint64_t rowsAdvanced() const { return rowsAdvanced_; }

    /** The arbiter's counters, with the row outcomes and the MEM
     * command count read off the channel's commands. */
    MemSchedStats memSchedStats() const;

  private:
    friend class HbmStack; // drives epochs through the hooks below

    /** A queued MemJob's rows not yet expanded: its row cursor, and the
     * streamDone_ slot of its completion (-1 when it has none). */
    struct MemStream
    {
        BankId bank = 0;
        int row = 0;
        int rows = 0;
        int bursts = 0;
        int tailBursts = 0;
        bool write = false;
        int done = -1;
    };

    /** A stream's completion, held until its last row retires. */
    struct StreamDone
    {
        std::function<void(Cycle)> fn;
        int rowsLeft = 0; ///< rows not yet retired
        Cycle last = 0;   ///< latest row completion so far
        std::uint64_t burstsLeft = 0; ///< bursts not yet issued
    };

    /** In-flight state machine for one row job of a MemJob. */
    struct MemExec
    {
        MemStream job; ///< the row: bank, row, bursts, write, done
        enum class Phase { PreOrAct, Bursts } phase = Phase::PreOrAct;
        int burstsDone = 0;
        Cycle lastBurstEnd = 0;
        Cycle enqueued = 0;
        /** Next command, its bank-local ready cycle (enqueued folded
         * in), and that with tFAW and tRRD applied to an ACT: the
         * candidate is max(ready, C/A bus) (DESIGN.md §3.5). */
        enum class Next { Column, Precharge, Activate } next = Next::Column;
        Cycle bankReady = 0;
        Cycle ready = 0;
    };

    /** In-flight state machine for one PimJob. */
    struct PimExec
    {
        PimJob job;
        enum class Phase
        {
            Gwrite,
            Header,
            Group,       ///< activation wave of the current round
            DotProduct,  ///< fine-grained per-bank compute commands
            RoundResult, ///< fine-grained per-round result readback
            FinalResult, ///< composite kernel-end result readback
            Precharge,
            Done,
        } phase = Phase::Gwrite;

        int gwritesDone = 0;
        Cycle gwriteReady = 0;      ///< global vector buffer free time
        int rounds = 0;
        int round = 0;
        int groupsPerRound = 0;
        int group = 0;
        int dotProductsDone = 0;
        int banksThisRound = 0;
        std::vector<Cycle> groupRowReady; ///< per-group tRCD-complete time
        Cycle roundComputeEnd = 0;
        Cycle kernelComputeEnd = 0;
        Cycle resultEnd = 0;
        int rowsIssued = 0;
    };

    void kick();
    /** A kick or resume event: unless a later kick or run superseded
     * it (DESIGN.md §3.1), run the arbitration loop, then invoke the
     * completions it collected and schedule its resume. */
    void wake();
    /** Start a run of the loop at @p at: set the clock, clear the
     * registration. */
    void beginRun(Cycle at);
    /** The arbitration loop. @return the resume cycle it registered
     * at the horizon, or kCycleMax when the controller went idle.
     * Inside an epoch it runs the wake-ups before the epoch's end
     * itself, on the virtual clock. */
    Cycle process();
    /** Schedule a resume; tagged when an HbmStack runs epochs. */
    void scheduleResume(Cycle at);

    // --- epochs (DESIGN.md §3.4), driven by HbmStack ---
    /** Run every wake-up in [registered resume, @p end) on the virtual
     * clock, recording their cycles and holding back completions. */
    void advanceEpoch(Cycle end);
    /** Replay step: a wake-up event at @p w fires. If it runs the
     * chain's next wake-up, invoke that wake-up's completions and,
     * after the last one, schedule the boundary resume.
     * @return the chain's next wake-up cycle, or kCycleMax. */
    Cycle fireEpochWake(Cycle w);
    /** The first wake-up from the replay cursor on that invokes a
     * completion, ends its run or is not one cycle before the next. */
    Cycle replayStop() const;
    /** Append @p count wake-ups, @p stride apart from @p first, to the
     * epoch's chain; consecutive cycles extend the last run. */
    void addWakes(Cycle first, Cycle count, Cycle stride);
    /** Keep issuing in-flight job @p which's bursts as one train while
     * it stays the winner and its wake-ups stay inside the epoch. */
    void runTrain(int which);
    /** Lower @p hard and @p soft to bounds no completion this
     * controller collects from @p now on lands before (DESIGN.md §3.4):
     * @p hard caps an epoch's end, the horizon rule may overrule @p soft. */
    void completionBounds(Cycle now, Cycle &hard, Cycle &soft) const;
    /** The kernels' part of @p hard: the active one completes first. */
    Cycle pimBound(Cycle now) const;

    // --- periods in closed form (DESIGN.md §3.6) ---
    /** A row of the front stream is about to enter the window inside an
     * epoch: compare the state with a mark, and on a match advance
     * whole periods. @return whether it advanced. */
    bool notePeriod();
    /** Whether the last 2p admissions came at one repeated spacing. */
    bool admissionsRepeat(int p) const;
    /** The controller's part of the normalized state, relative to now_
     * and the front stream; Channel::normalize appends the rest. */
    void normalize(std::vector<Cycle> &out) const;
    /** Record the state and counters at this admission, to compare
     * with @p p admissions later. */
    void takeMark(int p);
    /** The state matches the mark's: the periods that fit. */
    std::uint64_t periodsToAdvance();
    /** Repeat the loop's work since the mark @p k times, then move the
     * state k periods on. */
    void advancePeriods(std::uint64_t k);

    /** Earliest cycle the front-most mem work could issue; kCycleMax
     * if none. Also selects which in-flight job that is. */
    Cycle candidateMem(int &which);
    /** Rescan the in-flight window into memBest_/memBestIdx_. */
    void scanMem();
    /** Recompute @p m's next command and ready cycles. */
    void recomputeNext(MemExec &m) const;
    /** Earliest cycle the active PIM kernel's next command could
     * issue; kCycleMax if none. Without @p with_ca the C/A bus is left
     * out, as a burst train beside the kernel compares it. */
    Cycle candidatePim(bool with_ca = true) const;

    /** Issue the next sub-command of in-flight mem job @p which.
     * @return whether it issued a burst and the job is still in flight. */
    bool stepMem(int which);
    /** Complete in-flight job @p which and drop it from the window. */
    void retireMem(int which);
    /** Issue the next sub-command of the active PIM kernel. */
    void stepPim();
    /** Advance the active PIM kernel to its next round or epilogue. */
    void advanceRound();

    /** Refill the in-flight mem window from the queue. */
    void refillMemWindow();

    /** Begin executing the next queued PIM kernel, if any. */
    void startNextPimKernel();

    /** Handle refresh that is (or would become) due before @p when. */
    bool maybeRefresh(Cycle when);

    void finishMem(const MemExec &exec);
    void finishPim(Cycle done);

    EventQueue &eq_;
    ControllerConfig cfg_;
    Channel channel_;

    std::deque<MemStream> memQueue_;
    std::size_t queuedRows_ = 0; ///< rows in memQueue_
    std::vector<StreamDone> streamDone_;
    std::vector<int> freeDone_; ///< unused streamDone_ slots
    std::deque<PimJob> pimQueue_;
    std::vector<MemExec> memInFlight_;
    /** Banks with an in-flight mem job (one bit per bank), replacing
     * the former linear scan of memInFlight_ per admission. */
    std::uint64_t banksBusyMask_ = 0;
    /** Banks whose state changed since the last candidate scan. */
    std::uint64_t staleBanks_ = 0;
    /** An ACT issued since the last scan: re-apply tFAW and tRRD to
     * every job whose next command is an ACT. */
    bool actIssued_ = false;
    /** The last scan's MEM winner, valid until anything issues, enters
     * the window, starts or refreshes. */
    bool memScanValid_ = false;
    Cycle memBest_ = kCycleMax;
    int memBestIdx_ = -1;
    std::unique_ptr<PimExec> pim_;

    /** The registered wake-up's cycle; kCycleMax when none is. */
    Cycle nextKickAt_ = kCycleMax;
    /** The clock every decision reads: the wake-up being run. */
    Cycle now_ = 0;

    /**
     * Completions collected by one process() call, invoked in order
     * once it returns: a callback may enqueue onto this controller,
     * and its kick must not land inside the loop (DESIGN.md §3.1).
     * An epoch holds them until its replay.
     */
    struct Completion
    {
        std::function<void(Cycle)> fn;
        Cycle at;
        Cycle wake; ///< the wake-up that collected it
    };
    std::vector<Completion> completions_;

    /** Epoch wake-ups first, first + stride, ..., last. */
    struct WakeRun
    {
        Cycle first;
        Cycle last;
        Cycle stride;
    };

    EpochState *epoch_ = nullptr; ///< set by the owning HbmStack
    Cycle epochEnd_ = 0;          ///< the running epoch's end, else 0
    std::vector<WakeRun> chain_;  ///< the epoch's wake-ups, in runs
    std::size_t runPos_ = 0;      ///< replay cursor: the current run
    Cycle replayAt_ = 0;          ///< replay cursor: its next wake-up
    Cycle listedStop_ = 0;        ///< replayStop() when last listed
    std::size_t compPos_ = 0;     ///< replay cursor into completions_

    /** A row admission inside an epoch, normalized, with the logs'
     * and counters' positions there (DESIGN.md §3.6). */
    struct Mark
    {
        bool valid = false;
        int rows = 0;             ///< admissions until the comparison
        std::uint64_t admission = 0;
        Cycle now = 0;
        Cycle refreshDue = 0;
        std::vector<Cycle> state;
        std::size_t own = 0;      ///< the controller's part of state
        Channel::PeriodMark channel;
        std::size_t runs = 0;     ///< chain_ runs
        Cycle runLast = 0;        ///< the last one's end
        std::uint64_t completed = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t burstsLeft = 0; ///< the front stream's
    };
    Mark mark_;
    std::vector<Cycle> scratch_;      ///< the state being compared
    std::vector<Cycle> admitTimes_;   ///< ring of admission cycles
    std::uint64_t admissions_ = 0;    ///< in epochs, since an advance
    bool longPeriod_ = false;         ///< compare two groups' rows, not one
    Cycle reach_ = 0;                 ///< latest candidate since the mark
    std::vector<WakeRun> runCopy_;    ///< the mark's period's new runs

    MemArbiter arbiter_;

    Cycle pimBankBusyCycles_ = 0;
    std::uint64_t completedMemJobs_ = 0;
    std::uint64_t rowHits_ = 0; ///< MEM rows that found their row open
    std::uint64_t memCompletions_ = 0;
    std::uint64_t completedPimJobs_ = 0;
    std::uint64_t decisions_ = 0;
    std::uint64_t rowsAdvanced_ = 0;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_CONTROLLER_H_
