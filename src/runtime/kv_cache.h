/**
 * @file
 * vLLM-style paged KV-cache allocator (paper §2.2: NeuPIMs "employs
 * the vLLM paging technique, implementing the page-based memory
 * allocation mechanism for KV cache, which effectively increases the
 * batch size significantly").
 *
 * Each PIM channel owns a pool of fixed-size pages; a request's KV
 * cache grows one token at a time and allocates a fresh page only
 * when the tail page fills. Admission control asks the allocator
 * whether a new request's prompt fits before adding it to the batch.
 *
 * Memory pressure is first-class: sequences can be *evicted*
 * (pages released for recompute-via-prefill) or *swapped* to an
 * optional host tier over a modeled host link and later restored,
 * page-granular in both directions. Reservation (bind/append) and
 * release (free/evict/swap-out) keep exact per-channel page accounts;
 * cumulative eviction/swap counters feed the serving report.
 *
 * With `KvCacheConfig::prefixSharing` enabled the allocator keeps a
 * radix-style prefix index per channel over *full* pages of prompt
 * token-ids: admission walks the index and binds matching whole
 * pages by reference (refcount++, zero pages allocated), a trailing
 * full page whose first j tokens match binds as a *partial view*,
 * and the first append into a partial view triggers copy-on-write
 * into a private page. Pages that fill entirely inside the prompt
 * are *published* back into the index (private -> shared, refcount
 * 1), so later identical prompts hit even after this sequence
 * retires: refcount-0 nodes stay cached and are counted as free
 * capacity, reclaimed LRU-childless-first when the free list runs
 * dry. Sharing disabled is byte-identical to the historical
 * allocator (DESIGN.md §13).
 */

#ifndef NEUPIMS_RUNTIME_KV_CACHE_H_
#define NEUPIMS_RUNTIME_KV_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace neupims::runtime {

struct KvCacheConfig
{
    int channels = 32;
    Bytes bytesPerChannel = 768_MiB; ///< capacity reserved for KV cache
    int tokensPerPage = 16;          ///< vLLM-style block size
    Bytes bytesPerTokenPerLayer = 0; ///< model-dependent (K+V, sharded)
    int layers = 1;                  ///< layers resident on the device
    bool prefixSharing = false; ///< refcounted COW sharing + prefix index

    /** Bytes of one page (tokensPerPage tokens, all layers). */
    Bytes
    pageBytes() const
    {
        return static_cast<Bytes>(tokensPerPage) *
               bytesPerTokenPerLayer * static_cast<Bytes>(layers);
    }

    /** Total pages one channel can hold. */
    std::int64_t
    pagesPerChannel() const
    {
        return pageBytes() ? static_cast<std::int64_t>(
                                 bytesPerChannel / pageBytes())
                           : 0;
    }
};

/** Cumulative prefix-sharing counters (all zero with sharing off). */
struct PrefixShareStats
{
    std::uint64_t admissions = 0; ///< binds that carried prompt tokens
    std::uint64_t hits = 0;       ///< binds with >= 1 cached token
    std::uint64_t tokensDeduped = 0; ///< prompt tokens served from the index
    std::uint64_t pagesDeduped = 0;  ///< pages bound by ref, not allocated
    std::uint64_t cowCopies = 0;     ///< shared pages privatized on write
    std::uint64_t pagesPublished = 0; ///< private pages become index nodes
    std::uint64_t pagesReclaimed = 0; ///< cached ref-0 pages evicted for reuse
};

class PagedKvCache
{
  public:
    explicit PagedKvCache(const KvCacheConfig &cfg);

    const KvCacheConfig &config() const { return cfg_; }

    /**
     * Pages currently available on @p channel. With prefix sharing
     * this includes cached (refcount-0) index pages — they are
     * reclaimed on demand, so they are free capacity for every
     * admission/pressure decision.
     */
    std::int64_t freePages(ChannelId channel) const;

    // --- channel fault state (runtime/fault_model.h) ----------------

    /** Whether @p channel accepts allocations (online, not failed). */
    bool channelOnline(ChannelId channel) const;

    /**
     * Mark @p channel offline (brownout) or back online. Resident
     * sequences keep their pages; only new placement/growth is
     * blocked while offline. No effect on failed channels.
     */
    void setChannelOnline(ChannelId channel, bool online);

    /**
     * Permanently fail @p channel: its free pages drop to zero and
     * its capacity leaves the utilization denominator for good. Any
     * cached prefix-index nodes on the channel are destroyed with it
     * (dropped exactly once — they count into the returned loss).
     * @return capacity pages lost. @pre no sequence is resident on the
     * channel (the scheduler force-evicts residents first — their
     * pages are lost, which is exactly the eviction) and no surviving
     * reference holds an index node there.
     */
    std::int64_t failChannel(ChannelId channel);

    /** Channels not permanently failed. */
    int liveChannels() const;

    /** Capacity pages across non-failed channels. */
    std::int64_t liveCapacityPages() const;

    /** Pages a sequence of @p tokens occupies. */
    std::int64_t pagesForTokens(int tokens) const;

    /** Whether @p channel can host a new sequence of @p tokens. */
    bool canAllocate(ChannelId channel, int tokens) const;

    /**
     * Bind @p id to @p channel and allocate its first @p tokens.
     * @return false (no side effects) if capacity is insufficient.
     */
    bool allocateSequence(RequestId id, ChannelId channel, int tokens);

    /**
     * Prefix-aware variant: walk the channel's prefix index over
     * @p promptTokens, bind matching whole pages by reference, and
     * allocate only the remainder privately; full prompt pages are
     * published into the index afterwards. @p cachedTokens returns
     * the prefix length served from the index (capped at one less
     * than the prompt so at least one token always prefills).
     * Sharing off (or an empty prompt) degenerates to
     * allocateSequence with @p cachedTokens = 0.
     */
    bool allocateSequence(RequestId id, ChannelId channel, int tokens,
                          const std::vector<std::int32_t> &promptTokens,
                          int &cachedTokens);

    /**
     * Bind @p id to @p channel with zero resident tokens (the lazy
     * chunk-by-chunk allocation path: pages are reserved as prefill
     * slices append their tokens, not up-front at admission).
     */
    void bindSequence(RequestId id, ChannelId channel);

    /**
     * Prefix-aware lazy bind: walk the index over @p promptTokens,
     * binding whole-page matches by reference and at most one
     * trailing partial view (first j tokens of a full shared page).
     * @return cached tokens now resident (<= promptTokens.size() - 1;
     * 0 with sharing off or no match) — prefill starts there.
     */
    int bindSequence(RequestId id, ChannelId channel,
                     const std::vector<std::int32_t> &promptTokens);

    /**
     * Grow @p id by one token; allocates a new page when the tail
     * page is full. @return false if the channel is out of pages (the
     * scheduler must then evict or stall — we stall). A first write
     * into a partial-view shared tail page copies it on write.
     */
    bool appendToken(RequestId id);

    /**
     * Grow @p id by @p tokens (a prefill chunk), reserving the pages
     * the growth crosses. All-or-nothing: @return false with no side
     * effects if the channel lacks the pages. Triggers copy-on-write
     * when the sequence's tail is a partial view of a shared page,
     * and publishes pages that fill entirely inside the prompt.
     */
    bool appendTokens(RequestId id, int tokens);

    /** Pages growing @p id by @p tokens would newly reserve
     * (including the copy-on-write page when the tail is a partial
     * view of a shared page). */
    std::int64_t pagesForAppend(RequestId id, int tokens) const;

    /** Release all pages of @p id (shared pages are dereferenced;
     * refcount-0 nodes stay cached in the index). */
    void freeSequence(RequestId id);

    /**
     * Evict @p id for recompute: release its private device pages,
     * drop its shared-page references, and forget the sequence (its
     * K/V will be rebuilt through prefill). Eviction frees only the
     * unshared suffix: a shared page some other sequence still
     * references stays exactly where it is.
     * @return pages that became free (private + last-reference shared).
     * @pre the sequence is device-resident.
     */
    std::int64_t evictSequence(RequestId id);

    /**
     * Move every device page of @p id to the host tier, freeing its
     * channel pages (shared pages are dereferenced, their content
     * copied out) but keeping the sequence's token count. @return
     * bytes transferred over the host link.
     * @pre the sequence is device-resident.
     */
    Bytes swapOut(RequestId id);

    /**
     * Restore a swapped-out sequence onto @p channel (page-granular
     * re-reservation; the channel may differ from the original).
     * Whole prompt pages still present in the target channel's index
     * re-bind by reference and are not transferred again.
     * @return bytes transferred, or 0 (no side effects) if @p channel
     * lacks the pages. @pre isSwappedOut(id)
     */
    Bytes swapIn(RequestId id, ChannelId channel);

    /** Whether @p id currently lives in the host tier. */
    bool isSwappedOut(RequestId id) const;

    /** Pages @p id parks in the host tier (0 if device-resident). */
    std::int64_t hostPagesOf(RequestId id) const;

    /** Pages currently parked in the host swap tier. */
    std::int64_t hostPagesUsed() const { return hostPages_; }

    /** Private device pages currently reserved by @p id (0 if unknown
     * or swapped out); shared references are in sharedPagesOf. */
    std::int64_t pagesOf(RequestId id) const;

    /** Shared index pages @p id holds a reference on. */
    std::int64_t sharedPagesOf(RequestId id) const;

    /**
     * Pages that evicting @p id would actually free: its private
     * pages plus the shared pages only it references (refcount 1).
     * Equals pagesOf with sharing off. The refcount-aware victim
     * score feeds on this (DESIGN.md §13).
     */
    std::int64_t evictablePagesOf(RequestId id) const;

    /** Index pages on @p channel with refcount 0 (cached, free). */
    std::int64_t cachedPages(ChannelId channel) const;

    /** All prefix-index pages on @p channel (any refcount). */
    std::int64_t indexPages(ChannelId channel) const;

    /** Cumulative prefix-sharing counters. */
    const PrefixShareStats &prefixStats() const { return prefixStats_; }

    /** Pages in use on @p channel. */
    std::int64_t usedPages(ChannelId channel) const;

    /** Device-wide page utilization in [0, 1]. */
    double utilization() const;

    /** Channel a request lives on, or kInvalidId. */
    ChannelId channelOf(RequestId id) const;

    /** Tokens stored for a request (0 if unknown). */
    int tokensOf(RequestId id) const;

  private:
    struct Sequence
    {
        ChannelId channel = kInvalidId;
        int tokens = 0;
        std::int64_t pages = 0; ///< private pages
        bool swapped = false;   ///< pages live in the host tier
        bool partialTail = false; ///< last shared node is a partial view
        std::vector<std::int64_t> sharedNodes; ///< bound index nodes, root-first
        std::vector<std::int32_t> prompt; ///< prompt ids (sharing only)
    };

    /** One full shared page of prompt tokens in the radix index. */
    struct PageNode
    {
        ChannelId channel = kInvalidId;
        std::int64_t parent = -1; ///< node id, -1 for roots
        std::uint64_t hash = 0;   ///< content hash (scan shortcut)
        std::int64_t refcount = 0;
        std::uint64_t lastUse = 0; ///< LRU stamp for ref-0 reclaim
        std::vector<std::int64_t> children;
        std::vector<std::int32_t> tokens; ///< tokensPerPage ids
    };

    /** A reclaim-heap entry: @p node as it was when it became
     * reclaimable (childless, refcount 0) at LRU stamp @p lastUse. */
    struct ReclaimEntry
    {
        std::uint64_t lastUse;
        std::int64_t node;

        /** Heap order: the smallest lastUse on top. */
        static bool
        later(const ReclaimEntry &a, const ReclaimEntry &b)
        {
            return a.lastUse > b.lastUse;
        }
    };

    std::int64_t wholeSharedOf(const Sequence &seq) const;
    bool appendTokensImpl(Sequence &seq, int tokens);
    std::int64_t reclaimablePages(ChannelId channel) const;
    /** Take one truly-free page, reclaiming a cached LRU childless
     * node if the free list is dry. @pre a page is available. */
    void takePage(ChannelId channel);
    /** Push @p node onto its channel's reclaim heap if it is now
     * reclaimable (refcount 0, no children). */
    void noteReclaimable(std::int64_t node);
    std::int64_t findChild(ChannelId channel, std::int64_t parent,
                           const std::int32_t *tokens) const;
    std::int64_t newNode(ChannelId channel, std::int64_t parent,
                         const std::int32_t *tokens);
    void destroyNode(std::int64_t node);
    void incref(std::int64_t node);
    void decref(std::int64_t node);
    /** Convert full in-prompt private pages of @p seq to index nodes
     * (merging with an existing identical node when one appeared). */
    void publishFullPages(Sequence &seq);
    /** Longest whole-page index match of @p prompt on @p channel,
     * capped at @p maxTokens; no binding side effects. */
    std::vector<std::int64_t>
    matchWholePages(ChannelId channel,
                    const std::vector<std::int32_t> &prompt,
                    int maxTokens) const;

    KvCacheConfig cfg_;
    std::vector<std::int64_t> freePages_;
    std::vector<std::uint8_t> online_; ///< accepts allocations
    std::vector<std::uint8_t> failed_; ///< permanently lost
    std::unordered_map<RequestId, Sequence> sequences_;
    std::int64_t hostPages_ = 0;

    // --- prefix index (empty unless cfg_.prefixSharing) -------------
    std::vector<PageNode> nodes_;
    std::vector<std::int64_t> freeNodeSlots_;
    std::vector<std::vector<std::int64_t>> rootsByChannel_;
    std::vector<std::vector<std::int64_t>> nodesByChannel_;
    std::vector<std::int64_t> cachedByChannel_; ///< ref-0 node counts
    /**
     * Per-channel lazy min-heaps on lastUse of the nodes that became
     * reclaimable. An entry goes stale when its node is revived,
     * gains a child or is destroyed (its lastUse or channel no longer
     * match, or it is no longer reclaimable); takePage drops stale
     * entries as they surface. Every reclaimable node has a live
     * entry, and lastUse stamps are unique, so the top live entry is
     * the least-recently-used childless cached node.
     */
    std::vector<std::vector<ReclaimEntry>> reclaimHeaps_;
    std::uint64_t useTick_ = 0;
    PrefixShareStats prefixStats_;
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_KV_CACHE_H_
