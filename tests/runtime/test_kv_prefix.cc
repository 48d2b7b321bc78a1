/**
 * @file
 * Unit and property tests for refcounted shared-prefix KV caching
 * (DESIGN.md §13): radix-index whole-page hits, partial-view binds
 * with copy-on-write, publish/merge of full prompt pages, cached
 * (refcount-0) node retention and LRU reclaim, eviction freeing only
 * the unshared suffix, swap-out/in dereference-and-rebind, channel
 * failure dropping cached nodes exactly once, and byte-identical
 * accounting with sharing disabled.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "runtime/kv_cache.h"
#include "runtime/traffic.h"

namespace neupims::runtime {
namespace {

KvCacheConfig
sharingConfig(bool sharing = true)
{
    KvCacheConfig cfg;
    cfg.channels = 4;
    cfg.tokensPerPage = 16;
    cfg.bytesPerTokenPerLayer = 1024;
    cfg.layers = 2;
    cfg.bytesPerChannel = cfg.pageBytes() * 10; // 10 pages per channel
    cfg.prefixSharing = sharing;
    return cfg;
}

/** Deterministic distinct token ids from the shared synthesis rule. */
std::vector<std::int32_t>
tokens(std::uint64_t stream, int n)
{
    std::vector<std::int32_t> t(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        t[static_cast<std::size_t>(i)] = promptTokenAt(stream, i);
    return t;
}

TEST(KvPrefix, SharingOffDegeneratesToLegacyAllocator)
{
    PagedKvCache kv(sharingConfig(false));
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    EXPECT_EQ(cached, 0);
    EXPECT_EQ(kv.freePages(0), 7);
    EXPECT_EQ(kv.pagesOf(1), 3);
    EXPECT_EQ(kv.sharedPagesOf(1), 0);
    EXPECT_EQ(kv.evictablePagesOf(1), kv.pagesOf(1));
    EXPECT_EQ(kv.indexPages(0), 0);
    EXPECT_EQ(kv.bindSequence(2, 0, prompt), 0);
    EXPECT_EQ(kv.prefixStats().admissions, 0u);
    EXPECT_EQ(kv.prefixStats().hits, 0u);
    EXPECT_EQ(kv.prefixStats().pagesPublished, 0u);
}

TEST(KvPrefix, WholePromptPublishesAndSecondAdmissionHits)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    // First holder: no index yet, allocates privately, then every
    // full prompt page publishes (private -> shared, refcount 1).
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    EXPECT_EQ(cached, 0);
    EXPECT_EQ(kv.pagesOf(1), 0);
    EXPECT_EQ(kv.sharedPagesOf(1), 3);
    EXPECT_EQ(kv.indexPages(0), 3);
    EXPECT_EQ(kv.cachedPages(0), 0); // all referenced
    EXPECT_EQ(kv.freePages(0), 7);
    EXPECT_EQ(kv.prefixStats().pagesPublished, 3u);

    // Second identical prompt: two whole pages hit (the third is
    // capped so one token still prefills), and its own third page
    // merges into the index at publish time.
    ASSERT_TRUE(kv.allocateSequence(2, 0, 48, prompt, cached));
    EXPECT_EQ(cached, 32);
    EXPECT_EQ(kv.prefixStats().hits, 1u);
    EXPECT_EQ(kv.prefixStats().tokensDeduped, 32u);
    EXPECT_EQ(kv.pagesOf(2), 0); // third page merged after publish
    EXPECT_EQ(kv.sharedPagesOf(2), 3);
    EXPECT_EQ(kv.indexPages(0), 3);
    EXPECT_EQ(kv.freePages(0), 7);
    EXPECT_EQ(kv.prefixStats().pagesDeduped, 3u); // 2 bound + 1 merged

    // Fully shared holders have nothing evictable.
    EXPECT_EQ(kv.evictablePagesOf(1), 0);
    EXPECT_EQ(kv.evictablePagesOf(2), 0);

    // Retiring both leaves the pages cached (free capacity).
    kv.freeSequence(1);
    kv.freeSequence(2);
    EXPECT_EQ(kv.cachedPages(0), 3);
    EXPECT_EQ(kv.freePages(0), 10);
    EXPECT_EQ(kv.indexPages(0), 3);
}

TEST(KvPrefix, RetiredPrefixStillHitsUntilReclaimed)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    kv.freeSequence(1);
    ASSERT_EQ(kv.cachedPages(0), 3);

    // A later identical prompt hits the cached nodes.
    ASSERT_TRUE(kv.allocateSequence(2, 0, 48, prompt, cached));
    EXPECT_EQ(cached, 32);
    EXPECT_EQ(kv.cachedPages(0), 0); // revived (merge re-references #3)
    kv.freeSequence(2);
    ASSERT_EQ(kv.cachedPages(0), 3);

    // A full-capacity unrelated prompt reclaims the cached chain
    // leaf-first: cached pages are genuinely free capacity.
    auto other = tokens(99, 160);
    ASSERT_TRUE(kv.allocateSequence(3, 0, 160, other, cached));
    EXPECT_EQ(cached, 0);
    EXPECT_EQ(kv.prefixStats().pagesReclaimed, 3u);
    EXPECT_EQ(kv.freePages(0), 0);
    EXPECT_EQ(kv.indexPages(0), 10); // the new prompt published
}

TEST(KvPrefix, ReclaimTakesLeastRecentlyUsedLeafFirst)
{
    // Index on channel 0, node ids in creation order, LRU stamps:
    //   #0 A's first page (root, parent of #1)   stamp 1
    //   #1 A's second page (leaf)                stamp 2
    //   #2 B's page, still referenced by B       stamp 3
    //   #3 C's page, revived by a later C hit    stamp 4 -> 6
    //   #4 D's page                              stamp 5
    // The free list runs dry after 4 pages; each further page
    // reclaims the least-recently-used cached leaf: #1, then #0 (a
    // leaf once #1 is gone), #4, #3. The referenced #2 never goes.
    // Taking nodes by id would take #3 before #4, by most recent use
    // #3 first, and ignoring children #0 first.
    const auto a = tokens(1, 33);
    const auto b = tokens(2, 17);
    const auto c = tokens(3, 17);
    const auto d = tokens(4, 17);
    struct Survivors
    {
        int a, b, c, d; ///< cached prompt tokens a later bind finds
    };
    const Survivors expected[] = {
        {16, 16, 16, 16}, {0, 16, 16, 16}, {0, 16, 16, 0}, {0, 16, 0, 0}};

    for (int reclaims = 1; reclaims <= 4; ++reclaims) {
        SCOPED_TRACE(reclaims);
        PagedKvCache kv(sharingConfig());
        int cached = -1;
        ASSERT_TRUE(kv.allocateSequence(1, 0, 33, a, cached));
        kv.freeSequence(1);
        ASSERT_TRUE(kv.allocateSequence(2, 0, 17, b, cached));
        ASSERT_TRUE(kv.allocateSequence(3, 0, 17, c, cached));
        kv.freeSequence(3);
        ASSERT_TRUE(kv.allocateSequence(4, 0, 17, d, cached));
        kv.freeSequence(4);
        ASSERT_TRUE(kv.allocateSequence(5, 0, 17, c, cached));
        ASSERT_EQ(cached, 16);
        kv.freeSequence(5);
        ASSERT_EQ(kv.cachedPages(0), 4);
        const std::int64_t dry = kv.freePages(0) - kv.cachedPages(0);
        ASSERT_EQ(dry, 4);

        ASSERT_TRUE(kv.allocateSequence(
            6, 0, static_cast<int>(dry + reclaims) * 16));
        EXPECT_EQ(kv.prefixStats().pagesReclaimed,
                  static_cast<std::uint64_t>(reclaims));
        EXPECT_EQ(kv.cachedPages(0), 4 - reclaims);
        const Survivors &want = expected[reclaims - 1];
        EXPECT_EQ(kv.bindSequence(10, 0, a), want.a);
        EXPECT_EQ(kv.bindSequence(11, 0, b), want.b);
        EXPECT_EQ(kv.bindSequence(12, 0, c), want.c);
        EXPECT_EQ(kv.bindSequence(13, 0, d), want.d);
    }
}

TEST(KvPrefix, PartialViewBindTriggersCopyOnWrite)
{
    PagedKvCache kv(sharingConfig());
    auto promptA = tokens(1, 32);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 32, promptA, cached));
    ASSERT_EQ(kv.indexPages(0), 2);

    // promptB shares the first 20 tokens, then diverges.
    auto promptB = tokens(2, 40);
    for (int i = 0; i < 20; ++i)
        promptB[static_cast<std::size_t>(i)] =
            promptA[static_cast<std::size_t>(i)];

    // Lazy bind: one whole page by reference plus a partial view of
    // the second shared page (first 4 of its tokens match).
    EXPECT_EQ(kv.bindSequence(2, 0, promptB), 20);
    EXPECT_EQ(kv.tokensOf(2), 20);
    EXPECT_EQ(kv.sharedPagesOf(2), 2);
    EXPECT_EQ(kv.pagesOf(2), 0);
    EXPECT_EQ(kv.prefixStats().tokensDeduped, 20u);

    // The first append pays the copy-on-write page even though token
    // 21 fits "inside" the view's page.
    EXPECT_EQ(kv.pagesForAppend(2, 1), 1);
    ASSERT_TRUE(kv.appendTokens(2, 1));
    EXPECT_EQ(kv.prefixStats().cowCopies, 1u);
    EXPECT_EQ(kv.sharedPagesOf(2), 1);
    EXPECT_EQ(kv.pagesOf(2), 1);
    EXPECT_EQ(kv.tokensOf(2), 21);
    // 10 - 2 (published by A) - 1 (COW copy) pages remain.
    EXPECT_EQ(kv.freePages(0), 7);
}

TEST(KvPrefix, AppendAcrossSharedPageBoundaryReservesCowPlusNext)
{
    PagedKvCache kv(sharingConfig());
    auto promptA = tokens(1, 32);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 32, promptA, cached));

    auto promptB = tokens(2, 40);
    for (int i = 0; i < 20; ++i)
        promptB[static_cast<std::size_t>(i)] =
            promptA[static_cast<std::size_t>(i)];
    ASSERT_EQ(kv.bindSequence(2, 0, promptB), 20);

    // Growing from token 20 to 40 crosses the shared page's boundary:
    // the chunk needs the copy-on-write replacement page AND the next
    // page — the historical (non-shared) math would say one page.
    EXPECT_EQ(kv.pagesForAppend(2, 20), 2);
    ASSERT_TRUE(kv.appendTokens(2, 20));
    EXPECT_EQ(kv.prefixStats().cowCopies, 1u);
    EXPECT_EQ(kv.tokensOf(2), 40);
    // B's now-full second page (inside its 40-token prompt) published
    // as a sibling branch; the third page stays private.
    EXPECT_EQ(kv.sharedPagesOf(2), 2);
    EXPECT_EQ(kv.pagesOf(2), 1);
    EXPECT_EQ(kv.indexPages(0), 3);
    // Per-channel conservation: 6 free + 3 index + 1 private = 10.
    EXPECT_EQ(kv.freePages(0), 6);

    // Decode growth past the prompt allocates plain private pages.
    EXPECT_EQ(kv.pagesForAppend(2, 9), 1);
    ASSERT_TRUE(kv.appendTokens(2, 9));
    EXPECT_EQ(kv.pagesOf(2), 2);
    EXPECT_EQ(kv.indexPages(0), 3); // decode pages never publish
}

TEST(KvPrefix, ConcurrentPublishMergesIdenticalPages)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 32);
    // Two sequences bind lazily before either prefilled a page: both
    // miss, then the second publisher merges into the first's node.
    EXPECT_EQ(kv.bindSequence(1, 0, prompt), 0);
    EXPECT_EQ(kv.bindSequence(2, 0, prompt), 0);
    ASSERT_TRUE(kv.appendTokens(1, 16));
    EXPECT_EQ(kv.prefixStats().pagesPublished, 1u);
    ASSERT_TRUE(kv.appendTokens(2, 16));
    EXPECT_EQ(kv.prefixStats().pagesPublished, 1u);
    EXPECT_EQ(kv.prefixStats().pagesDeduped, 1u); // merged, not kept
    EXPECT_EQ(kv.indexPages(0), 1);
    EXPECT_EQ(kv.pagesOf(1), 0);
    EXPECT_EQ(kv.pagesOf(2), 0);
    EXPECT_EQ(kv.freePages(0), 9); // one physical page for one page
}

TEST(KvPrefix, EvictionFreesOnlyTheUnsharedSuffix)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    ASSERT_TRUE(kv.allocateSequence(2, 0, 48, prompt, cached));
    // B decodes two pages beyond the shared prompt.
    ASSERT_TRUE(kv.appendTokens(2, 32));
    EXPECT_EQ(kv.pagesOf(2), 2);
    EXPECT_EQ(kv.evictablePagesOf(2), 2); // shared pages refcount 2

    std::int64_t free_before = kv.freePages(0);
    EXPECT_EQ(kv.evictSequence(2), 2);
    // Only the private decode suffix freed; A's prefix is untouched.
    EXPECT_EQ(kv.freePages(0), free_before + 2);
    EXPECT_EQ(kv.indexPages(0), 3);
    EXPECT_EQ(kv.sharedPagesOf(1), 3);

    // A is now the last holder: evicting it frees the shared pages
    // too (they become cached, i.e. free capacity).
    EXPECT_EQ(kv.evictablePagesOf(1), 3);
    EXPECT_EQ(kv.evictSequence(1), 3);
    EXPECT_EQ(kv.freePages(0), 10);
    EXPECT_EQ(kv.cachedPages(0), 3);
}

TEST(KvPrefix, SwapOutDropsReferencesOnceAndSwapInRebinds)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    ASSERT_TRUE(kv.allocateSequence(2, 0, 48, prompt, cached));
    ASSERT_EQ(kv.sharedPagesOf(2), 3);

    // The host copy carries the full content; the shared references
    // drop exactly once.
    Bytes out = kv.swapOut(2);
    EXPECT_EQ(out, 3 * kv.config().pageBytes());
    EXPECT_EQ(kv.hostPagesOf(2), 3);
    EXPECT_EQ(kv.sharedPagesOf(2), 0);
    EXPECT_EQ(kv.indexPages(0), 3); // A still holds the pages

    // Swap-in re-walks the index: all three prompt pages are still
    // resident, so nothing is transferred back.
    std::uint64_t deduped = kv.prefixStats().pagesDeduped;
    EXPECT_EQ(kv.swapIn(2, 0), 0u);
    EXPECT_EQ(kv.sharedPagesOf(2), 3);
    EXPECT_EQ(kv.pagesOf(2), 0);
    EXPECT_EQ(kv.hostPagesUsed(), 0);
    EXPECT_EQ(kv.prefixStats().pagesDeduped, deduped + 3);

    kv.freeSequence(1);
    kv.freeSequence(2);
    EXPECT_EQ(kv.freePages(0), 10);
}

TEST(KvPrefix, FailChannelDropsCachedNodesExactlyOnce)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    kv.freeSequence(1);
    ASSERT_EQ(kv.cachedPages(0), 3);

    // The lost count covers free pages AND cached index pages — each
    // page counted once, none leaked.
    EXPECT_EQ(kv.failChannel(0), 10);
    EXPECT_EQ(kv.indexPages(0), 0);
    EXPECT_EQ(kv.cachedPages(0), 0);
    EXPECT_EQ(kv.freePages(0), 0);
    EXPECT_EQ(kv.liveChannels(), 3);
}

TEST(KvPrefixDeathTest, FailChannelWithResidentSharerPanics)
{
    PagedKvCache kv(sharingConfig());
    auto prompt = tokens(1, 48);
    int cached = -1;
    ASSERT_TRUE(kv.allocateSequence(1, 0, 48, prompt, cached));
    EXPECT_DEATH((void)kv.failChannel(0), "evict residents first");
}

/**
 * Random mixed traffic over session-style prompts with sharing on:
 * per-channel page conservation — truly-free pages plus private
 * resident pages plus index pages always equal the channel's
 * capacity — plus host-tier accounting, at every step. Catches leaks
 * and double-frees across bind/append/evict/swap/free in any
 * interleaving.
 */
TEST(KvPrefix, ConservationUnderRandomSharedTraffic)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        KvCacheConfig cfg = sharingConfig();
        cfg.channels = 2;
        cfg.bytesPerChannel = cfg.pageBytes() * 24;
        PagedKvCache kv(cfg);
        Rng rng(seed * 977 + 5);

        struct Live
        {
            ChannelId channel;
            int promptLen;
        };
        std::unordered_map<RequestId, Live> live;
        std::unordered_set<RequestId> swapped;
        RequestId next = 0;

        auto check = [&] {
            std::int64_t host = 0;
            for (const auto &entry : live)
                host += kv.hostPagesOf(entry.first);
            EXPECT_EQ(host, kv.hostPagesUsed()) << "seed " << seed;
            for (ChannelId ch = 0; ch < cfg.channels; ++ch) {
                std::int64_t resident = 0;
                for (const auto &entry : live)
                    if (!kv.isSwappedOut(entry.first) &&
                        kv.channelOf(entry.first) == ch)
                        resident += kv.pagesOf(entry.first);
                EXPECT_EQ((kv.freePages(ch) - kv.cachedPages(ch)) +
                              resident + kv.indexPages(ch),
                          cfg.pagesPerChannel())
                    << "seed " << seed << " channel " << ch;
            }
        };

        for (int step = 0; step < 400; ++step) {
            int op = static_cast<int>(rng.uniformInt(0, 9));
            if (op <= 3) { // admit with a session-style prompt
                std::uint64_t sess = rng.uniformInt(0, 3);
                int len =
                    static_cast<int>(rng.uniformInt(8, 96));
                auto prompt = synthesizePrompt(
                    static_cast<std::int64_t>(sess), 0, 32, len);
                ChannelId ch =
                    static_cast<ChannelId>(rng.uniformInt(0, 1));
                int cached = -1;
                if (rng.uniformInt(0, 1) == 0) {
                    if (kv.allocateSequence(next, ch, len, prompt,
                                            cached))
                        live[next++] = Live{ch, len};
                } else {
                    (void)kv.bindSequence(next, ch, prompt);
                    live[next++] = Live{ch, len};
                }
            } else if (op <= 5 && !live.empty()) { // grow
                auto it = live.begin();
                std::advance(it, static_cast<long>(rng.uniformInt(
                                     0, live.size() - 1)));
                if (!kv.isSwappedOut(it->first))
                    (void)kv.appendTokens(
                        it->first,
                        static_cast<int>(rng.uniformInt(1, 24)));
            } else if (op == 6 && !live.empty()) { // evict
                auto it = live.begin();
                std::advance(it, static_cast<long>(rng.uniformInt(
                                     0, live.size() - 1)));
                if (!kv.isSwappedOut(it->first)) {
                    (void)kv.evictSequence(it->first);
                    live.erase(it);
                }
            } else if (op == 7 && !live.empty()) { // swap out
                auto it = live.begin();
                std::advance(it, static_cast<long>(rng.uniformInt(
                                     0, live.size() - 1)));
                if (!kv.isSwappedOut(it->first)) {
                    (void)kv.swapOut(it->first);
                    swapped.insert(it->first);
                }
            } else if (op == 8 && !swapped.empty()) { // swap in
                RequestId id = *swapped.begin();
                ChannelId ch =
                    static_cast<ChannelId>(rng.uniformInt(0, 1));
                (void)kv.swapIn(id, ch);
                if (!kv.isSwappedOut(id))
                    swapped.erase(id);
            } else if (!live.empty()) { // retire
                auto it = live.begin();
                std::advance(it, static_cast<long>(rng.uniformInt(
                                     0, live.size() - 1)));
                kv.freeSequence(it->first);
                swapped.erase(it->first);
                live.erase(it);
            }
            check();
        }

        // Retire everything: the device must be whole again, with
        // every index page cached (hence free capacity).
        for (const auto &entry : live)
            kv.freeSequence(entry.first);
        for (ChannelId ch = 0; ch < cfg.channels; ++ch) {
            EXPECT_EQ(kv.freePages(ch), cfg.pagesPerChannel())
                << "seed " << seed;
            EXPECT_EQ(kv.cachedPages(ch), kv.indexPages(ch))
                << "seed " << seed;
        }
        EXPECT_EQ(kv.hostPagesUsed(), 0) << "seed " << seed;
    }
}

/**
 * With sharing ON but no prompt tokens supplied, every page count
 * matches the sharing-off allocator step for step — the index only
 * engages when admissions carry prompts.
 */
TEST(KvPrefix, PromptlessTrafficMatchesSharingOffExactly)
{
    PagedKvCache on(sharingConfig(true));
    PagedKvCache off(sharingConfig(false));
    Rng rng(1234);
    std::vector<RequestId> live;
    RequestId next = 0;
    for (int step = 0; step < 300; ++step) {
        int op = static_cast<int>(rng.uniformInt(0, 3));
        if (op == 0) {
            int len = static_cast<int>(rng.uniformInt(1, 80));
            ChannelId ch =
                static_cast<ChannelId>(rng.uniformInt(0, 3));
            bool a = on.allocateSequence(next, ch, len);
            bool b = off.allocateSequence(next, ch, len);
            ASSERT_EQ(a, b);
            if (a)
                live.push_back(next);
            ++next;
        } else if (op == 1 && !live.empty()) {
            RequestId id = live[rng.uniformInt(0, live.size() - 1)];
            int n = static_cast<int>(rng.uniformInt(1, 20));
            ASSERT_EQ(on.appendTokens(id, n), off.appendTokens(id, n));
        } else if (op == 2 && !live.empty()) {
            std::size_t k = rng.uniformInt(0, live.size() - 1);
            on.freeSequence(live[k]);
            off.freeSequence(live[k]);
            live.erase(live.begin() + static_cast<long>(k));
        } else if (!live.empty()) {
            std::size_t k = rng.uniformInt(0, live.size() - 1);
            ASSERT_EQ(on.evictSequence(live[k]),
                      off.evictSequence(live[k]));
            live.erase(live.begin() + static_cast<long>(k));
        }
        for (ChannelId ch = 0; ch < 4; ++ch)
            ASSERT_EQ(on.freePages(ch), off.freePages(ch))
                << "step " << step;
        ASSERT_DOUBLE_EQ(on.utilization(), off.utilization());
    }
}

} // namespace
} // namespace neupims::runtime
