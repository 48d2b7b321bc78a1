#include "runtime/kv_cache.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::runtime {

namespace {

/** FNV-1a over the page's token ids (scan shortcut, not identity —
 * content is always compared before a node matches). */
std::uint64_t
hashTokens(const std::int32_t *tokens, int n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = static_cast<std::uint32_t>(tokens[i]);
        for (int b = 0; b < 4; ++b) {
            h ^= (v >> (8 * b)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace

PagedKvCache::PagedKvCache(const KvCacheConfig &cfg) : cfg_(cfg)
{
    NEUPIMS_ASSERT(cfg_.channels >= 1);
    NEUPIMS_ASSERT(cfg_.tokensPerPage >= 1);
    NEUPIMS_ASSERT(cfg_.bytesPerTokenPerLayer >= 1,
                   "KV bytes per token must be configured");
    freePages_.assign(cfg_.channels, cfg_.pagesPerChannel());
    online_.assign(static_cast<std::size_t>(cfg_.channels), 1);
    failed_.assign(static_cast<std::size_t>(cfg_.channels), 0);
    rootsByChannel_.assign(static_cast<std::size_t>(cfg_.channels), {});
    nodesByChannel_.assign(static_cast<std::size_t>(cfg_.channels), {});
    cachedByChannel_.assign(static_cast<std::size_t>(cfg_.channels), 0);
    reclaimHeaps_.assign(static_cast<std::size_t>(cfg_.channels), {});
}

bool
PagedKvCache::channelOnline(ChannelId channel) const
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    return online_[channel] != 0;
}

void
PagedKvCache::setChannelOnline(ChannelId channel, bool online)
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    if (failed_[channel])
        return; // failure is forever
    online_[channel] = online ? 1 : 0;
}

std::int64_t
PagedKvCache::failChannel(ChannelId channel)
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    NEUPIMS_ASSERT(!failed_[channel],
                   "channel ", channel, " already failed");
    // Pure per-entry assertion: no mutation, no early exit, so the
    // visit order cannot affect any simulation decision.
    // NOLINT-SIM-NEXTLINE(unordered-iter): order-independent per-entry check
    for (const auto &entry : sequences_) {
        NEUPIMS_ASSERT(entry.second.swapped ||
                           entry.second.channel != channel,
                       "failing channel ", channel,
                       " with resident sequence ", entry.first,
                       " — evict residents first");
    }
    // Shared pages drop exactly once: residents were force-evicted
    // (dereferencing their nodes), swapped sequences carried their
    // content to the host, so every node here must be refcount 0.
    for (std::int64_t n : nodesByChannel_[channel]) {
        NEUPIMS_ASSERT(nodes_[n].refcount == 0,
                       "failing channel ", channel,
                       " with referenced shared page");
        freeNodeSlots_.push_back(n);
    }
    std::int64_t lost =
        freePages_[channel] +
        static_cast<std::int64_t>(nodesByChannel_[channel].size());
    nodesByChannel_[channel].clear();
    rootsByChannel_[channel].clear();
    cachedByChannel_[channel] = 0;
    reclaimHeaps_[channel].clear();
    failed_[channel] = 1;
    online_[channel] = 0;
    freePages_[channel] = 0;
    return lost;
}

int
PagedKvCache::liveChannels() const
{
    int n = 0;
    for (std::uint8_t f : failed_)
        n += f ? 0 : 1;
    return n;
}

std::int64_t
PagedKvCache::liveCapacityPages() const
{
    return cfg_.pagesPerChannel() *
           static_cast<std::int64_t>(liveChannels());
}

std::int64_t
PagedKvCache::freePages(ChannelId channel) const
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    return freePages_[channel] +
           (cfg_.prefixSharing ? cachedByChannel_[channel] : 0);
}

std::int64_t
PagedKvCache::pagesForTokens(int tokens) const
{
    return (static_cast<std::int64_t>(tokens) + cfg_.tokensPerPage - 1) /
           cfg_.tokensPerPage;
}

bool
PagedKvCache::canAllocate(ChannelId channel, int tokens) const
{
    return channelOnline(channel) &&
           freePages(channel) >= pagesForTokens(tokens);
}

// --- prefix-index internals ---------------------------------------------

std::int64_t
PagedKvCache::wholeSharedOf(const Sequence &seq) const
{
    return static_cast<std::int64_t>(seq.sharedNodes.size()) -
           (seq.partialTail ? 1 : 0);
}

std::int64_t
PagedKvCache::reclaimablePages(ChannelId channel) const
{
    return cfg_.prefixSharing ? cachedByChannel_[channel] : 0;
}

void
PagedKvCache::takePage(ChannelId channel)
{
    if (freePages_[channel] > 0) {
        --freePages_[channel];
        return;
    }
    // Free list dry: reclaim the least-recently-used cached
    // (refcount-0) index node without children — childless first so
    // a chain unravels from the leaves. Stale heap entries (revived,
    // re-parented or destroyed since they were pushed) are dropped.
    std::vector<ReclaimEntry> &heap = reclaimHeaps_[channel];
    std::int64_t best = -1;
    while (best < 0) {
        NEUPIMS_ASSERT(!heap.empty(), "takePage on channel ", channel,
                       " with no free or reclaimable page");
        std::pop_heap(heap.begin(), heap.end(), ReclaimEntry::later);
        const ReclaimEntry top = heap.back();
        heap.pop_back();
        const PageNode &node = nodes_[top.node];
        if (node.channel == channel && node.refcount == 0 &&
            node.children.empty() && node.lastUse == top.lastUse)
            best = top.node;
    }
    destroyNode(best);
    ++prefixStats_.pagesReclaimed;
    // The reclaimed node's page is the one handed out: no free-list
    // movement.
}

std::int64_t
PagedKvCache::findChild(ChannelId channel, std::int64_t parent,
                        const std::int32_t *tokens) const
{
    const std::vector<std::int64_t> &siblings =
        parent < 0 ? rootsByChannel_[channel]
                   : nodes_[parent].children;
    const std::uint64_t h = hashTokens(tokens, cfg_.tokensPerPage);
    for (std::int64_t c : siblings) {
        const PageNode &node = nodes_[c];
        if (node.hash == h &&
            std::equal(node.tokens.begin(), node.tokens.end(), tokens))
            return c;
    }
    return -1;
}

std::int64_t
PagedKvCache::newNode(ChannelId channel, std::int64_t parent,
                      const std::int32_t *tokens)
{
    std::int64_t id;
    if (!freeNodeSlots_.empty()) {
        id = freeNodeSlots_.back();
        freeNodeSlots_.pop_back();
    } else {
        id = static_cast<std::int64_t>(nodes_.size());
        nodes_.emplace_back();
    }
    PageNode &node = nodes_[id];
    node.channel = channel;
    node.parent = parent;
    node.hash = hashTokens(tokens, cfg_.tokensPerPage);
    node.refcount = 1; // born bound to its publisher
    node.lastUse = ++useTick_;
    node.children.clear();
    node.tokens.assign(tokens, tokens + cfg_.tokensPerPage);
    if (parent < 0)
        rootsByChannel_[channel].push_back(id);
    else
        nodes_[parent].children.push_back(id);
    nodesByChannel_[channel].push_back(id);
    return id;
}

void
PagedKvCache::destroyNode(std::int64_t node)
{
    PageNode &n = nodes_[node];
    NEUPIMS_ASSERT(n.refcount == 0 && n.children.empty(),
                   "destroying a live prefix node");
    std::vector<std::int64_t> &siblings =
        n.parent < 0 ? rootsByChannel_[n.channel]
                     : nodes_[n.parent].children;
    siblings.erase(std::find(siblings.begin(), siblings.end(), node));
    std::vector<std::int64_t> &chan = nodesByChannel_[n.channel];
    chan.erase(std::find(chan.begin(), chan.end(), node));
    --cachedByChannel_[n.channel];
    n.channel = kInvalidId;
    freeNodeSlots_.push_back(node);
    if (n.parent >= 0)
        noteReclaimable(n.parent); // it may have lost its last child
}

void
PagedKvCache::noteReclaimable(std::int64_t node)
{
    const PageNode &n = nodes_[node];
    if (n.refcount != 0 || !n.children.empty())
        return;
    std::vector<ReclaimEntry> &heap = reclaimHeaps_[n.channel];
    heap.push_back(ReclaimEntry{n.lastUse, node});
    std::push_heap(heap.begin(), heap.end(), ReclaimEntry::later);
}

void
PagedKvCache::incref(std::int64_t node)
{
    PageNode &n = nodes_[node];
    if (n.refcount == 0)
        --cachedByChannel_[n.channel];
    ++n.refcount;
    n.lastUse = ++useTick_;
}

void
PagedKvCache::decref(std::int64_t node)
{
    PageNode &n = nodes_[node];
    NEUPIMS_ASSERT(n.refcount > 0, "double release of shared page");
    if (--n.refcount == 0) {
        ++cachedByChannel_[n.channel];
        noteReclaimable(node);
    }
}

void
PagedKvCache::publishFullPages(Sequence &seq)
{
    if (!cfg_.prefixSharing || seq.prompt.empty())
        return;
    const int P = cfg_.tokensPerPage;
    while (!seq.partialTail) {
        std::int64_t w =
            static_cast<std::int64_t>(seq.sharedNodes.size());
        std::int64_t next_end = (w + 1) * P;
        if (next_end > static_cast<std::int64_t>(seq.tokens) ||
            next_end > static_cast<std::int64_t>(seq.prompt.size()))
            break;
        std::int64_t parent = w ? seq.sharedNodes.back() : -1;
        const std::int32_t *slice = seq.prompt.data() + w * P;
        NEUPIMS_ASSERT(seq.pages >= 1,
                       "publishing a page the sequence does not hold");
        std::int64_t existing = findChild(seq.channel, parent, slice);
        if (existing >= 0) {
            // A concurrent sequence published the identical page
            // first: merge — our private copy is redundant.
            incref(existing);
            seq.sharedNodes.push_back(existing);
            --seq.pages;
            ++freePages_[seq.channel];
            ++prefixStats_.pagesDeduped;
        } else {
            std::int64_t n = newNode(seq.channel, parent, slice);
            seq.sharedNodes.push_back(n);
            --seq.pages; // ownership converts private -> shared
            ++prefixStats_.pagesPublished;
        }
    }
}

std::vector<std::int64_t>
PagedKvCache::matchWholePages(ChannelId channel,
                              const std::vector<std::int32_t> &prompt,
                              int maxTokens) const
{
    // The result becomes the sequence's sharedNodes, which publishing
    // grows to at most the prompt's whole pages plus a partial tail:
    // reserving that once spares the growth a page at a time.
    std::vector<std::int64_t> matched;
    const int P = cfg_.tokensPerPage;
    matched.reserve(prompt.size() / static_cast<std::size_t>(P) + 1);
    std::int64_t parent = -1;
    for (int pos = 0; pos + P <= maxTokens; pos += P) {
        std::int64_t c = findChild(channel, parent, prompt.data() + pos);
        if (c < 0)
            break;
        matched.push_back(c);
        parent = c;
    }
    return matched;
}

// --- sequence lifecycle -------------------------------------------------

bool
PagedKvCache::allocateSequence(RequestId id, ChannelId channel,
                               int tokens)
{
    NEUPIMS_ASSERT(sequences_.find(id) == sequences_.end(),
                   "request already has a KV sequence: ", id);
    std::int64_t need = pagesForTokens(tokens);
    if (freePages(channel) < need)
        return false;
    if (cfg_.prefixSharing) {
        for (std::int64_t i = 0; i < need; ++i)
            takePage(channel);
    } else {
        freePages_[channel] -= need;
    }
    Sequence seq;
    seq.channel = channel;
    seq.tokens = tokens;
    seq.pages = need;
    sequences_[id] = std::move(seq);
    return true;
}

bool
PagedKvCache::allocateSequence(RequestId id, ChannelId channel,
                               int tokens,
                               const std::vector<std::int32_t> &promptTokens,
                               int &cachedTokens)
{
    cachedTokens = 0;
    if (!cfg_.prefixSharing || promptTokens.empty())
        return allocateSequence(id, channel, tokens);
    NEUPIMS_ASSERT(sequences_.find(id) == sequences_.end(),
                   "request already has a KV sequence: ", id);
    ++prefixStats_.admissions;
    const int P = cfg_.tokensPerPage;
    // At least one prompt token always prefills (mirrors vLLM
    // recomputing the last token for logits), so a whole-prompt hit
    // still leaves a one-token suffix.
    int cap = std::min(static_cast<int>(promptTokens.size()) - 1,
                       tokens);
    auto matched = matchWholePages(channel, promptTokens, cap);
    std::int64_t m = static_cast<std::int64_t>(matched.size());
    std::int64_t need = pagesForTokens(tokens) - m;
    std::int64_t ref0 = 0;
    for (std::int64_t n : matched)
        ref0 += nodes_[n].refcount == 0 ? 1 : 0;
    if (freePages_[channel] + reclaimablePages(channel) - ref0 < need)
        return false;
    for (std::int64_t n : matched)
        incref(n);
    for (std::int64_t i = 0; i < need; ++i)
        takePage(channel);
    Sequence seq;
    seq.channel = channel;
    seq.tokens = tokens;
    seq.pages = need;
    seq.prompt = promptTokens;
    seq.sharedNodes = std::move(matched);
    cachedTokens = static_cast<int>(m) * P;
    if (cachedTokens > 0) {
        ++prefixStats_.hits;
        prefixStats_.tokensDeduped +=
            static_cast<std::uint64_t>(cachedTokens);
        prefixStats_.pagesDeduped += static_cast<std::uint64_t>(m);
    }
    auto &stored = sequences_[id] = std::move(seq);
    publishFullPages(stored);
    return true;
}

void
PagedKvCache::bindSequence(RequestId id, ChannelId channel)
{
    NEUPIMS_ASSERT(sequences_.find(id) == sequences_.end(),
                   "request already has a KV sequence: ", id);
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    NEUPIMS_ASSERT(channelOnline(channel),
                   "binding sequence to offline channel ", channel);
    Sequence seq;
    seq.channel = channel;
    sequences_[id] = std::move(seq);
}

int
PagedKvCache::bindSequence(RequestId id, ChannelId channel,
                           const std::vector<std::int32_t> &promptTokens)
{
    bindSequence(id, channel);
    if (!cfg_.prefixSharing || promptTokens.empty())
        return 0;
    ++prefixStats_.admissions;
    Sequence &seq = sequences_[id];
    seq.prompt = promptTokens;
    const int P = cfg_.tokensPerPage;
    const int cap = static_cast<int>(promptTokens.size()) - 1;
    seq.sharedNodes = matchWholePages(channel, promptTokens, cap);
    for (std::int64_t n : seq.sharedNodes)
        incref(n);
    int pos = static_cast<int>(seq.sharedNodes.size()) * P;
    // Partial view of one more full shared page: the child whose
    // first j tokens extend our prompt furthest (j >= 1, capped so
    // at least one token stays uncached). The first write into the
    // view copies the page (COW).
    if (pos < cap) {
        std::int64_t parent =
            seq.sharedNodes.empty() ? -1 : seq.sharedNodes.back();
        const std::vector<std::int64_t> &siblings =
            parent < 0 ? rootsByChannel_[channel]
                       : nodes_[parent].children;
        std::int64_t best = -1;
        int best_j = 0;
        const int limit = std::min(P, cap - pos);
        for (std::int64_t c : siblings) {
            const PageNode &node = nodes_[c];
            int j = 0;
            while (j < limit &&
                   node.tokens[j] == promptTokens[pos + j])
                ++j;
            if (j > best_j) {
                best_j = j;
                best = c;
            }
        }
        if (best >= 0 && best_j >= 1) {
            incref(best);
            seq.sharedNodes.push_back(best);
            seq.partialTail = true;
            pos += best_j;
        }
    }
    seq.tokens = pos;
    if (pos > 0) {
        ++prefixStats_.hits;
        prefixStats_.tokensDeduped += static_cast<std::uint64_t>(pos);
        prefixStats_.pagesDeduped +=
            static_cast<std::uint64_t>(wholeSharedOf(seq));
    }
    return pos;
}

bool
PagedKvCache::appendToken(RequestId id)
{
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    return appendTokensImpl(it->second, 1);
}

bool
PagedKvCache::appendTokens(RequestId id, int tokens)
{
    NEUPIMS_ASSERT(tokens >= 1);
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    return appendTokensImpl(it->second, tokens);
}

bool
PagedKvCache::appendTokensImpl(Sequence &seq, int tokens)
{
    NEUPIMS_ASSERT(!seq.swapped, "appending to swapped-out request");
    // Private pages needed: total coverage minus whole shared pages
    // minus what we already hold. A partial-view tail contributes
    // nothing to coverage here — the copy-on-write replacement page
    // is exactly the +1 this yields.
    std::int64_t need = pagesForTokens(seq.tokens + tokens) -
                        wholeSharedOf(seq) - seq.pages;
    if (need > 0) {
        if (need >
            freePages_[seq.channel] + reclaimablePages(seq.channel))
            return false;
        for (std::int64_t i = 0; i < need; ++i)
            takePage(seq.channel);
        seq.pages += need;
    }
    if (seq.partialTail) {
        // First write into the shared tail view: the page was copied
        // into one of the private pages just reserved.
        ++prefixStats_.cowCopies;
        decref(seq.sharedNodes.back());
        seq.sharedNodes.pop_back();
        seq.partialTail = false;
    }
    seq.tokens += tokens;
    publishFullPages(seq);
    return true;
}

std::int64_t
PagedKvCache::pagesForAppend(RequestId id, int tokens) const
{
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    const Sequence &seq = it->second;
    return pagesForTokens(seq.tokens + tokens) - wholeSharedOf(seq) -
           seq.pages;
}

void
PagedKvCache::freeSequence(RequestId id)
{
    auto it = sequences_.find(id);
    if (it == sequences_.end())
        return;
    if (it->second.swapped) {
        hostPages_ -= it->second.pages;
    } else {
        freePages_[it->second.channel] += it->second.pages;
        for (std::int64_t n : it->second.sharedNodes)
            decref(n);
    }
    sequences_.erase(it);
}

std::int64_t
PagedKvCache::evictSequence(RequestId id)
{
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    NEUPIMS_ASSERT(!it->second.swapped,
                   "evicting swapped-out request ", id);
    Sequence &seq = it->second;
    std::int64_t freed = seq.pages;
    freePages_[seq.channel] += seq.pages;
    // Only the unshared suffix frees: last-reference nodes become
    // cached (reclaimable, hence free); nodes other sequences still
    // hold stay untouched.
    for (std::int64_t n : seq.sharedNodes) {
        if (nodes_[n].refcount == 1)
            ++freed;
        decref(n);
    }
    sequences_.erase(it);
    return freed;
}

Bytes
PagedKvCache::swapOut(RequestId id)
{
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    Sequence &seq = it->second;
    NEUPIMS_ASSERT(!seq.swapped, "double swap-out of request ", id);
    // The host copy holds the full sequence content, shared pages
    // included (they are read out, then dereferenced here).
    std::int64_t total = pagesForTokens(seq.tokens);
    freePages_[seq.channel] += seq.pages;
    for (std::int64_t n : seq.sharedNodes)
        decref(n);
    seq.sharedNodes.clear();
    seq.partialTail = false;
    hostPages_ += total;
    seq.pages = total;
    seq.swapped = true;
    seq.channel = kInvalidId;
    return static_cast<Bytes>(total) * cfg_.pageBytes();
}

Bytes
PagedKvCache::swapIn(RequestId id, ChannelId channel)
{
    auto it = sequences_.find(id);
    NEUPIMS_ASSERT(it != sequences_.end(), "unknown request: ", id);
    Sequence &seq = it->second;
    NEUPIMS_ASSERT(seq.swapped, "swap-in of device-resident request ",
                   id);
    if (!channelOnline(channel))
        return 0;
    // Re-walk the target channel's index: whole prompt pages still
    // cached there re-bind by reference and skip the transfer.
    std::vector<std::int64_t> matched;
    if (cfg_.prefixSharing && !seq.prompt.empty())
        matched = matchWholePages(
            channel, seq.prompt,
            std::min(static_cast<int>(seq.prompt.size()), seq.tokens));
    std::int64_t m = static_cast<std::int64_t>(matched.size());
    std::int64_t need = seq.pages - m;
    std::int64_t ref0 = 0;
    for (std::int64_t n : matched)
        ref0 += nodes_[n].refcount == 0 ? 1 : 0;
    if (freePages_[channel] + reclaimablePages(channel) - ref0 < need)
        return 0;
    for (std::int64_t n : matched)
        incref(n);
    if (cfg_.prefixSharing) {
        for (std::int64_t i = 0; i < need; ++i)
            takePage(channel);
    } else {
        freePages_[channel] -= need;
    }
    hostPages_ -= seq.pages;
    seq.pages = need;
    seq.swapped = false;
    seq.channel = channel;
    seq.sharedNodes = std::move(matched);
    if (m > 0)
        prefixStats_.pagesDeduped += static_cast<std::uint64_t>(m);
    publishFullPages(seq);
    return static_cast<Bytes>(need) * cfg_.pageBytes();
}

bool
PagedKvCache::isSwappedOut(RequestId id) const
{
    auto it = sequences_.find(id);
    return it != sequences_.end() && it->second.swapped;
}

std::int64_t
PagedKvCache::hostPagesOf(RequestId id) const
{
    auto it = sequences_.find(id);
    if (it == sequences_.end() || !it->second.swapped)
        return 0;
    return it->second.pages;
}

std::int64_t
PagedKvCache::pagesOf(RequestId id) const
{
    auto it = sequences_.find(id);
    if (it == sequences_.end() || it->second.swapped)
        return 0;
    return it->second.pages;
}

std::int64_t
PagedKvCache::sharedPagesOf(RequestId id) const
{
    auto it = sequences_.find(id);
    if (it == sequences_.end() || it->second.swapped)
        return 0;
    return static_cast<std::int64_t>(it->second.sharedNodes.size());
}

std::int64_t
PagedKvCache::evictablePagesOf(RequestId id) const
{
    auto it = sequences_.find(id);
    if (it == sequences_.end() || it->second.swapped)
        return 0;
    const Sequence &seq = it->second;
    std::int64_t evictable = seq.pages;
    for (std::int64_t n : seq.sharedNodes)
        evictable += nodes_[n].refcount == 1 ? 1 : 0;
    return evictable;
}

std::int64_t
PagedKvCache::cachedPages(ChannelId channel) const
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    return cfg_.prefixSharing ? cachedByChannel_[channel] : 0;
}

std::int64_t
PagedKvCache::indexPages(ChannelId channel) const
{
    NEUPIMS_ASSERT(channel >= 0 && channel < cfg_.channels);
    return static_cast<std::int64_t>(nodesByChannel_[channel].size());
}

std::int64_t
PagedKvCache::usedPages(ChannelId channel) const
{
    if (failed_[channel])
        return 0; // lost capacity is neither free nor in use
    return cfg_.pagesPerChannel() - freePages(channel);
}

double
PagedKvCache::utilization() const
{
    // Failed channels leave the denominator (their pages are lost,
    // not busy); with no faults this is the full device as before.
    double total = static_cast<double>(liveCapacityPages());
    if (total == 0.0)
        return 0.0;
    double free_total = 0.0;
    for (ChannelId ch = 0; ch < cfg_.channels; ++ch)
        free_total += static_cast<double>(freePages(ch));
    return 1.0 - free_total / total;
}

ChannelId
PagedKvCache::channelOf(RequestId id) const
{
    auto it = sequences_.find(id);
    return it == sequences_.end() ? kInvalidId : it->second.channel;
}

int
PagedKvCache::tokensOf(RequestId id) const
{
    auto it = sequences_.find(id);
    return it == sequences_.end() ? 0 : it->second.tokens;
}

} // namespace neupims::runtime
