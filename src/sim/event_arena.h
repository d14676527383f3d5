/**
 * @file
 * Arena-backed event storage for the discrete-event simulation core.
 *
 * At fleet scale (77 agents per node, million-event runs) per-event
 * heap allocation and cancelled events lingering until their deadline
 * would dominate the simulation loop. This storage layer avoids both:
 *
 *  - InlineEvent: a move-only callable with a 24-byte inline buffer.
 *    Every closure the runtimes schedule (a captured `this`, at most a
 *    couple of extra words) fits inline, so the steady path performs no
 *    closure allocation; larger callables transparently spill to the
 *    heap for correctness.
 *  - EventKey / EventArena: structure-of-arrays event storage addressed
 *    by dense 32-bit indices and recycled through a free list. The
 *    32-byte key records — (time, sequence) plus the intrusive links —
 *    live in their own densely packed array, two per cache line, so
 *    ordering work runs at twice the cache density of an array-of-
 *    structs layout; the closure payloads sit in a parallel array and
 *    are only touched on push and fire. Generation counters give O(1)
 *    handle invalidation: freeing a slot bumps its generation, so stale
 *    handles can never touch a recycled event.
 *
 * Ordering is two-tier. SOL agents are fixed-period loops, so most
 * pending events are timers due within a few milliseconds. Those land
 * in a calendar ring — 1024 buckets of 2^14 ns (~16.8 ms in all), each
 * an intrusive list, found by find-first-set over an occupancy bitmap —
 * where scheduling and cancelling are O(1) and a whole bucket is melded
 * into the pairing heap only when it becomes the earliest. Everything
 * else (the cursor's own bucket, and far-future timeouts and
 * assessments) goes straight into the one pairing heap, which surfaces
 * each event in (time, sequence) order. No event ever moves from the
 * heap into the ring.
 *
 * Cancellation is eager: a ring entry unlinks in O(1), a heap node in
 * O(log n) amortized, so a cancelled timeout leaves the queue
 * immediately instead of rotting until its deadline. Structure depends
 * only on the sequence of operations — never on addresses or wall
 * time — and because (time, sequence) is a strict total order, pop
 * order is independent of ring and heap shape entirely.
 */
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace sol::sim::detail {

/** Sentinel index: "no node". */
inline constexpr std::uint32_t kNilEvent = 0xffffffffu;

/** `EventKey::child` tag of an event parked in a calendar-ring bucket
 *  (never a slot index: EventArena::Grow stops below it). */
inline constexpr std::uint32_t kRingTag = 0xfffffffeu;

/**
 * Move-only type-erased callable with inline small-buffer storage.
 *
 * Closures up to kInlineBytes that are nothrow-move-constructible live
 * directly in the buffer (no allocation); anything larger is boxed on
 * the heap. Invocation, relocation, and destruction dispatch through a
 * static ops table, so an empty InlineEvent is two words of state.
 */
class alignas(32) InlineEvent
{
  public:
    /**
     * Inline capacity. Sized so the whole payload record — buffer plus
     * ops pointer — stays 32 bytes (two per cache line in the arena's
     * payload array). The runtimes' hottest closures capture only
     * `this` (8 bytes); the remaining room holds the few-word closures
     * that node drivers and workloads schedule. Larger callables
     * transparently box on the heap; every steady-path closure in
     * src/ fits.
     */
    static constexpr std::size_t kInlineBytes = 24;

    InlineEvent() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent>>>
    InlineEvent(F&& fn)  // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn&>,
                      "event callables take no arguments");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void*>(storage_))
                Fn*(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    InlineEvent(InlineEvent&& other) noexcept { MoveFrom(other); }

    InlineEvent&
    operator=(InlineEvent&& other) noexcept
    {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    InlineEvent(const InlineEvent&) = delete;
    InlineEvent& operator=(const InlineEvent&) = delete;

    ~InlineEvent() { Reset(); }

    void
    operator()()
    {
        assert(ops_ != nullptr);
        ops_->invoke(storage_);
    }

    /**
     * Runs the callable and destroys it in one dispatch (the arena's
     * fire path — one indirect call instead of invoke-then-destroy).
     * Leaves this event empty.
     */
    void
    InvokeAndDestroy()
    {
        assert(ops_ != nullptr);
        const Ops* ops = ops_;
        ops_ = nullptr;
        ops->invoke_destroy(storage_);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroys the held callable (no-op when empty). */
    void
    Reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops {
        void (*invoke)(void* storage);
        void (*invoke_destroy)(void* storage);  ///< Run, then destroy.
        void (*relocate)(void* dst, void* src);  ///< Move then destroy src.
        void (*destroy)(void* storage);
    };

    template <typename Fn>
    static void
    InlineInvoke(void* storage)
    {
        (*static_cast<Fn*>(storage))();
    }
    template <typename Fn>
    static void
    InlineInvokeDestroy(void* storage)
    {
        Fn* fn = static_cast<Fn*>(storage);
        // RAII so a throwing callback still destroys its captures.
        struct Guard {
            Fn* fn;
            ~Guard() { fn->~Fn(); }
        } guard{fn};
        (*fn)();
    }
    template <typename Fn>
    static void
    InlineRelocate(void* dst, void* src)
    {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
    }
    template <typename Fn>
    static void
    InlineDestroy(void* storage)
    {
        static_cast<Fn*>(storage)->~Fn();
    }
    template <typename Fn>
    static constexpr Ops kInlineOps = {
        &InlineInvoke<Fn>, &InlineInvokeDestroy<Fn>,
        &InlineRelocate<Fn>, &InlineDestroy<Fn>};

    template <typename Fn>
    static Fn*&
    Boxed(void* storage)
    {
        return *static_cast<Fn**>(storage);
    }
    template <typename Fn>
    static void
    HeapInvoke(void* storage)
    {
        (*Boxed<Fn>(storage))();
    }
    template <typename Fn>
    static void
    HeapInvokeDestroy(void* storage)
    {
        Fn* fn = Boxed<Fn>(storage);
        // RAII so a throwing callback still frees the boxed closure.
        struct Guard {
            Fn* fn;
            ~Guard() { delete fn; }
        } guard{fn};
        (*fn)();
    }
    template <typename Fn>
    static void
    HeapRelocate(void* dst, void* src)
    {
        ::new (dst) Fn*(Boxed<Fn>(src));
    }
    template <typename Fn>
    static void
    HeapDestroy(void* storage)
    {
        delete Boxed<Fn>(storage);
    }
    template <typename Fn>
    static constexpr Ops kHeapOps = {
        &HeapInvoke<Fn>, &HeapInvokeDestroy<Fn>, &HeapRelocate<Fn>,
        &HeapDestroy<Fn>};

    void
    MoveFrom(InlineEvent& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * One scheduled event's record: the (time, sequence) ordering key plus
 * intrusive links. Exactly 32 bytes (two records per cache line),
 * packed in their own array so comparisons and link surgery never drag
 * closure payload bytes through the cache.
 *
 * In the pairing heap, `prev` points at the left sibling, or at the
 * parent when this node is its first child (the node x with
 * node(x.prev).child == x convention), which makes arbitrary removal
 * O(1) link surgery. In a ring bucket, `child` holds kRingTag and
 * `sibling`/`prev` form the bucket's doubly-linked list (`prev` is nil
 * at the list head). While the slot sits on the free list, `prev`
 * doubles as the next-free link; `child` and `sibling` are left stale
 * there — Push reinitializes every field, and stale handles are
 * rejected by the generation check before any link is read.
 */
struct alignas(32) EventKey {
    TimePoint when{0};
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;  ///< Bumped on Free; validates handles.
    std::uint32_t child = kNilEvent;
    std::uint32_t sibling = kNilEvent;
    std::uint32_t prev = kNilEvent;
};

static_assert(sizeof(void*) != 8 || sizeof(EventKey) == 32,
              "EventKey must stay half a cache line on 64-bit targets");
static_assert(sizeof(void*) != 8 || sizeof(InlineEvent) == 32,
              "InlineEvent must stay half a cache line on 64-bit "
              "targets");

/**
 * Block-allocated event storage in structure-of-arrays form, ordered by
 * a calendar ring in front of a pairing heap.
 *
 * Events are addressed by dense uint32 indices into fixed-size blocks
 * (never reallocated, so references stay stable while the arena grows)
 * and recycled LIFO through a free list. Each block is a pair of
 * parallel arrays — EventKey records and InlineEvent payloads — so the
 * ordering work touches only the dense key array.
 *
 * The ring covers the kRingBuckets - 1 buckets (of 2^kBucketShift ns)
 * strictly after the cursor bucket; an event due in that window is
 * parked in its bucket's list, every other event is melded into the
 * heap. Invariant: every ring entry's bucket lies in (cursor, cursor +
 * kRingBuckets - 1], so a bitmap slot names exactly one bucket. To pop,
 * the earliest occupied bucket is melded into the heap when the heap
 * root's bucket is not earlier (and the bucket can fire before the
 * horizon); the heap root is then the global minimum. Pops order by
 * (when, seq): strict total order, so pop order is identical to the
 * seed binary heap's and same-instant events run in insertion order.
 *
 * The arena is a by-value member of its EventQueue, and EventHandles
 * address it through a plain pointer: liveness of an *event* is the
 * generation check (a Cancel() through a stale handle is rejected in
 * O(1)), while liveness of the *arena* is an ownership rule — no handle
 * may be used after its queue is destroyed (see sim::EventHandle).
 */
class EventArena
{
  public:
    /** Counters over the arena's whole lifetime. */
    struct Stats {
        std::uint64_t scheduled = 0;  ///< Events admitted by Push.
        std::uint64_t cancelled = 0;  ///< Events removed before firing.
        std::size_t peak_pending = 0;
        std::size_t capacity = 0;     ///< Event slots allocated.
        std::size_t blocks = 0;       ///< Fixed-size blocks allocated.
    };

    /**
     * Key of the event surfaced by PopEarliest. The payload stays in
     * the arena (slot detached from the heap but still allocated) and
     * is run in place by InvokePopped; the cached pointer is valid
     * until then because block storage never moves.
     */
    struct Popped {
        TimePoint when{0};
        std::uint64_t seq = 0;
        std::uint32_t index = kNilEvent;
        EventKey* key = nullptr;
        InlineEvent* fn = nullptr;
    };

    /**
     * Calendar ring geometry, sized from the agents' traffic rather
     * than exposed as options: 2^14 ns (~16 us) buckets put each 50 us
     * periodic tick a few buckets ahead, and 1024 of them (~16.8 ms)
     * cover the ~10 ms collect period; 200 ms timeouts and 1 s
     * assessments stay in the heap. On fleet_steady, 2^12 ns buckets
     * gave back about half the gain and 2^16 ns measured alike (see
     * docs/PERFORMANCE.md).
     */
    static constexpr int kBucketShift = 14;
    static constexpr std::uint32_t kRingBuckets = 1024;

    EventArena() { ring_head_.fill(kNilEvent); }
    EventArena(const EventArena&) = delete;
    EventArena& operator=(const EventArena&) = delete;

    std::size_t pending() const { return live_; }

    Stats
    stats() const
    {
        Stats s = stats_;
        s.capacity = blocks_.size() * kBlockSize;
        s.blocks = blocks_.size();
        return s;
    }

    /** Schedules an event; returns its slot index (see GenerationOf). */
    std::uint32_t
    Push(TimePoint when, std::uint64_t seq, InlineEvent fn)
    {
        const std::uint32_t index = Allocate();
        EventKey& k = key(index);
        k.when = when;
        k.seq = seq;
        k.prev = kNilEvent;
        payload(index) = std::move(fn);
        const std::int64_t bucket = BucketOf(when);
        // (cursor, cursor + kRingBuckets - 1] in one unsigned compare.
        if (static_cast<std::uint64_t>(bucket - cursor_ - 1) <
            kRingBuckets - 1) {
            RingInsert(index, bucket);
        } else {
            k.child = kNilEvent;
            k.sibling = kNilEvent;
            root_ = root_ == kNilEvent ? index : Meld(root_, index);
        }
        ++live_;
        ++stats_.scheduled;
        if (live_ > stats_.peak_pending) {
            stats_.peak_pending = live_;
        }
        return index;
    }

    /**
     * Pops the earliest event if it fires at or before `horizon`,
     * unlinking it from the heap but leaving the slot allocated so the
     * closure can run in place. The caller must follow up with
     * InvokePopped(*out), which recycles the slot.
     */
    bool
    PopEarliest(TimePoint horizon, Popped* out)
    {
        if (ring_words_ != 0) {
            const std::int64_t next = NextRingBucket();
            if ((root_ == kNilEvent || BucketOf(key(root_).when) >= next) &&
                next <= BucketOf(horizon)) {
                MeldRingBucket(next);
                cursor_ = next;
            }
        }
        if (root_ == kNilEvent) {
            return false;
        }
        const std::uint32_t index = root_;
        EventKey& k = key(index);
        if (k.when > horizon) {
            return false;
        }
        // Every ring entry lies after the root's bucket, so the cursor
        // may advance to it. It never moves back: EventQueue schedules
        // nothing before Now(), whose bucket the cursor never passes.
        assert(BucketOf(k.when) >= cursor_);
        cursor_ = BucketOf(k.when);
        out->when = k.when;
        out->seq = k.seq;
        out->index = index;
        out->key = &k;
        out->fn = &payload(index);
        root_ = MergePairs(k.child);
        k.prev = kNilEvent;  // Detached: stale Cancels see "not queued".
        // The event leaves the pending count here, not when its slot is
        // recycled: a firing callback that re-arms itself must see the
        // same pending() the pre-SoA queue showed it, or a saturated
        // pending limit would shed the re-arm and stall the loop.
        --live_;
        return true;
    }

    /**
     * Runs a popped event's closure directly from its (detached, still
     * allocated) slot — one fused invoke+destroy dispatch, no payload
     * relocation — then recycles the slot. Block storage is address-
     * stable, so the closure may freely schedule new events (growing
     * the arena) while it runs; a Cancel() racing the firing event
     * through a stale handle is rejected because the slot is no longer
     * root, has no parent link and carries no ring tag.
     */
    void
    InvokePopped(const Popped& popped)
    {
        // RAII slot recycle: PopEarliest already took the event out of
        // the pending count, so even a throwing callback must not lose
        // the slot (or skip the generation bump that invalidates
        // handles). Runs after the payload's own invoke+destroy.
        struct Recycle {
            EventArena* arena;
            const Popped* popped;
            ~Recycle()
            {
                EventKey& k = *popped->key;
                ++k.generation;
                k.prev = arena->free_head_;
                arena->free_head_ = popped->index;
            }
        } recycle{this, &popped};
        popped.fn->InvokeAndDestroy();
    }

    /**
     * Eagerly removes a pending event (cancellation). O(1) for a ring
     * entry, O(log n) amortized for a heap node; a no-op returning
     * false when the handle is stale (the event already fired, was
     * cancelled, or the slot was recycled).
     */
    bool
    Remove(std::uint32_t index, std::uint32_t generation)
    {
        if (!IsLive(index, generation)) {
            return false;
        }
        EventKey& k = key(index);
        if (k.child == kRingTag) {
            RingUnlink(index);
        } else if (index == root_) {
            root_ = MergePairs(k.child);
        } else {
            Detach(index);
            const std::uint32_t sub = MergePairs(k.child);
            if (sub != kNilEvent) {
                root_ = Meld(root_, sub);
            }
        }
        ++stats_.cancelled;
        Free(index);
        return true;
    }

    /** True while the (index, generation) pair names a pending event. */
    bool
    IsLive(std::uint32_t index, std::uint32_t generation) const
    {
        return index < blocks_.size() * kBlockSize &&
               key(index).generation == generation && live_ > 0 &&
               Queued(index);
    }

    std::uint32_t
    GenerationOf(std::uint32_t index) const
    {
        return key(index).generation;
    }

  private:
    static constexpr std::size_t kBlockShift = 7;
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

    static constexpr std::uint32_t kRingMask = kRingBuckets - 1;
    static constexpr std::uint32_t kRingWords = kRingBuckets / 64;
    static_assert(kRingWords <= 32, "ring_words_ is a 32-bit summary");

    /** One block: parallel key/payload arrays of kBlockSize slots. */
    struct Block {
        std::unique_ptr<EventKey[]> keys;
        std::unique_ptr<InlineEvent[]> fns;
    };

    EventKey&
    key(std::uint32_t index)
    {
        return blocks_[index >> kBlockShift]
            .keys[index & (kBlockSize - 1)];
    }
    const EventKey&
    key(std::uint32_t index) const
    {
        return blocks_[index >> kBlockShift]
            .keys[index & (kBlockSize - 1)];
    }
    InlineEvent&
    payload(std::uint32_t index)
    {
        return blocks_[index >> kBlockShift]
            .fns[index & (kBlockSize - 1)];
    }

    /**
     * A generation match already implies the slot is allocated (Free
     * bumps the generation before the slot can be observed again), so
     * this is a structural sanity check only: a ring entry, the heap
     * root, or any heap node with a parent/sibling link is queued. A
     * popped event is none of these while its closure runs.
     */
    bool
    Queued(std::uint32_t index) const
    {
        const EventKey& k = key(index);
        return k.child == kRingTag || index == root_ || k.prev != kNilEvent;
    }

    static std::int64_t
    BucketOf(TimePoint when)
    {
        return when.count() >> kBucketShift;
    }

    /** Parks an event at the head of its bucket's list. */
    void
    RingInsert(std::uint32_t index, std::int64_t bucket)
    {
        const auto slot = static_cast<std::uint32_t>(bucket) & kRingMask;
        EventKey& k = key(index);
        const std::uint32_t head = ring_head_[slot];
        k.child = kRingTag;
        k.sibling = head;
        if (head != kNilEvent) {
            key(head).prev = index;
        }
        ring_head_[slot] = index;
        ring_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        ring_words_ |= 1u << (slot >> 6);
    }

    /** Unlinks a ring entry from its bucket's list (cancellation). */
    void
    RingUnlink(std::uint32_t index)
    {
        EventKey& k = key(index);
        const auto slot =
            static_cast<std::uint32_t>(BucketOf(k.when)) & kRingMask;
        if (k.prev == kNilEvent) {
            ring_head_[slot] = k.sibling;
            if (k.sibling == kNilEvent) {
                ClearRingSlot(slot);
            }
        } else {
            key(k.prev).sibling = k.sibling;
        }
        if (k.sibling != kNilEvent) {
            key(k.sibling).prev = k.prev;
        }
    }

    void
    ClearRingSlot(std::uint32_t slot)
    {
        std::uint64_t& word = ring_bits_[slot >> 6];
        word &= ~(std::uint64_t{1} << (slot & 63));
        if (word == 0) {
            ring_words_ &= ~(1u << (slot >> 6));
        }
    }

    /**
     * Earliest occupied bucket (requires a non-empty ring): the first
     * set bitmap slot at or after the cursor's successor, wrapping.
     */
    std::int64_t
    NextRingBucket() const
    {
        const auto start =
            static_cast<std::uint32_t>(cursor_ + 1) & kRingMask;
        const std::uint32_t w = start >> 6;
        const std::uint64_t here = ring_bits_[w] & (~std::uint64_t{0}
                                                    << (start & 63));
        std::uint32_t slot;
        if (here != 0) {
            slot = (w << 6) | static_cast<std::uint32_t>(
                                  std::countr_zero(here));
        } else {
            // A later word, else wrap to the lowest (possibly w's own
            // bits below start, which are the ring's last buckets).
            const std::uint32_t later = ring_words_ & ~((2u << w) - 1);
            const auto word = static_cast<std::uint32_t>(
                std::countr_zero(later != 0 ? later : ring_words_));
            slot = (word << 6) | static_cast<std::uint32_t>(
                                     std::countr_zero(ring_bits_[word]));
        }
        return cursor_ + 1 + ((slot - start) & kRingMask);
    }

    /** Moves every event of ring bucket `bucket` into the heap. */
    void
    MeldRingBucket(std::int64_t bucket)
    {
        const auto slot = static_cast<std::uint32_t>(bucket) & kRingMask;
        std::uint32_t cur = ring_head_[slot];
        ring_head_[slot] = kNilEvent;
        ClearRingSlot(slot);
        while (cur != kNilEvent) {
            EventKey& k = key(cur);
            const std::uint32_t next = k.sibling;
            k.child = kNilEvent;
            k.sibling = kNilEvent;
            k.prev = kNilEvent;
            root_ = root_ == kNilEvent ? cur : Meld(root_, cur);
            cur = next;
        }
    }

    /** Branch-free (when, seq) comparison: merge chains carry near-
     *  random keys, so a short-circuit compare mispredicts constantly
     *  in the heap's hottest loop, MergePairs. */
    bool
    Less(std::uint32_t a, std::uint32_t b) const
    {
        const EventKey& ka = key(a);
        const EventKey& kb = key(b);
        return static_cast<int>(ka.when < kb.when) |
               (static_cast<int>(ka.when == kb.when) &
                static_cast<int>(ka.seq < kb.seq));
    }

    /** Hints the prefetcher at a key about to be compared/linked. */
    void
    Prefetch(std::uint32_t index) const
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&key(index));
#else
        (void)index;
#endif
    }

    /** Melds two detached trees; the loser becomes the winner's first
     *  child. Both inputs must be valid roots (prev/sibling nil). The
     *  winner/loser selection compiles to conditional moves — the
     *  outcome is a coin flip on merge chains, so a branch here would
     *  eat a misprediction per meld. */
    std::uint32_t
    Meld(std::uint32_t a, std::uint32_t b)
    {
        const bool b_wins = Less(b, a);
        const std::uint32_t w = b_wins ? b : a;
        const std::uint32_t l = b_wins ? a : b;
        EventKey& winner = key(w);
        EventKey& loser = key(l);
        loser.sibling = winner.child;
        if (winner.child != kNilEvent) {
            key(winner.child).prev = l;
        }
        loser.prev = w;
        winner.child = l;
        return w;
    }

    /** Unlinks a non-root node from its parent/sibling chain. */
    void
    Detach(std::uint32_t index)
    {
        EventKey& k = key(index);
        EventKey& p = key(k.prev);
        if (p.child == index) {
            p.child = k.sibling;
        } else {
            p.sibling = k.sibling;
        }
        if (k.sibling != kNilEvent) {
            key(k.sibling).prev = k.prev;
        }
        k.sibling = kNilEvent;
        k.prev = kNilEvent;
    }

    /**
     * Two-pass pairing merge of a first-child chain, in place.
     *
     * The textbook second pass walks the paired roots right-to-left,
     * which would mean buffering them in a scratch vector. This
     * version threads the pair winners into a reversed intrusive list
     * through their (root-unused) `sibling` links instead — prepending
     * during the pairing pass reverses the chain for free — so the
     * whole merge runs on the key array's own cache lines with zero
     * side allocations or vector traffic. Heap *shape* may differ from
     * the scratch-vector version's, but pop order cannot: (when, seq)
     * is a strict total order, so the minimum is unique and traces are
     * unchanged.
     */
    std::uint32_t
    MergePairs(std::uint32_t first)
    {
        if (first == kNilEvent) {
            return kNilEvent;
        }
        // Fast paths: in steady churn most popped roots have 0-2
        // children, where the general loop's bookkeeping dominates.
        const std::uint32_t second = key(first).sibling;
        if (second == kNilEvent) {
            key(first).prev = kNilEvent;
            return first;
        }
        if (key(second).sibling == kNilEvent) {
            key(first).sibling = kNilEvent;
            key(first).prev = kNilEvent;
            key(second).prev = kNilEvent;
            return Meld(first, second);
        }

        // Pass 1: meld adjacent pairs left-to-right, prepending each
        // winner onto `paired` (reversed list threaded via `sibling`).
        // We also tried a full multipass variant (repeat this pass
        // until one root remains) for its independent-meld ILP; it
        // measured ~35% slower on steady churn — the heap quality loss
        // outweighs the latency overlap — so two-pass it stays.
        std::uint32_t paired = kNilEvent;
        std::uint32_t cur = first;
        while (cur != kNilEvent) {
            const std::uint32_t a = cur;
            const std::uint32_t b = key(a).sibling;
            if (b == kNilEvent) {
                key(a).prev = kNilEvent;
                key(a).sibling = paired;
                paired = a;
                break;
            }
            const std::uint32_t next = key(b).sibling;
            if (next != kNilEvent) {
                Prefetch(next);
            }
            key(a).sibling = kNilEvent;
            key(a).prev = kNilEvent;
            key(b).sibling = kNilEvent;
            key(b).prev = kNilEvent;
            const std::uint32_t winner = Meld(a, b);
            key(winner).sibling = paired;
            paired = winner;
            cur = next;
        }

        // Pass 2: accumulate along the reversed list — i.e. right-to-
        // left over the original chain, preserving the amortized bound.
        std::uint32_t acc = paired;
        std::uint32_t rest = key(acc).sibling;
        key(acc).sibling = kNilEvent;
        while (rest != kNilEvent) {
            const std::uint32_t n = rest;
            rest = key(n).sibling;
            if (rest != kNilEvent) {
                Prefetch(rest);
            }
            key(n).sibling = kNilEvent;
            acc = Meld(n, acc);
        }
        return acc;
    }

    std::uint32_t
    Allocate()
    {
        if (free_head_ == kNilEvent) {
            Grow();
        }
        const std::uint32_t index = free_head_;
        free_head_ = key(index).prev;
        key(index).prev = kNilEvent;
        return index;
    }

    /** Recycles a slot: bumps its generation (invalidating every handle
     *  to the fired/cancelled event), destroys the payload, and pushes
     *  the slot on the free list. */
    void
    Free(std::uint32_t index)
    {
        EventKey& k = key(index);
        ++k.generation;
        payload(index).Reset();
        k.prev = free_head_;
        free_head_ = index;
        --live_;
    }

    void
    Grow()
    {
        const std::size_t block = blocks_.size();
        // Slot indices stay below both sentinels (kRingTag < kNilEvent).
        assert((block + 1) * kBlockSize <= kRingTag);
        blocks_.push_back(Block{
            std::make_unique<EventKey[]>(kBlockSize),
            std::make_unique<InlineEvent[]>(kBlockSize)});
        // Threaded last-first so the lowest new index pops first.
        for (std::size_t i = kBlockSize; i-- > 0;) {
            const auto index =
                static_cast<std::uint32_t>((block << kBlockShift) | i);
            key(index).prev = free_head_;
            free_head_ = index;
        }
    }

    std::vector<Block> blocks_;
    std::uint32_t free_head_ = kNilEvent;
    std::uint32_t root_ = kNilEvent;
    std::size_t live_ = 0;
    Stats stats_;
    /** Absolute bucket (time >> kBucketShift) the ring window follows. */
    std::int64_t cursor_ = 0;
    /** Bit w set iff ring_bits_[w] != 0. */
    std::uint32_t ring_words_ = 0;
    std::array<std::uint64_t, kRingWords> ring_bits_{};
    /** Bucket list heads, kNilEvent when empty (set by the ctor). */
    std::array<std::uint32_t, kRingBuckets> ring_head_;
};

}  // namespace sol::sim::detail
