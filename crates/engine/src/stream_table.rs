//! Slab-backed stream table: the shard's key→slot layer.
//!
//! A [`Shard`](crate::Shard) used to keep its per-stream state in a
//! `HashMap<StreamKey, StreamSlot>`, which put two SipHash probes on
//! every ingested event and made LRU eviction collect-and-sort the whole
//! resident set. This module replaces that with a **dense slab**:
//!
//! * every [`StreamKey`] is interned once into a stable [`SlotId`]
//!   (`u32` index into a contiguous `Vec`), fronted by an
//!   [`fxhash`]-hashed map — SipHash's DoS resistance buys nothing for
//!   internal keys, and the multiply-xor hash is several times cheaper
//!   on 12-byte keys;
//! * freed slots are chained into a **free list** and reused, so a
//!   stream table churning through evictions reaches a steady state
//!   with zero slab growth;
//! * recency is tracked per **job domain**: one intrusive doubly-linked
//!   LRU list per resident [`JobId`], threaded through the slab
//!   (`prev`/`next` per slot) and kept **sorted by `last_seen`**
//!   (oldest at the head, ties in touch order). A touch with a
//!   job-monotone stamp — the only case on the single-writer ingest
//!   path — is an O(1) unlink + tail append; out-of-order stamps
//!   (possible only with concurrent clients racing on one job, where
//!   eviction timing is already arrival-order-dependent) walk back from
//!   the domain tail to their sorted position.
//!
//! Per-job lists are what make **per-job time domains** coherent: with
//! a TTL configured, stamps are allocated from each job's own clock, so
//! `last_seen` values are only comparable *within* a domain. A single
//! global list would interleave incomparable stamps; here every
//! domain's list is sorted in its own time base, and the TTL sweep
//! walks each domain against that job's clock (`Shard::sweep_expired`).
//! The merged read-side views ([`StreamTable::oldest`],
//! [`StreamTable::oldest_window`], [`StreamTable::iter`]) compare raw
//! stamps across domains — meaningful as *job-local ages* under
//! per-job time, and exactly the old global order when every stamp
//! comes from one shared clock (no TTL, or a single job).
//!
//! The sortedness invariant is what turns the two expensive scans into
//! bounded walks:
//!
//! * **TTL sweeps** pop expired entries off a domain head until the
//!   first live one — O(reclaimed), not O(resident);
//! * **LRU victim selection** reads an [`StreamTable::oldest_window`]
//!   of `n` entries plus the tie group at the cutoff stamp — O(n ·
//!   domains + ties), not collect-all + O(n log n) sort. The caller
//!   still applies the canonical `(last_seen, job, rank, kind)` victim
//!   order to the window, so forced-eviction victims are deterministic
//!   (property-tested in `tests/stream_table.rs`).
//!
//! Domains are interned on first insert and persist for the table's
//! lifetime (mirroring the shard's append-only job registry): an
//! evicted job leaves an empty list behind, so its `u32` domain index
//! stays stable for re-admission and for snapshot enumeration.
//!
//! The table is generic over its payload `T` (the shard stores its
//! predictor slots; tests differential-test the table against a
//! `HashMap` reference model with trivial payloads) and intentionally
//! knows nothing about TTL policy, metrics, or per-job clocks — it owns
//! exactly the key interning, per-domain recency order, and slot
//! storage.

use crate::types::{JobId, StreamKey};
use fxhash::FxHashMap;

/// Sentinel index terminating the LRU lists and the free list.
const NIL: u32 = u32::MAX;

/// Stable handle to one occupied slot. Ids are reused after
/// [`StreamTable::remove`] (free-list), so a `SlotId` is only valid
/// while its stream stays resident; the shard looks its id up afresh
/// for every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The raw slab index (diagnostics and tests; slot reuse makes this
    /// meaningless as a long-lived identity).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug)]
struct Slot<T> {
    key: StreamKey,
    /// Stamp of the latest touch (the owning job's time base when
    /// per-job clocks are active); the LRU sort key within a domain.
    last_seen: u64,
    /// LRU neighbours within the slot's domain (occupied slots);
    /// `next` doubles as the free-list link for freed slots.
    prev: u32,
    next: u32,
    /// Index into [`StreamTable::domains`] of the owning job's list.
    domain: u32,
    /// `None` marks a freed slot awaiting reuse.
    payload: Option<T>,
}

/// One job's intrusive LRU list (see the [module docs](self)).
#[derive(Debug)]
struct Domain {
    job: JobId,
    /// Oldest occupied slot of this job (list head); `NIL` when empty.
    head: u32,
    /// Newest occupied slot of this job (list tail); `NIL` when empty.
    tail: u32,
    len: usize,
}

/// Dense slab of per-stream state with interned keys and an intrusive
/// last-seen-sorted LRU list per job domain. See the
/// [module docs](self).
#[derive(Debug)]
pub struct StreamTable<T> {
    map: FxHashMap<StreamKey, u32>,
    slots: Vec<Slot<T>>,
    /// Head of the free list (chained through `next`).
    free: u32,
    /// Per-job LRU lists, in domain-interning order (append-only).
    domains: Vec<Domain>,
    /// Job → index into `domains`.
    domain_index: FxHashMap<JobId, u32>,
    len: usize,
}

impl<T> Default for StreamTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StreamTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        StreamTable {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: NIL,
            domains: Vec::new(),
            domain_index: FxHashMap::default(),
            len: 0,
        }
    }

    /// Number of resident streams.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no stream is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the slot serving `key` (one fxhash probe).
    #[inline]
    pub fn get(&self, key: StreamKey) -> Option<SlotId> {
        self.map.get(&key).map(|&i| SlotId(i))
    }

    /// The key a slot serves.
    #[inline]
    pub fn key_of(&self, id: SlotId) -> StreamKey {
        self.slots[id.index()].key
    }

    /// The slot's latest touch stamp.
    #[inline]
    pub fn last_seen(&self, id: SlotId) -> u64 {
        self.slots[id.index()].last_seen
    }

    /// Read access to a slot's payload.
    #[inline]
    pub fn payload(&self, id: SlotId) -> &T {
        self.slots[id.index()]
            .payload
            .as_ref()
            .expect("SlotId addresses an occupied slot")
    }

    /// Write access to a slot's payload.
    #[inline]
    pub fn payload_mut(&mut self, id: SlotId) -> &mut T {
        self.slots[id.index()]
            .payload
            .as_mut()
            .expect("SlotId addresses an occupied slot")
    }

    /// Number of interned job domains (including ones whose lists are
    /// currently empty — domains persist for the table's lifetime).
    #[inline]
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The job a domain serves. `d` must be below
    /// [`StreamTable::domain_count`].
    #[inline]
    pub fn domain_job(&self, d: usize) -> JobId {
        self.domains[d].job
    }

    /// The least-recently-touched resident slot of domain `d` (that
    /// job's LRU head) — the per-domain sweep cursor.
    #[inline]
    pub fn domain_oldest(&self, d: usize) -> Option<SlotId> {
        let head = self.domains[d].head;
        (head != NIL).then_some(SlotId(head))
    }

    /// Number of resident streams in domain `d`.
    #[inline]
    pub fn domain_len(&self, d: usize) -> usize {
        self.domains[d].len
    }

    /// The domain index serving `job`, if it has ever held a stream.
    #[inline]
    pub fn domain_for_job(&self, job: JobId) -> Option<usize> {
        self.domain_index.get(&job).map(|&d| d as usize)
    }

    /// Iterates domain `d`'s resident slots oldest-first (that job's
    /// LRU order) — the snapshot serialization order.
    pub fn domain_iter(&self, d: usize) -> impl Iterator<Item = SlotId> + '_ {
        let mut cur = self.domains[d].head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let id = SlotId(cur);
            cur = self.slots[cur as usize].next;
            Some(id)
        })
    }

    /// Interns `key`, storing `payload` stamped `at`, and returns the
    /// new slot's id. Reuses a freed slot when one is available; the
    /// slab only grows when the free list is empty. The slot joins its
    /// job's domain list (interned on first use).
    ///
    /// # Panics
    ///
    /// Panics if `key` is already resident (callers route through
    /// [`StreamTable::get`] first, as the shard's ingest loop does).
    pub fn insert(&mut self, key: StreamKey, at: u64, payload: T) -> SlotId {
        let domain = self.intern_domain(key.job);
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.slots[idx as usize].next;
            let slot = &mut self.slots[idx as usize];
            slot.key = key;
            slot.last_seen = at;
            slot.domain = domain;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab index fits u32");
            assert!(idx != NIL, "stream table slab is full");
            self.slots.push(Slot {
                key,
                last_seen: at,
                prev: NIL,
                next: NIL,
                domain,
                payload: Some(payload),
            });
            idx
        };
        let prior = self.map.insert(key, idx);
        assert!(prior.is_none(), "key was already resident: {key:?}");
        self.len += 1;
        self.domains[domain as usize].len += 1;
        self.link_sorted(domain, idx, at);
        SlotId(idx)
    }

    /// Re-stamps a slot to `at` and moves it to its sorted position in
    /// its domain's LRU list. Job-monotone stamps (`at` ≥ the domain
    /// tail's stamp — the single-writer ingest case) relink in O(1); an
    /// out-of-order stamp walks back from the domain tail to keep the
    /// list sorted.
    #[inline]
    pub fn touch(&mut self, id: SlotId, at: u64) {
        let idx = id.0;
        let domain = self.slots[idx as usize].domain;
        self.slots[idx as usize].last_seen = at;
        // Already the domain's newest and still sorted: nothing to move.
        if self.domains[domain as usize].tail == idx {
            let prev = self.slots[idx as usize].prev;
            if prev == NIL || self.slots[prev as usize].last_seen <= at {
                return;
            }
        }
        self.unlink(domain, idx);
        self.link_sorted(domain, idx, at);
    }

    /// Removes a slot, returning its key and payload; the slot joins
    /// the free list for reuse.
    pub fn remove(&mut self, id: SlotId) -> (StreamKey, T) {
        let idx = id.0;
        let domain = self.slots[idx as usize].domain;
        self.unlink(domain, idx);
        self.domains[domain as usize].len -= 1;
        let slot = &mut self.slots[idx as usize];
        let key = slot.key;
        let payload = slot.payload.take().expect("removing an occupied slot");
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        let mapped = self.map.remove(&key);
        debug_assert_eq!(mapped, Some(idx), "map and slab stay in sync");
        (key, payload)
    }

    /// Removes the slot serving `key`, if resident.
    pub fn remove_key(&mut self, key: StreamKey) -> Option<T> {
        let id = self.get(key)?;
        Some(self.remove(id).1)
    }

    /// The resident slot with the smallest `last_seen` stamp across all
    /// domains (ties resolve to the earliest-interned domain, then that
    /// domain's touch order). With one shared clock this is exactly the
    /// global LRU head; under per-job time it compares job-local ages.
    #[inline]
    pub fn oldest(&self) -> Option<SlotId> {
        let mut best: Option<(u64, u32)> = None;
        for d in &self.domains {
            if d.head == NIL {
                continue;
            }
            let seen = self.slots[d.head as usize].last_seen;
            if best.is_none_or(|(bs, _)| seen < bs) {
                best = Some((seen, d.head));
            }
        }
        best.map(|(_, idx)| SlotId(idx))
    }

    /// Iterates resident slots in ascending `last_seen` order — a
    /// k-way merge over the sorted domain lists (ties resolve to the
    /// earliest-interned domain).
    pub fn iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        let mut cursors: Vec<u32> = self.domains.iter().map(|d| d.head).collect();
        std::iter::from_fn(move || {
            let mut best: Option<(u64, usize)> = None;
            for (d, &cur) in cursors.iter().enumerate() {
                if cur == NIL {
                    continue;
                }
                let seen = self.slots[cur as usize].last_seen;
                if best.is_none_or(|(bs, _)| seen < bs) {
                    best = Some((seen, d));
                }
            }
            let (_, d) = best?;
            let idx = cursors[d];
            cursors[d] = self.slots[idx as usize].next;
            Some(SlotId(idx))
        })
    }

    /// The candidate window for selecting the `n` LRU victims: the
    /// first `n` entries in last-seen order **plus the whole tie group
    /// at the cutoff stamp**, merged across domains, so a caller
    /// applying the canonical `(last_seen, key)` victim order to the
    /// window provably picks the same victims it would have picked from
    /// the full resident set. O((n + ties) · domains), independent of
    /// the resident-set size.
    pub fn oldest_window(&self, n: usize) -> Vec<(u64, StreamKey)> {
        let mut out: Vec<(u64, StreamKey)> = Vec::new();
        if n == 0 {
            return out;
        }
        for id in self.iter() {
            let seen = self.last_seen(id);
            if out.len() >= n && seen != out[n - 1].0 {
                break;
            }
            out.push((seen, self.key_of(id)));
        }
        out
    }

    /// Keeps only the slots `f` approves of, walking each domain
    /// oldest→newest (domains in interning order); returns how many
    /// were removed. `f` sees each key and payload.
    pub fn retain(&mut self, mut f: impl FnMut(StreamKey, &mut T) -> bool) -> usize {
        let mut removed = 0;
        for d in 0..self.domains.len() {
            let mut cur = self.domains[d].head;
            while cur != NIL {
                let slot = &mut self.slots[cur as usize];
                let next = slot.next;
                let key = slot.key;
                let keep = f(key, slot.payload.as_mut().expect("walking occupied slots"));
                if !keep {
                    self.remove(SlotId(cur));
                    removed += 1;
                }
                cur = next;
            }
        }
        removed
    }

    /// Drops every resident slot (the slab's capacity is kept; all
    /// slots join the free list). Interned domains persist — emptied,
    /// not forgotten — so domain indices stay stable.
    pub fn clear(&mut self) {
        self.map.clear();
        for d in 0..self.domains.len() {
            let mut cur = self.domains[d].head;
            while cur != NIL {
                let slot = &mut self.slots[cur as usize];
                let next = slot.next;
                slot.payload = None;
                slot.next = self.free;
                self.free = cur;
                cur = next;
            }
            self.domains[d].head = NIL;
            self.domains[d].tail = NIL;
            self.domains[d].len = 0;
        }
        self.len = 0;
    }

    /// Interns `job`'s domain without inserting a stream — the snapshot
    /// restore path, which must reproduce the source table's domain
    /// interning order *before* re-inserting streams (domain order is
    /// the cross-domain tie-break in [`StreamTable::oldest`] /
    /// [`StreamTable::iter`], so restoring it out of order would change
    /// LRU victim selection among equal stamps).
    #[inline]
    pub(crate) fn ensure_domain(&mut self, job: JobId) {
        self.intern_domain(job);
    }

    /// Resolves (interning on first use) the domain serving `job`.
    #[inline]
    fn intern_domain(&mut self, job: JobId) -> u32 {
        if let Some(&d) = self.domain_index.get(&job) {
            return d;
        }
        let d = u32::try_from(self.domains.len()).expect("domain index fits u32");
        self.domains.push(Domain {
            job,
            head: NIL,
            tail: NIL,
            len: 0,
        });
        self.domain_index.insert(job, d);
        d
    }

    /// Unlinks `idx` from its domain's LRU list (it must be linked).
    #[inline]
    fn unlink(&mut self, domain: u32, idx: u32) {
        let (prev, next) = {
            let slot = &self.slots[idx as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.domains[domain as usize].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.domains[domain as usize].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Links `idx` (currently unlinked, stamped `at`) at its sorted
    /// position in `domain`'s list: after every slot with `last_seen <=
    /// at`, walking back from the domain tail. The job-monotone fast
    /// path appends in O(1).
    #[inline]
    fn link_sorted(&mut self, domain: u32, idx: u32, at: u64) {
        // Find the insertion predecessor.
        let mut after = self.domains[domain as usize].tail;
        while after != NIL && self.slots[after as usize].last_seen > at {
            after = self.slots[after as usize].prev;
        }
        let before = if after == NIL {
            self.domains[domain as usize].head
        } else {
            self.slots[after as usize].next
        };
        {
            let slot = &mut self.slots[idx as usize];
            slot.prev = after;
            slot.next = before;
        }
        if after == NIL {
            self.domains[domain as usize].head = idx;
        } else {
            self.slots[after as usize].next = idx;
        }
        if before == NIL {
            self.domains[domain as usize].tail = idx;
        } else {
            self.slots[before as usize].prev = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamKind;

    fn key(rank: u32) -> StreamKey {
        StreamKey::new(rank, StreamKind::Sender)
    }

    fn jkey(job: JobId, rank: u32) -> StreamKey {
        StreamKey::for_job(job, rank, StreamKind::Sender)
    }

    fn order<T>(t: &StreamTable<T>) -> Vec<StreamKey> {
        t.iter().map(|id| t.key_of(id)).collect()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t: StreamTable<u64> = StreamTable::new();
        assert!(t.is_empty());
        let a = t.insert(key(0), 1, 10);
        let b = t.insert(key(1), 2, 20);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(key(0)), Some(a));
        assert_eq!(t.get(key(1)), Some(b));
        assert_eq!(t.get(key(2)), None);
        assert_eq!(*t.payload(a), 10);
        *t.payload_mut(a) = 11;
        assert_eq!(*t.payload(a), 11);
        assert_eq!(t.key_of(b), key(1));
        assert_eq!(t.last_seen(b), 2);
        assert_eq!(t.remove(a), (key(0), 11));
        assert_eq!(t.get(key(0)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove_key(key(1)), Some(20));
        assert!(t.is_empty());
        assert_eq!(t.oldest(), None);
    }

    #[test]
    fn touch_keeps_the_list_sorted_and_is_lru() {
        let mut t: StreamTable<()> = StreamTable::new();
        for r in 0..4 {
            t.insert(key(r), u64::from(r) + 1, ());
        }
        assert_eq!(order(&t), vec![key(0), key(1), key(2), key(3)]);
        // Touching the oldest makes it the newest.
        let a = t.get(key(0)).unwrap();
        t.touch(a, 9);
        assert_eq!(order(&t), vec![key(1), key(2), key(3), key(0)]);
        assert_eq!(t.oldest(), t.get(key(1)));
        // An out-of-order (smaller) stamp files back into place.
        let d = t.get(key(3)).unwrap();
        t.touch(d, 0);
        assert_eq!(order(&t), vec![key(3), key(1), key(2), key(0)]);
    }

    #[test]
    fn ties_keep_touch_order() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(key(0), 5, ());
        t.insert(key(1), 5, ());
        let a = t.get(key(0)).unwrap();
        t.touch(a, 5); // same stamp: moves after its tie
        assert_eq!(order(&t), vec![key(1), key(0)]);
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut t: StreamTable<u32> = StreamTable::new();
        let a = t.insert(key(0), 1, 0);
        let b = t.insert(key(1), 2, 0);
        t.remove(a);
        t.remove(b);
        // LIFO reuse: the most recently freed slot comes back first.
        let c = t.insert(key(2), 3, 0);
        assert_eq!(c.index(), b.index(), "freed slot reused");
        let d = t.insert(key(3), 4, 0);
        assert_eq!(d.index(), a.index());
        let e = t.insert(key(4), 5, 0);
        assert_eq!(e.index(), 2, "slab grows only when the free list is dry");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn oldest_window_includes_the_tie_group() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(key(0), 1, ());
        t.insert(key(1), 2, ());
        t.insert(key(2), 2, ());
        t.insert(key(3), 2, ());
        t.insert(key(4), 7, ());
        assert_eq!(t.oldest_window(0), vec![]);
        assert_eq!(t.oldest_window(1), vec![(1, key(0))]);
        // n = 2 cuts inside the stamp-2 tie group: all of it is returned.
        assert_eq!(
            t.oldest_window(2),
            vec![(1, key(0)), (2, key(1)), (2, key(2)), (2, key(3))]
        );
        assert_eq!(t.oldest_window(99).len(), 5);
    }

    #[test]
    fn retain_removes_and_counts() {
        let mut t: StreamTable<u32> = StreamTable::new();
        for r in 0..6 {
            t.insert(key(r), u64::from(r), r);
        }
        let removed = t.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 3);
        assert_eq!(order(&t), vec![key(0), key(2), key(4)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clear_frees_everything_for_reuse() {
        let mut t: StreamTable<()> = StreamTable::new();
        for r in 0..4 {
            t.insert(key(r), u64::from(r), ());
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.oldest(), None);
        assert_eq!(t.get(key(1)), None);
        // All four slots are on the free list: re-inserting grows nothing.
        for r in 10..14 {
            t.insert(key(r), u64::from(r), ());
        }
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|id| id.index() < 4), "slab did not grow");
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(key(0), 1, ());
        t.insert(key(0), 2, ());
    }

    #[test]
    fn domains_are_interned_per_job_and_persist() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(jkey(7, 0), 1, ());
        t.insert(jkey(3, 0), 1, ());
        t.insert(jkey(7, 1), 2, ());
        assert_eq!(t.domain_count(), 2);
        assert_eq!(t.domain_for_job(7), Some(0));
        assert_eq!(t.domain_for_job(3), Some(1));
        assert_eq!(t.domain_for_job(9), None);
        assert_eq!(t.domain_job(0), 7);
        assert_eq!(t.domain_len(0), 2);
        assert_eq!(t.domain_len(1), 1);
        // Evicting a whole job leaves its (empty) domain interned.
        t.remove_key(jkey(3, 0));
        assert_eq!(t.domain_count(), 2);
        assert_eq!(t.domain_oldest(1), None);
        assert_eq!(t.domain_len(1), 0);
        t.insert(jkey(3, 5), 9, ());
        assert_eq!(t.domain_for_job(3), Some(1), "domain index is stable");
    }

    #[test]
    fn per_domain_lru_orders_are_independent() {
        let mut t: StreamTable<()> = StreamTable::new();
        // Job 1's stamps race ahead of job 2's — per-job time domains.
        t.insert(jkey(1, 0), 100, ());
        t.insert(jkey(2, 0), 1, ());
        t.insert(jkey(1, 1), 200, ());
        t.insert(jkey(2, 1), 2, ());
        let d1 = t.domain_for_job(1).unwrap();
        let d2 = t.domain_for_job(2).unwrap();
        fn keys(t: &StreamTable<()>, d: usize) -> Vec<StreamKey> {
            t.domain_iter(d).map(|id| t.key_of(id)).collect()
        }
        assert_eq!(keys(&t, d1), vec![jkey(1, 0), jkey(1, 1)]);
        assert_eq!(keys(&t, d2), vec![jkey(2, 0), jkey(2, 1)]);
        assert_eq!(t.domain_oldest(d1), t.get(jkey(1, 0)));
        assert_eq!(t.domain_oldest(d2), t.get(jkey(2, 0)));
        // Touching job 1's head only reorders job 1's list.
        let a = t.get(jkey(1, 0)).unwrap();
        t.touch(a, 300);
        assert_eq!(keys(&t, d1), vec![jkey(1, 1), jkey(1, 0)]);
        assert_eq!(keys(&t, d2), vec![jkey(2, 0), jkey(2, 1)]);
    }

    #[test]
    fn merged_views_interleave_domains_by_stamp() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(jkey(1, 0), 5, ());
        t.insert(jkey(2, 0), 3, ());
        t.insert(jkey(1, 1), 8, ());
        t.insert(jkey(2, 1), 6, ());
        assert_eq!(
            order(&t),
            vec![jkey(2, 0), jkey(1, 0), jkey(2, 1), jkey(1, 1)]
        );
        assert_eq!(t.oldest(), t.get(jkey(2, 0)));
        assert_eq!(t.oldest_window(2), vec![(3, jkey(2, 0)), (5, jkey(1, 0))]);
        // Cross-domain ties resolve to the earliest-interned domain.
        t.insert(jkey(1, 2), 3, ());
        assert_eq!(order(&t)[0], jkey(1, 2));
    }

    #[test]
    fn retain_walks_every_domain() {
        let mut t: StreamTable<u32> = StreamTable::new();
        for r in 0..3 {
            t.insert(jkey(1, r), u64::from(r), r);
            t.insert(jkey(2, r), u64::from(r), r + 10);
        }
        let removed = t.retain(|k, _| k.job != 2);
        assert_eq!(removed, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.domain_len(t.domain_for_job(2).unwrap()), 0);
        assert_eq!(t.domain_len(t.domain_for_job(1).unwrap()), 3);
    }

    #[test]
    fn clear_empties_every_domain_but_keeps_them() {
        let mut t: StreamTable<()> = StreamTable::new();
        t.insert(jkey(1, 0), 1, ());
        t.insert(jkey(2, 0), 2, ());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.domain_count(), 2);
        assert_eq!(t.domain_oldest(0), None);
        assert_eq!(t.domain_oldest(1), None);
        t.insert(jkey(2, 9), 5, ());
        assert_eq!(t.domain_for_job(2), Some(1));
        assert_eq!(t.len(), 1);
    }
}
