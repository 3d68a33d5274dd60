//! The flight recorder: a fixed-capacity ring of recent structured
//! engine events.
//!
//! Counters tell you *how many* evictions or sheds happened; the flight
//! recorder tells you *which* — each event carries an engine-time stamp
//! plus member/shard/job attribution, so "what was shard 3 doing when
//! the lane blocked?" has an answer after the fact. The ring is
//! pre-allocated at construction and overwrites its oldest entry when
//! full: recording is O(1) and allocation-free, and a runaway event
//! source can never grow memory.

/// What happened. Kind-specific payloads ride in [`FlightEvent::a`] /
/// [`FlightEvent::b`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A stream was evicted (TTL expiry, LRU pressure, or explicit).
    /// `a` = the stream's rank, `b` = last-seen stamp.
    Eviction,
    /// A bounded observe lane filled and the sender blocked.
    /// `a` = events in the blocked leg, `b` = nanoseconds spent blocked.
    BackpressureBlock,
    /// A bounded observe lane filled and a leg was shed.
    /// `a` = events dropped.
    BackpressureShed,
    /// A shard worker was found dead. `a` = events in the failed leg.
    WorkerGone,
    /// A stream's detected period changed. `a` = the stream's rank,
    /// `b` = length of the run the old period survived (observations).
    PeriodChurn,
    /// A job was migrated live between federation members. `member` is
    /// the source, `a` = streams moved, `b` = the destination member.
    JobMigrated,
    /// A stream's serving champion swapped to a challenger with a
    /// sustained scoring lead. `a` = `(stream-kind index << 32) | rank`,
    /// `b` = `(old champion's predictor tag << 8) | new champion's tag`.
    ChampionSwapped,
    /// Crash recovery found a torn or corrupt tail in the observation
    /// log and cut it back to the last valid frame. `a` = bytes
    /// dropped, `b` = byte offset of the tear in its segment.
    WalTruncated,
}

impl FlightKind {
    /// Stable lower-snake label used by the JSON / Prometheus writers.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Eviction => "eviction",
            FlightKind::BackpressureBlock => "backpressure_block",
            FlightKind::BackpressureShed => "backpressure_shed",
            FlightKind::WorkerGone => "worker_gone",
            FlightKind::PeriodChurn => "period_churn",
            FlightKind::JobMigrated => "job_migrated",
            FlightKind::ChampionSwapped => "champion_swapped",
            FlightKind::WalTruncated => "wal_truncated",
        }
    }
}

/// One recorded event. Plain old data: pushing one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Engine-time stamp (1-based global event counter) when the event
    /// was recorded.
    pub at: u64,
    /// Event kind; see [`FlightKind`] for the `a`/`b` payloads.
    pub kind: FlightKind,
    /// Federation member index (0 outside a federation).
    pub member: u32,
    /// Shard index within the engine (0 when not shard-specific).
    pub shard: u32,
    /// Job id the event is attributed to (0 = the default job or N/A).
    pub job: u32,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// Fixed-capacity ring of [`FlightEvent`]s, oldest-overwritten.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<FlightEvent>,
    cap: usize,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder holding the last `cap` events (`cap` is clamped to at
    /// least 1). All memory is allocated here, up front.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Records an event. O(1), never allocates (the ring was
    /// pre-allocated at construction).
    #[inline]
    pub fn push(&mut self, ev: FlightEvent) {
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            self.ring[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.cap {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> FlightEvent {
        FlightEvent {
            at,
            kind: FlightKind::Eviction,
            member: 0,
            shard: 0,
            job: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut r = FlightRecorder::new(3);
        for at in 1..=5 {
            r.push(ev(at));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        let stamps: Vec<u64> = r.dump().iter().map(|e| e.at).collect();
        assert_eq!(stamps, vec![3, 4, 5]);
    }

    #[test]
    fn partial_ring_dumps_in_push_order() {
        let mut r = FlightRecorder::new(8);
        r.push(ev(1));
        r.push(ev(2));
        let stamps: Vec<u64> = r.dump().iter().map(|e| e.at).collect();
        assert_eq!(stamps, vec![1, 2]);
        assert!(!r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.dump().len(), 1);
        assert_eq!(r.dump()[0].at, 2);
    }

    #[test]
    fn kinds_have_stable_labels() {
        assert_eq!(FlightKind::WorkerGone.label(), "worker_gone");
        assert_eq!(FlightKind::JobMigrated.label(), "job_migrated");
    }
}
