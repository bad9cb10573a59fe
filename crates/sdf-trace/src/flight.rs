//! The flight recorder: a bounded ring of per-request summaries.
//!
//! Long-running daemons need history, not just totals — when a request
//! misbehaves the counters say *how many*, never *which one*. The
//! [`FlightRecorder`] keeps the last `capacity` [`FlightRecord`]s (op
//! kind, outcome, cache status, queue wait, service time, and the
//! per-stage span tree) in a fixed-size ring: recording is O(1), memory
//! is bounded no matter how long the daemon runs, and a `drain` hands
//! back everything oldest-first plus a count of records the ring had to
//! drop since the previous drain. It is `sdfmemd`'s black box — cheap
//! enough to leave on always, detailed enough to reconstruct what the
//! last N requests actually did.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::{self, Writer};

/// One timed stage of a request, with optional nested sub-stages.
///
/// Start offsets are nanoseconds since the request began service (not
/// absolute recorder time), so records compare across requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name from the service's fixed vocabulary (`parse`,
    /// `engine`, `render`, …).
    pub name: &'static str,
    /// Offset from the start of service, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Nested sub-stages (e.g. the engine's schedule/lifetime/wig/alloc
    /// breakdown under the `engine` stage).
    pub children: Vec<StageSpan>,
}

impl StageSpan {
    /// A leaf stage with no children.
    pub fn leaf(name: &'static str, start_ns: u64, dur_ns: u64) -> StageSpan {
        StageSpan {
            name,
            start_ns,
            dur_ns,
            children: Vec::new(),
        }
    }

    /// The stage as a JSON object (children render recursively).
    pub fn to_json(&self) -> String {
        json::object(|w| self.write(w))
    }

    fn write(&self, w: &mut Writer) {
        w.str("name", self.name)
            .num("start_ns", self.start_ns)
            .num("dur_ns", self.dur_ns);
        StageSpan::write_list(w, "children", &self.children);
    }

    /// A stage list as an array member.
    pub fn write_list(w: &mut Writer, key: &str, stages: &[StageSpan]) {
        w.array(key, |w| {
            for stage in stages {
                w.item_object(|w| stage.write(w));
            }
        });
    }
}

/// How a request interacted with the daemon's result cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache without running the engine.
    Hit,
    /// Cacheable but absent; the engine ran and populated the slot.
    Miss,
    /// Not a cacheable operation.
    Uncached,
}

impl CacheStatus {
    /// The wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Uncached => "uncached",
        }
    }
}

/// Summary of one completed request, as kept by the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number, assigned by the recorder at record
    /// time (the first record is `1`); gaps after a drain reveal drops.
    pub seq: u64,
    /// The request's op kind (`analyze`, `plan`, …).
    pub op: &'static str,
    /// Terminal state name (`complete` or `failed`).
    pub outcome: &'static str,
    /// Cache interaction of the request.
    pub cache: CacheStatus,
    /// Nanoseconds spent queued before a worker picked the job up
    /// (zero for cache hits and inline ops, which never queue).
    pub queue_wait_ns: u64,
    /// Nanoseconds from service start to response composition.
    pub service_ns: u64,
    /// Per-stage breakdown of the service time.
    pub stages: Vec<StageSpan>,
}

impl FlightRecord {
    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write(w))
    }

    /// The record's members, written into the enclosing object.
    pub fn write(&self, w: &mut Writer) {
        w.num("seq", self.seq)
            .str("op", self.op)
            .str("outcome", self.outcome)
            .str("cache", self.cache.as_str())
            .num("queue_wait_ns", self.queue_wait_ns)
            .num("service_ns", self.service_ns);
        StageSpan::write_list(w, "stages", &self.stages);
    }
}

struct FlightInner {
    records: VecDeque<FlightRecord>,
    dropped: u64,
    next_seq: u64,
}

/// Fixed-capacity ring buffer of [`FlightRecord`]s.
///
/// # Examples
///
/// ```
/// use sdf_trace::{CacheStatus, FlightRecord, FlightRecorder};
///
/// let flight = FlightRecorder::new(2);
/// for op in ["analyze", "plan", "simulate"] {
///     flight.record(FlightRecord {
///         seq: 0, // assigned by the recorder
///         op,
///         outcome: "complete",
///         cache: CacheStatus::Miss,
///         queue_wait_ns: 0,
///         service_ns: 10,
///         stages: vec![],
///     });
/// }
/// let (records, dropped) = flight.drain();
/// // The oldest record fell off the ring; the rest drain oldest-first.
/// assert_eq!(dropped, 1);
/// let ops: Vec<&str> = records.iter().map(|r| r.op).collect();
/// assert_eq!(ops, ["plan", "simulate"]);
/// assert!(flight.drain().0.is_empty());
/// ```
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records (capacity `0`
    /// keeps nothing and counts every record as dropped).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            inner: Mutex::new(FlightInner {
                records: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
                next_seq: 1,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `record`, assigning and returning its sequence number.
    /// When the ring is full the oldest record is dropped (and counted
    /// for the next [`drain`](FlightRecorder::drain)).
    pub fn record(&self, mut record: FlightRecord) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        record.seq = seq;
        inner.records.push_back(record);
        while inner.records.len() > self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        seq
    }

    /// Removes and returns all held records oldest-first, plus the
    /// number of records dropped by the ring since the last drain.
    pub fn drain(&self) -> (Vec<FlightRecord>, u64) {
        let mut inner = self.lock();
        let records = inner.records.drain(..).collect();
        let dropped = std::mem::take(&mut inner.dropped);
        (records, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn record(op: &'static str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            op,
            outcome: "complete",
            cache: CacheStatus::Miss,
            queue_wait_ns: 5,
            service_ns: 40,
            stages: vec![StageSpan {
                name: "engine",
                start_ns: 2,
                dur_ns: 30,
                children: vec![StageSpan::leaf("engine.schedule", 2, 10)],
            }],
        }
    }

    #[test]
    fn sequence_numbers_are_monotonic_from_one() {
        let flight = FlightRecorder::new(8);
        assert_eq!(flight.record(record("analyze")), 1);
        assert_eq!(flight.record(record("plan")), 2);
        let (records, dropped) = flight.drain();
        assert_eq!(dropped, 0);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);
        // Sequence numbering continues across drains.
        assert_eq!(flight.record(record("simulate")), 3);
    }

    #[test]
    fn ring_caps_at_capacity_and_counts_drops() {
        let flight = FlightRecorder::new(3);
        for _ in 0..7 {
            flight.record(record("analyze"));
        }
        assert_eq!(flight.len(), 3);
        let (records, dropped) = flight.drain();
        assert_eq!(dropped, 4);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [5, 6, 7], "newest survive, drained oldest-first");
        // The drop counter resets with the drain.
        flight.record(record("plan"));
        assert_eq!(flight.drain().1, 0);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let flight = FlightRecorder::new(0);
        flight.record(record("analyze"));
        flight.record(record("plan"));
        assert!(flight.is_empty());
        let (records, dropped) = flight.drain();
        assert!(records.is_empty());
        assert_eq!(dropped, 2);
    }

    #[test]
    fn record_json_round_trips_through_the_parser() {
        let flight = FlightRecorder::new(4);
        flight.record(record("analyze"));
        let (records, _) = flight.drain();
        let doc = parse(&records[0].to_json()).expect("valid JSON");
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(doc.get("seq").and_then(Json::as_num), Some(1.0));
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("miss"));
        let stages = doc.get("stages").and_then(Json::as_array).expect("stages");
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("engine"));
        let children = stages[0]
            .get("children")
            .and_then(Json::as_array)
            .expect("children");
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some("engine.schedule")
        );
        assert_eq!(children[0].get("dur_ns").and_then(Json::as_num), Some(10.0));
    }
}
