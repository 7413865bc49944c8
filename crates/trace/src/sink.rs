//! The shared event sink: bounded ring buffer + counters behind a cheap
//! clonable handle.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::counters::TraceCounters;
use crate::event::TraceEvent;
use crate::json::{array, JsonWriter};

/// Default ring capacity: enough for any attack scenario's full event
/// chain while bounding memory for long traced runs.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The storage behind a [`TraceSink`].
#[derive(Debug)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    counters: TraceCounters,
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
            counters: TraceCounters::default(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        self.counters.record(&event);
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A cheap clonable handle every layer can hold.
///
/// All clones share one buffer, so the kernel, bus, MMU, and PMP write one
/// interleaved event stream in program order. Emitting through a `None`
/// handle is a single branch — the zero-overhead-when-disabled guarantee.
#[derive(Debug, Clone)]
pub struct TraceSink {
    buffer: Arc<Mutex<TraceBuffer>>,
}

impl TraceSink {
    /// A sink with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink keeping at most `capacity` events (counters are unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buffer: Arc::new(Mutex::new(TraceBuffer::with_capacity(capacity))),
        }
    }

    /// Appends one event.
    pub fn emit(&self, event: TraceEvent) {
        self.buffer
            .lock()
            .expect("trace buffer poisoned")
            .push(event);
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buffer
            .lock()
            .expect("trace buffer poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// The run-wide counters.
    pub fn counters(&self) -> TraceCounters {
        self.buffer.lock().expect("trace buffer poisoned").counters
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.buffer
            .lock()
            .expect("trace buffer poisoned")
            .events
            .len()
    }

    /// True when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.buffer.lock().expect("trace buffer poisoned").dropped
    }

    /// Clears buffered events and counters (capacity is kept).
    pub fn clear(&self) {
        let mut b = self.buffer.lock().expect("trace buffer poisoned");
        b.events.clear();
        b.dropped = 0;
        b.counters = TraceCounters::default();
    }

    /// The most recent event recording a denial, if any.
    pub fn last_denial(&self) -> Option<TraceEvent> {
        self.buffer
            .lock()
            .expect("trace buffer poisoned")
            .events
            .iter()
            .rev()
            .find(|e| e.is_denial())
            .cloned()
    }

    /// Serialises the full sink state (events + counters + drop count) as
    /// one JSON object.
    pub fn dump_json(&self) -> String {
        let b = self.buffer.lock().expect("trace buffer poisoned");
        let mut w = JsonWriter::new();
        w.num_field("dropped", b.dropped);
        w.raw_field("counters", &b.counters.to_json());
        w.raw_field("events", &array(b.events.iter().map(TraceEvent::to_json)));
        w.finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a layer keeps its attached [`TraceSink`], if any.
///
/// A sink observes one machine. Cloning a layer therefore yields an empty
/// slot: a cloned machine starts with no sink attached, instead of writing
/// into its original's event stream through a shared handle.
#[derive(Debug, Default)]
pub struct SinkSlot(Option<TraceSink>);

impl Clone for SinkSlot {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl SinkSlot {
    /// The attached sink, if any.
    #[inline]
    pub fn get(&self) -> Option<&TraceSink> {
        self.0.as_ref()
    }

    /// Attaches `sink`, or detaches with `None`.
    pub fn set(&mut self, sink: Option<TraceSink>) {
        self.0 = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Access, Chan, Verdict};

    fn read_event(addr: u64) -> TraceEvent {
        TraceEvent::BusRead {
            addr,
            width: 8,
            channel: Chan::Regular,
        }
    }

    #[test]
    fn ring_bounds_and_counts() {
        let sink = TraceSink::with_capacity(4);
        for i in 0..10 {
            sink.emit(read_event(i));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        // Counters survive eviction.
        assert_eq!(sink.counters().bus_reads, 10);
        let events = sink.events();
        assert_eq!(events[0], read_event(6), "oldest surviving event");
        assert_eq!(events[3], read_event(9), "newest event");
    }

    #[test]
    fn a_cloned_slot_is_empty() {
        let mut slot = SinkSlot::default();
        slot.set(Some(TraceSink::new()));
        assert!(slot.get().is_some());
        assert!(slot.clone().get().is_none());
    }

    #[test]
    fn clones_share_one_stream() {
        let sink = TraceSink::new();
        let other = sink.clone();
        sink.emit(read_event(0));
        other.emit(read_event(1));
        assert_eq!(sink.len(), 2);
        assert_eq!(other.counters().bus_reads, 2);
    }

    #[test]
    fn last_denial_finds_the_final_rejection() {
        let sink = TraceSink::new();
        sink.emit(read_event(0));
        sink.emit(TraceEvent::PmpCheck {
            addr: 0x1000,
            kind: Access::Write,
            channel: Chan::Regular,
            entry: Some(1),
            verdict: Verdict::SecureRegionDenied,
        });
        sink.emit(read_event(1));
        let denial = sink.last_denial().expect("one denial present");
        assert!(matches!(denial, TraceEvent::PmpCheck { .. }));
    }

    #[test]
    fn clear_resets_everything() {
        let sink = TraceSink::with_capacity(2);
        sink.emit(read_event(0));
        sink.emit(read_event(1));
        sink.emit(read_event(2));
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.counters().bus_reads, 0);
    }

    #[test]
    fn dump_json_is_one_object() {
        let sink = TraceSink::new();
        sink.emit(read_event(0x40));
        let j = sink.dump_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"counters\":{"), "{j}");
        assert!(j.contains("\"events\":[{"), "{j}");
    }
}
