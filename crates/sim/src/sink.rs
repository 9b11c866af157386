//! The event-sink interface: where captured control-plane I/Os go.
//!
//! The paper's architecture (§4.1) assumes every router's control-plane
//! I/Os are captured *and shipped to the verifier*. [`EventSink`] is the
//! seam between capture and shipping: the simulator calls
//! [`on_event`](EventSink::on_event) for every [`IoEvent`] at the moment
//! it is recorded, and what happens next depends on the sink —
//!
//! * an in-process tap feeds an incremental `HbgBuilder` /
//!   `ConsistencyTracker` directly (what `ControlLoop::run` installs);
//! * `cpvr-collector`'s `SocketSink` frames the event onto a TCP stream
//!   toward a remote collector.
//!
//! Closures keep working: any `FnMut(&IoEvent)` is an `EventSink` via
//! the blanket impl, so `sim.set_event_sink(Box::new(|e| ...))` stays
//! valid.

use crate::io::IoEvent;

/// A consumer of captured I/O events, invoked synchronously for every
/// event at the moment it is recorded.
///
/// Object-safe by design: the simulator, the collector's client shim,
/// and test recorders all hold `Box<dyn EventSink>`.
pub trait EventSink {
    /// Observes one freshly captured event.
    fn on_event(&mut self, e: &IoEvent);

    /// A hint that a batch of events is complete (e.g. the simulation
    /// clock finished a step). Network-backed sinks flush their buffers
    /// here; the default does nothing.
    fn flush(&mut self) {}
}

impl<F: FnMut(&IoEvent)> EventSink for F {
    fn on_event(&mut self, e: &IoEvent) {
        self(e)
    }
}

/// A sink that routes each event to one of several inner sinks by the
/// event's router — how a multi-router deployment ships each router's
/// log over that router's own connection.
///
/// # Panics
///
/// [`on_event`](EventSink::on_event) panics if an event names a router
/// with no corresponding sink.
pub struct RouterShardSink {
    shards: Vec<Box<dyn EventSink>>,
}

impl RouterShardSink {
    /// A sharded sink; `shards[i]` receives router `i`'s events.
    pub fn new(shards: Vec<Box<dyn EventSink>>) -> Self {
        RouterShardSink { shards }
    }
}

impl EventSink for RouterShardSink {
    fn on_event(&mut self, e: &IoEvent) {
        self.shards[e.router.index()].on_event(e);
    }

    fn flush(&mut self) {
        for s in &mut self.shards {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{EventId, IoKind};
    use cpvr_types::{RouterId, SimTime};

    fn ev(id: u32, router: u32) -> IoEvent {
        IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time: SimTime::from_millis(id as u64),
            arrived_at: None,
            kind: IoKind::SoftReconfig { desc: "x".into() },
        }
    }

    #[test]
    fn closures_are_sinks() {
        let mut n = 0usize;
        {
            let mut sink: Box<dyn EventSink> = Box::new(|_: &IoEvent| n += 1);
            sink.on_event(&ev(0, 0));
            sink.on_event(&ev(1, 0));
            sink.flush();
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn shard_sink_routes_by_router() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(usize, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let shard = |i: usize| -> Box<dyn EventSink> {
            let seen = Rc::clone(&seen);
            Box::new(move |e: &IoEvent| seen.borrow_mut().push((i, e.id.0)))
        };
        let mut sharded = RouterShardSink::new(vec![shard(0), shard(1)]);
        sharded.on_event(&ev(0, 1));
        sharded.on_event(&ev(1, 0));
        sharded.on_event(&ev(2, 1));
        assert_eq!(*seen.borrow(), vec![(1, 0), (0, 1), (1, 2)]);
    }
}
