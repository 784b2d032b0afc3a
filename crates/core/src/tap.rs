//! Streaming bus-event tap.
//!
//! The backend hands every [`BusEvent`] it records to one [`BusTap`] as
//! the event is emitted, so an attacker model (the leakage observatory)
//! can fold each packet into running statistics without the backend ever
//! materialising the full trace. Analyses that do want the whole trace
//! at once (the one-shot estimators in `obfusmem-sec::leakage`) attach a
//! [`CollectingTap`] and take its buffer after the run.
//!
//! The handle mirrors the `obfusmem-obs` no-op recorder contract: a
//! disabled [`BusTapHandle`] is a `None` and every call short-circuits on
//! an `Option` check, so runs without an attacker pay a single branch per
//! would-be event and emit byte-identical results.

use std::cell::RefCell;
use std::rc::Rc;

use crate::busmsg::BusEvent;

/// Observer of the encrypted bus. Implementations fold events into
/// running state; they must not assume events arrive in batches or that
/// a full trace is ever available.
pub trait BusTap {
    /// Called once per bus event, in emission order.
    fn on_event(&mut self, event: &BusEvent);
}

/// A tap that discards everything. Used to measure the cost of event
/// construction + delivery without any analysis riding on top.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBusTap;

impl BusTap for NullBusTap {
    fn on_event(&mut self, _event: &BusEvent) {}
}

/// A tap that keeps every event, in emission order. Clones share one
/// buffer: attach [`CollectingTap::handle`] to a backend, run, then
/// [`CollectingTap::take`] the trace.
#[derive(Debug, Default, Clone)]
pub struct CollectingTap {
    events: Rc<RefCell<Vec<BusEvent>>>,
}

impl CollectingTap {
    /// A handle that streams into this tap's buffer.
    pub fn handle(&self) -> BusTapHandle {
        BusTapHandle::attached(self.events.clone())
    }

    /// Takes the events collected so far, leaving the tap attached and
    /// its buffer empty.
    pub fn take(&self) -> Vec<BusEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

impl BusTap for Vec<BusEvent> {
    fn on_event(&mut self, event: &BusEvent) {
        self.push(event.clone());
    }
}

/// Shared, optionally-absent tap. Cloning shares the underlying
/// observer (mirrors `obfusmem_obs::TraceHandle`).
#[derive(Clone, Default)]
pub struct BusTapHandle {
    inner: Option<Rc<RefCell<dyn BusTap>>>,
}

impl BusTapHandle {
    /// A handle with no observer attached; `deliver` is a no-op.
    pub fn disabled() -> Self {
        BusTapHandle { inner: None }
    }

    /// Wraps an observer. The caller keeps its own `Rc` to read the
    /// accumulated state back out after the run.
    pub fn attached(tap: Rc<RefCell<dyn BusTap>>) -> Self {
        BusTapHandle { inner: Some(tap) }
    }

    /// Whether an observer is listening. The backend uses this to decide
    /// if event construction is worth doing at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Streams one event to the observer, if any.
    pub fn deliver(&self, event: &BusEvent) {
        if let Some(tap) = &self.inner {
            tap.borrow_mut().on_event(event);
        }
    }
}

impl std::fmt::Debug for BusTapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusTapHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busmsg::{BusPacket, Direction, GroundTruth};
    use obfusmem_mem::request::AccessKind;

    fn event() -> BusEvent {
        BusEvent {
            at: obfusmem_sim::time::Time::ZERO,
            channel: 0,
            direction: Direction::ToMemory,
            packet: BusPacket {
                header_ct: [0; 16],
                data_ct: None,
                tag: None,
            },
            truth: GroundTruth {
                real: true,
                kind: AccessKind::Read,
                addr: 7,
            },
        }
    }

    struct Counting(u64);
    impl BusTap for Counting {
        fn on_event(&mut self, _event: &BusEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = BusTapHandle::disabled();
        assert!(!h.is_enabled());
        h.deliver(&event()); // must not panic
    }

    #[test]
    fn attached_handle_streams_events() {
        let tap = Rc::new(RefCell::new(Counting(0)));
        let h = BusTapHandle::attached(tap.clone());
        assert!(h.is_enabled());
        h.deliver(&event());
        h.deliver(&event());
        assert_eq!(tap.borrow().0, 2);
    }

    #[test]
    fn collecting_tap_keeps_events_in_order_and_drains_on_take() {
        let tap = CollectingTap::default();
        let h = tap.handle();
        let mut second = event();
        second.truth.addr = 8;
        h.deliver(&event());
        h.deliver(&second);
        let got = tap.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].truth.addr, 7);
        assert_eq!(got[1].truth.addr, 8);
        assert!(tap.take().is_empty(), "take drains the buffer");
        h.deliver(&event());
        assert_eq!(tap.take().len(), 1, "the tap stays attached");
    }

    #[test]
    fn clones_share_the_observer() {
        let tap = Rc::new(RefCell::new(Counting(0)));
        let h = BusTapHandle::attached(tap.clone());
        let h2 = h.clone();
        h.deliver(&event());
        h2.deliver(&event());
        assert_eq!(tap.borrow().0, 2);
    }
}
