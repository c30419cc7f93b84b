//! Single-node driver.
//!
//! Runs one [`Kernel`] standalone with an immediate-loopback "fabric"
//! (all messages are node-local with a fixed shared-memory latency).
//! Used for kernel/noise unit tests and single-node experiments; the
//! multi-node driver lives in `pa-cluster`.

use crate::kernel::{Effects, Kernel, KernelEvent};
use pa_simkit::{EventId, EventQueue, SimDur, SimTime};

/// Drives one kernel to completion or a time horizon.
pub struct SoloRunner {
    /// The node kernel.
    pub kernel: Kernel,
    queue: EventQueue<KernelEvent>,
    fx: Effects,
    /// Loopback latency applied to node-local messages.
    pub shm_latency: SimDur,
    events_processed: u64,
    /// Outstanding `SegEnd` calendar entry per CPU ([`EventId::NONE`]
    /// when none), so kernel-voided segment timers are cancelled out of
    /// the calendar instead of surfacing as stale pops.
    seg_events: Vec<EventId>,
}

impl SoloRunner {
    /// Wrap a kernel (not yet booted).
    pub fn new(kernel: Kernel) -> SoloRunner {
        let ncpus = kernel.ncpus() as usize;
        SoloRunner {
            kernel,
            queue: EventQueue::new(),
            fx: Effects::new(),
            shm_latency: SimDur::from_micros(2),
            events_processed: 0,
            seg_events: vec![EventId::NONE; ncpus],
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The pending event calendar (checkpoint capture).
    pub fn queue(&self) -> &EventQueue<KernelEvent> {
        &self.queue
    }

    /// Replace the event calendar and event counter (checkpoint restore).
    /// The per-CPU outstanding-`SegEnd` slots are rebuilt from the
    /// queue's live entries — with true cancellation at most one is live
    /// per CPU at any event boundary.
    pub fn restore_queue(&mut self, queue: EventQueue<KernelEvent>, events_processed: u64) {
        self.seg_events = seg_slots_of(&queue, self.kernel.ncpus() as usize);
        self.queue = queue;
        self.events_processed = events_processed;
    }

    fn drain_effects(&mut self) {
        let now = self.queue.now();
        let node = self.kernel.node_id();
        schedule_effects(&mut self.queue, &mut self.seg_events, &mut self.fx);
        for msg in self.fx.outbound.drain(..) {
            assert_eq!(
                msg.dst.node, node,
                "SoloRunner cannot route cross-node messages"
            );
            self.queue
                .schedule(now + self.shm_latency, KernelEvent::Deliver { msg });
        }
    }

    fn pop_event(&mut self) -> (SimTime, KernelEvent) {
        pop_event(&mut self.queue, &mut self.seg_events).expect("peeked event vanished")
    }

    /// Boot the kernel at the current time.
    pub fn boot(&mut self) {
        let now = self.queue.now();
        self.kernel.boot(now, &mut self.fx);
        self.drain_effects();
    }

    /// Run until all application threads exit or `horizon` passes.
    /// Returns the stop time.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> SimTime {
        loop {
            if self.kernel.app_alive() == 0 {
                return self.queue.now();
            }
            let Some(t) = self.queue.peek_time() else {
                return self.queue.now();
            };
            if t > horizon {
                return self.queue.now();
            }
            let (now, ev) = self.pop_event();
            self.events_processed += 1;
            self.kernel.handle(now, ev, &mut self.fx);
            self.drain_effects();
        }
    }

    /// Run until `horizon` regardless of application state.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = self.pop_event();
            self.events_processed += 1;
            self.kernel.handle(now, ev, &mut self.fx);
            self.drain_effects();
        }
        horizon
    }
}

/// Move one handler's calendar effects into `queue`: its schedules and
/// its voided-segment cancels ([`Effects::cancels`]), interleaved in
/// program order by each cancel's watermark, since a handler may void a
/// CPU's timer and then arm a new one for the same CPU. `seg_events`
/// holds the one outstanding `SegEnd` id per CPU ([`EventId::NONE`] when
/// none); a cancel removes that entry from the calendar and clears the
/// slot. Schedules keep their original order, so event ids (and with
/// them the FIFO tie-breaks) are those of an engine that never cancels.
/// Outbound messages are left in `fx` for the driver to route. Shared by
/// every kernel driver (`SoloRunner` here, the sharded cluster engine in
/// `pa-cluster`).
///
/// Cancels are rare enough that [`EventQueue::cancel`] is a linear scan:
/// seed-42 benchmark passes schedule 19.6 M / 39.1 M / 9.38 M events and
/// cancel 150 / 26 / 82 of them (Fig 3 sweep / Fig 5 sweep / 512-node
/// Fig 3 point), fewer than one per 10⁵ operations, with per-node
/// calendars only 8.6 / 12.4 / 8.5 entries deep at their high-water mark.
///
/// This and [`pop_event`] are `#[inline]` because the cluster driver calls
/// them once per event from another crate: out of line, the calls cost
/// the Fig 5 sweep as much host time as dropping the position map saved.
#[inline]
pub fn schedule_effects(
    queue: &mut EventQueue<KernelEvent>,
    seg_events: &mut [EventId],
    fx: &mut Effects,
) {
    let mut cancels = fx.cancels.drain(..).peekable();
    for (idx, (t, ev)) in fx.schedule.drain(..).enumerate() {
        while let Some(c) = cancels.next_if(|c| c.after as usize <= idx) {
            cancel_slot(queue, &mut seg_events[c.cpu.0 as usize]);
        }
        let seg_cpu = match &ev {
            KernelEvent::SegEnd { cpu, .. } => Some(cpu.0 as usize),
            _ => None,
        };
        let id = queue.schedule(t, ev);
        if let Some(c) = seg_cpu {
            seg_events[c] = id;
        }
    }
    for c in cancels {
        cancel_slot(queue, &mut seg_events[c.cpu.0 as usize]);
    }
}

/// Pop the earliest event from `queue`, clearing its CPU's outstanding
/// `SegEnd` slot in `seg_events` when it is a segment timer (see
/// [`schedule_effects`]).
#[inline]
pub fn pop_event(
    queue: &mut EventQueue<KernelEvent>,
    seg_events: &mut [EventId],
) -> Option<(SimTime, KernelEvent)> {
    let (now, ev) = queue.pop()?;
    if let KernelEvent::SegEnd { cpu, .. } = ev {
        seg_events[cpu.0 as usize] = EventId::NONE;
    }
    Some((now, ev))
}

/// Cancel the calendar entry in `slot` (if any) and clear the slot.
fn cancel_slot(queue: &mut EventQueue<KernelEvent>, slot: &mut EventId) {
    if *slot != EventId::NONE {
        queue.cancel(*slot);
        *slot = EventId::NONE;
    }
}

/// Rebuild per-CPU outstanding-`SegEnd` slots from a calendar's live
/// entries (checkpoint restore). True cancellation guarantees at most
/// one live `SegEnd` per CPU at any event boundary. Shared by every
/// kernel driver that restores a calendar (`SoloRunner` here, the
/// sharded cluster engine in `pa-cluster`).
pub fn seg_slots_of(queue: &EventQueue<KernelEvent>, ncpus: usize) -> Vec<EventId> {
    let mut slots = vec![EventId::NONE; ncpus];
    for (_, id, ev) in queue.live_entries() {
        if let KernelEvent::SegEnd { cpu, .. } = ev {
            debug_assert_eq!(
                slots[cpu.0 as usize],
                EventId::NONE,
                "two live SegEnd entries for cpu {}",
                cpu.0
            );
            slots[cpu.0 as usize] = EventId::from_raw(id);
        }
    }
    slots
}
