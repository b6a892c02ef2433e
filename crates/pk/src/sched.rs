//! The scheduler core: time, events, the runnable queue, delta
//! notifications and the sorted wakelist.
//!
//! Split off from [`Kernel`](crate::Kernel) so that running processes can
//! be handed a mutable scheduler view ([`ProcessCtx`]) while their own
//! bodies are checked out of the kernel — the ownership-safe equivalent of
//! SystemC's global simulation context.
//!
//! [`ProcessCtx`]: crate::ProcessCtx

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::{Event, EventState, NotifyKind, Pending};
use crate::process::ProcessId;
use crate::time::SimTime;
use crate::trace::{TraceLog, TraceRecord};

/// Scheduling status of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProcStatus {
    Runnable,
    Waiting,
    Terminated,
}

#[derive(Clone, Debug)]
pub(crate) struct ProcMeta {
    pub(crate) status: ProcStatus,
    /// Events the process is currently registered with (one for a dynamic
    /// `wait(event)`, several for static sensitivity).
    pub(crate) waiting_on: Vec<Event>,
    pub(crate) wait_generation: u64,
    /// Static sensitivity list (`Suspend::WaitStatic` parks on these).
    pub(crate) sensitivity: Vec<Event>,
}

/// An entry in the sorted wakelist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WakeKind {
    /// A process sleeping until a time (or an event-wait timeout).
    Proc(ProcessId, u64),
    /// A timed event notification.
    EventFire(Event, u64),
}

type WakeEntry = Reverse<(SimTime, u64, WakeKind)>;

/// Counters exposed through [`KernelStats`](crate::KernelStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CoreStats {
    pub(crate) delta_cycles: u64,
    pub(crate) activations: u64,
    pub(crate) notifications: u64,
    pub(crate) timed_wakes: u64,
}

/// All scheduler state except the process bodies.
#[derive(Clone, Debug, Default)]
pub(crate) struct SchedCore {
    pub(crate) time: SimTime,
    pub(crate) events: Vec<EventState>,
    pub(crate) procs: Vec<ProcMeta>,
    pub(crate) runnable: VecDeque<ProcessId>,
    next_delta: Vec<(Event, u64)>,
    wakelist: BinaryHeap<WakeEntry>,
    seq: u64,
    pub(crate) stats: CoreStats,
    /// Present while VCD tracing is enabled.
    pub(crate) trace: Option<TraceLog>,
}

impl SchedCore {
    pub(crate) fn add_event(&mut self, name: &str) -> Event {
        let e = Event(self.events.len() as u32);
        self.events.push(EventState {
            name: name.to_string(),
            ..EventState::default()
        });
        e
    }

    pub(crate) fn add_process(&mut self, sensitivity: Vec<Event>) -> ProcessId {
        let p = ProcessId(self.procs.len() as u32);
        self.procs.push(ProcMeta {
            status: ProcStatus::Runnable,
            waiting_on: Vec::new(),
            wait_generation: 0,
            sensitivity,
        });
        self.runnable.push_back(p);
        p
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Delivers a notification with the SystemC override rules.
    pub(crate) fn notify(&mut self, event: Event, kind: NotifyKind) {
        self.stats.notifications += 1;
        match kind {
            NotifyKind::Immediate => {
                // Immediate: wake waiters in the current evaluation phase
                // and cancel any pending notification.
                let st = &mut self.events[event.index()];
                st.pending = Pending::None;
                st.generation += 1;
                self.wake_event_waiters(event);
            }
            NotifyKind::Delta => self.notify_delta(event),
            NotifyKind::Timed(delay) => {
                if delay.is_zero() {
                    // notify(SC_ZERO_TIME) is a delta notification.
                    self.notify_delta(event);
                    return;
                }
                let fire = self.time + delay;
                let st = &mut self.events[event.index()];
                match st.pending {
                    Pending::Delta => {} // delta beats any timed notify
                    Pending::At(existing) if existing <= fire => {}
                    _ => {
                        st.pending = Pending::At(fire);
                        st.generation += 1;
                        let gen = st.generation;
                        let seq = self.next_seq();
                        self.wakelist
                            .push(Reverse((fire, seq, WakeKind::EventFire(event, gen))));
                    }
                }
            }
        }
    }

    fn notify_delta(&mut self, event: Event) {
        let st = &mut self.events[event.index()];
        if st.pending == Pending::Delta {
            return;
        }
        st.pending = Pending::Delta;
        st.generation += 1;
        let gen = st.generation;
        self.next_delta.push((event, gen));
    }

    /// Cancels a pending notification (`sc_event::cancel`).
    pub(crate) fn cancel(&mut self, event: Event) {
        let st = &mut self.events[event.index()];
        st.pending = Pending::None;
        st.generation += 1;
    }

    fn wake_event_waiters(&mut self, event: Event) {
        if let Some(trace) = &mut self.trace {
            trace.record(self.time, TraceRecord::EventFired(event.0));
        }
        let waiters = std::mem::take(&mut self.events[event.index()].waiters);
        for pid in waiters {
            let meta = &mut self.procs[pid.index()];
            if meta.status == ProcStatus::Waiting {
                meta.status = ProcStatus::Runnable;
                meta.wait_generation += 1; // invalidate a pending timeout
                                           // Deregister from the *other* events of an or-list wait.
                let others: Vec<Event> =
                    meta.waiting_on.drain(..).filter(|&e| e != event).collect();
                for e in others {
                    self.events[e.index()].waiters.retain(|&w| w != pid);
                }
                self.runnable.push_back(pid);
            }
        }
    }

    fn fire_event(&mut self, event: Event, generation: u64) {
        let st = &mut self.events[event.index()];
        if st.generation != generation || st.pending == Pending::None {
            return; // superseded or cancelled
        }
        st.pending = Pending::None;
        self.wake_event_waiters(event);
    }

    /// Registers how a process suspends after its `resume` returned.
    pub(crate) fn suspend(&mut self, pid: ProcessId, how: crate::process::Suspend) {
        use crate::process::Suspend;
        let now = self.time;
        let meta = &mut self.procs[pid.index()];
        meta.wait_generation += 1;
        match how {
            Suspend::WaitEvent(e) => {
                meta.status = ProcStatus::Waiting;
                meta.waiting_on = vec![e];
                self.events[e.index()].waiters.push(pid);
            }
            Suspend::WaitStatic => {
                // `wait()` with no arguments: park on the static
                // sensitivity list (any of the events wakes the process).
                // An empty list waits forever, as in SystemC.
                meta.status = ProcStatus::Waiting;
                meta.waiting_on = meta.sensitivity.clone();
                let events = meta.waiting_on.clone();
                for e in events {
                    self.events[e.index()].waiters.push(pid);
                }
            }
            Suspend::WaitTime(d) => {
                meta.status = ProcStatus::Waiting;
                meta.waiting_on = Vec::new();
                let gen = meta.wait_generation;
                let seq = self.next_seq();
                self.wakelist
                    .push(Reverse((now + d, seq, WakeKind::Proc(pid, gen))));
            }
            Suspend::WaitEventTimeout(e, d) => {
                meta.status = ProcStatus::Waiting;
                meta.waiting_on = vec![e];
                let gen = meta.wait_generation;
                self.events[e.index()].waiters.push(pid);
                let seq = self.next_seq();
                self.wakelist
                    .push(Reverse((now + d, seq, WakeKind::Proc(pid, gen))));
            }
            Suspend::Terminate => {
                meta.status = ProcStatus::Terminated;
                meta.waiting_on = Vec::new();
            }
        }
    }

    fn wake_proc_by_timeout(&mut self, pid: ProcessId, generation: u64) {
        let meta = &mut self.procs[pid.index()];
        if meta.status != ProcStatus::Waiting || meta.wait_generation != generation {
            return; // stale entry
        }
        meta.status = ProcStatus::Runnable;
        meta.wait_generation += 1;
        // Waiting with timeout: drop the event registration(s).
        let events = std::mem::take(&mut meta.waiting_on);
        for e in events {
            self.events[e.index()].waiters.retain(|&w| w != pid);
        }
        self.runnable.push_back(pid);
    }

    /// Moves the pending delta notifications into the runnable set,
    /// returning whether any event fired.
    pub(crate) fn apply_delta_phase(&mut self) -> bool {
        if self.next_delta.is_empty() {
            return false;
        }
        self.stats.delta_cycles += 1;
        let fires = std::mem::take(&mut self.next_delta);
        for (event, generation) in fires {
            self.fire_event(event, generation);
        }
        true
    }

    /// Whether anything is scheduled for the current or a future time.
    pub(crate) fn has_pending_activity(&self) -> bool {
        !self.runnable.is_empty() || !self.next_delta.is_empty() || self.has_live_wakes()
    }

    fn has_live_wakes(&self) -> bool {
        self.wakelist
            .iter()
            .any(|Reverse((_, _, kind))| self.wake_is_live(*kind))
    }

    fn wake_is_live(&self, kind: WakeKind) -> bool {
        match kind {
            WakeKind::Proc(pid, generation) => {
                let meta = &self.procs[pid.index()];
                meta.status == ProcStatus::Waiting && meta.wait_generation == generation
            }
            WakeKind::EventFire(e, generation) => {
                let st = &self.events[e.index()];
                st.generation == generation && st.pending != Pending::None
            }
        }
    }

    /// Advances time to the next live wakelist entry and applies every
    /// entry scheduled for that instant. Returns `false` if the wakelist
    /// holds nothing live (simulation starved) or the next live entry lies
    /// beyond `limit` (time is then left untouched, like `sc_start(t)`
    /// pausing at its deadline).
    pub(crate) fn advance_time(&mut self, limit: Option<SimTime>) -> bool {
        // Skip stale entries; respect the limit without consuming entries
        // beyond it.
        let target = loop {
            match self.wakelist.peek() {
                None => return false,
                Some(&Reverse((t, _, kind))) => {
                    if !self.wake_is_live(kind) {
                        self.wakelist.pop();
                        continue;
                    }
                    if let Some(lim) = limit {
                        if t > lim {
                            return false;
                        }
                    }
                    self.wakelist.pop();
                    break (t, kind);
                }
            }
        };
        let (t, first) = target;
        debug_assert!(t >= self.time, "wakelist entry in the past");
        self.time = t;
        self.stats.timed_wakes += 1;
        self.apply_wake(first);
        while let Some(&Reverse((t2, _, kind))) = self.wakelist.peek() {
            if t2 != t {
                break;
            }
            self.wakelist.pop();
            if self.wake_is_live(kind) {
                self.apply_wake(kind);
            }
        }
        true
    }

    fn apply_wake(&mut self, kind: WakeKind) {
        match kind {
            WakeKind::Proc(pid, generation) => self.wake_proc_by_timeout(pid, generation),
            WakeKind::EventFire(e, generation) => self.fire_event(e, generation),
        }
    }
}
