//! The kernel façade: process spawning, event creation, simulation control.

use std::sync::Arc;

use crate::event::{Event, NotifyKind};
use crate::process::{Process, ProcessCtx, ProcessId};
use crate::sched::{ProcStatus, SchedCore};
use crate::time::SimTime;
use crate::trace::{TraceLog, TraceRecord};

/// Counters describing scheduler activity, used by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Completed delta cycles.
    pub delta_cycles: u64,
    /// Process activations (calls to `resume`).
    pub activations: u64,
    /// Event notifications delivered.
    pub notifications: u64,
    /// Timed wake-ups taken from the sorted wakelist.
    pub timed_wakes: u64,
    /// Calls to [`Kernel::step`] that made progress.
    pub steps: u64,
}

/// The peripheral kernel: the drop-in `sc_core` replacement.
///
/// See the [crate documentation](crate) for the design rationale and an
/// end-to-end example.
#[derive(Default)]
pub struct Kernel {
    core: SchedCore,
    bodies: Vec<Option<Box<dyn Process>>>,
    names: Vec<String>,
    steps: u64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("time", &self.core.time)
            .field("processes", &self.names)
            .field("events", &self.core.events.len())
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel at time zero with no processes or events.
    pub fn new() -> Kernel {
        Kernel::default()
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.core.time
    }

    /// Creates a named event.
    pub fn create_event(&mut self, name: &str) -> Event {
        self.core.add_event(name)
    }

    /// The name an event was created with.
    pub fn event_name(&self, event: Event) -> &str {
        &self.core.events[event.index()].name
    }

    /// Spawns a process. Like SystemC threads, every process runs once
    /// during initialization (the first [`step`](Kernel::step)).
    pub fn spawn(&mut self, name: &str, process: impl Process + 'static) -> ProcessId {
        self.spawn_sensitive(name, process, &[])
    }

    /// Spawns a process with a *static sensitivity list*: returning
    /// [`Suspend::WaitStatic`](crate::Suspend::WaitStatic) parks it until
    /// any of `sensitivity` fires — SystemC's `sensitive << e1 << e2`.
    pub fn spawn_sensitive(
        &mut self,
        name: &str,
        process: impl Process + 'static,
        sensitivity: &[Event],
    ) -> ProcessId {
        let pid = self.core.add_process(sensitivity.to_vec());
        debug_assert_eq!(pid.index(), self.bodies.len());
        self.bodies.push(Some(Box::new(process)));
        self.names.push(name.to_string());
        pid
    }

    /// Notifies an event from outside any process (e.g. a testbench or a
    /// TLM initiator driving an interrupt line).
    pub fn notify(&mut self, event: Event, kind: NotifyKind) {
        self.core.notify(event, kind);
    }

    /// Cancels a pending notification.
    pub fn cancel(&mut self, event: Event) {
        self.core.cancel(event);
    }

    /// Runs every runnable process, then applies delta notifications,
    /// repeating until the current instant is quiescent. Returns whether
    /// any process ran.
    fn run_delta_cycles(&mut self) -> bool {
        let mut any = false;
        loop {
            while let Some(pid) = self.core.runnable.pop_front() {
                if self.core.procs[pid.index()].status != ProcStatus::Runnable {
                    continue;
                }
                any = true;
                self.activate(pid);
            }
            if !self.core.apply_delta_phase() {
                break;
            }
        }
        any
    }

    fn activate(&mut self, pid: ProcessId) {
        let mut body = match self.bodies[pid.index()].take() {
            Some(b) => b,
            None => return, // re-entrant activation cannot happen; be safe
        };
        self.core.stats.activations += 1;
        if let Some(trace) = &mut self.core.trace {
            trace.record(self.core.time, TraceRecord::ProcessActivated(pid.0));
        }
        let how = {
            let mut ctx = ProcessCtx {
                core: &mut self.core,
                me: pid,
            };
            body.resume(&mut ctx)
        };
        self.bodies[pid.index()] = Some(body);
        self.core.suspend(pid, how);
    }

    /// One simulation step, the paper's `pkernel_step()`:
    /// if there is activity at the current time (runnable processes or
    /// delta notifications), run it to quiescence; otherwise advance global
    /// time by the maximum amount possible without skipping a waiting
    /// event and run everything scheduled for that instant.
    ///
    /// Returns `false` when the simulation has starved (nothing will ever
    /// run again).
    pub fn step(&mut self) -> bool {
        let ran_now = self.run_delta_cycles();
        if ran_now {
            self.steps += 1;
            return true;
        }
        if !self.core.advance_time(None) {
            return false;
        }
        self.run_delta_cycles();
        self.steps += 1;
        true
    }

    /// Runs all activity scheduled up to and including `deadline`, then
    /// pauses with simulated time set to exactly `deadline` — the
    /// `sc_start(t)` behavior. Returns the final simulation time
    /// (always `deadline`).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        loop {
            self.run_delta_cycles();
            if !self.core.advance_time(Some(deadline)) {
                break;
            }
            self.steps += 1;
        }
        if self.core.time < deadline {
            self.core.time = deadline;
        }
        self.core.time
    }

    /// Steps until the simulation starves or `max_steps` is reached.
    /// Returns the number of steps executed.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps && self.step() {
            steps += 1;
        }
        steps
    }

    /// Whether any process or notification is still scheduled.
    pub fn has_pending_activity(&self) -> bool {
        self.core.has_pending_activity()
    }

    /// Captures the scheduler state — simulation time, event states,
    /// process statuses and sensitivities, the runnable queue, pending
    /// delta notifications, the timed wakelist, counters and trace — as a
    /// cheap-to-fork snapshot: cloning a [`KernelSnapshot`] is one Arc
    /// bump, so a path engine can hold one per pending fork.
    ///
    /// Process *bodies* are not captured (they are opaque `dyn Process`
    /// closures); restore is only sound when process-local state lives in
    /// shared handles (`Rc<RefCell<..>>`), as the peripheral models here
    /// do, or when the bodies are stateless between activations.
    pub fn snapshot(&self) -> KernelSnapshot {
        KernelSnapshot {
            inner: Arc::new(KernelSnapshotData {
                core: self.core.clone(),
                steps: self.steps,
            }),
        }
    }

    /// Restores the scheduler state captured by
    /// [`snapshot`](Kernel::snapshot). Mutations made after the snapshot
    /// — notifications delivered, time advanced, processes suspended —
    /// are discarded; sibling snapshots are never affected (the snapshot
    /// holds its own deep copy of the scheduler core).
    ///
    /// # Panics
    ///
    /// Panics if processes or events were created since the snapshot was
    /// taken: the snapshot does not capture process bodies, so the
    /// topology must match.
    pub fn restore(&mut self, snapshot: &KernelSnapshot) {
        assert_eq!(
            snapshot.inner.core.procs.len(),
            self.bodies.len(),
            "snapshot topology mismatch: processes were created since capture"
        );
        assert!(
            snapshot.inner.core.events.len() <= self.core.events.len(),
            "snapshot topology mismatch: snapshot has unknown events"
        );
        self.core = snapshot.inner.core.clone();
        self.steps = snapshot.inner.steps;
    }

    /// Enables VCD tracing: from now on, every event firing and process
    /// activation is recorded (see [`write_vcd`](Kernel::write_vcd)).
    pub fn enable_tracing(&mut self) {
        if self.core.trace.is_none() {
            self.core.trace = Some(TraceLog::default());
        }
    }

    /// Writes the recorded trace as a VCD document (viewable in GTKWave).
    /// Event firings and process activations appear as VCD `event`
    /// variables under `kernel.events` / `kernel.processes`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    ///
    /// # Panics
    ///
    /// Panics if tracing was never enabled.
    pub fn write_vcd<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let log = self
            .core
            .trace
            .as_ref()
            .expect("tracing not enabled; call enable_tracing() first");
        let event_names: Vec<&str> = self.core.events.iter().map(|e| e.name.as_str()).collect();
        let process_names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        crate::trace::write_vcd(out, log, &event_names, &process_names)
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            delta_cycles: self.core.stats.delta_cycles,
            activations: self.core.stats.activations,
            notifications: self.core.stats.notifications,
            timed_wakes: self.core.stats.timed_wakes,
            steps: self.steps,
        }
    }
}

/// An immutable capture of a [`Kernel`]'s scheduler state.
///
/// Produced by [`Kernel::snapshot`]; consumed by [`Kernel::restore`].
/// Cloning is one `Arc` bump, so a fork queue can hold thousands of
/// snapshots; the deep copy is paid once per *restore*, and only for the
/// scheduler core (event states, process statuses, queues, counters).
#[derive(Clone, Debug)]
pub struct KernelSnapshot {
    inner: Arc<KernelSnapshotData>,
}

#[derive(Debug)]
struct KernelSnapshotData {
    core: SchedCore,
    steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Suspend;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn processes_run_once_at_initialization() {
        let mut k = Kernel::new();
        let ran = Rc::new(RefCell::new(0));
        let r = ran.clone();
        k.spawn("init-once", move |_ctx: &mut ProcessCtx<'_>| {
            *r.borrow_mut() += 1;
            Suspend::Terminate
        });
        assert!(k.step());
        assert_eq!(*ran.borrow(), 1);
        assert!(!k.step(), "terminated process leaves nothing to run");
    }

    #[test]
    fn wait_time_advances_clock_by_exact_amount() {
        let mut k = Kernel::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        k.spawn("ticker", move |ctx: &mut ProcessCtx<'_>| {
            t.borrow_mut().push(ctx.time());
            if t.borrow().len() >= 4 {
                Suspend::Terminate
            } else {
                Suspend::WaitTime(SimTime::from_ns(10))
            }
        });
        while k.step() {}
        assert_eq!(
            *times.borrow(),
            vec![
                SimTime::ZERO,
                SimTime::from_ns(10),
                SimTime::from_ns(20),
                SimTime::from_ns(30)
            ]
        );
        assert_eq!(k.time(), SimTime::from_ns(30));
    }

    #[test]
    fn event_wait_and_timed_notify() {
        let mut k = Kernel::new();
        let e = k.create_event("go");
        let woke_at = Rc::new(RefCell::new(None));
        let w = woke_at.clone();
        let mut started = false;
        k.spawn("waiter", move |ctx: &mut ProcessCtx<'_>| {
            if !started {
                started = true;
                return Suspend::WaitEvent(e);
            }
            *w.borrow_mut() = Some(ctx.time());
            Suspend::Terminate
        });
        k.step(); // init: process parks on the event
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(7)));
        while k.step() {}
        assert_eq!(*woke_at.borrow(), Some(SimTime::from_ns(7)));
    }

    #[test]
    fn delta_notify_fires_at_same_time_next_delta() {
        let mut k = Kernel::new();
        let e = k.create_event("delta");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let mut started = false;
        k.spawn("consumer", move |ctx: &mut ProcessCtx<'_>| {
            if !started {
                started = true;
                return Suspend::WaitEvent(e);
            }
            l1.borrow_mut().push(("woke", ctx.time()));
            Suspend::Terminate
        });
        let l2 = log.clone();
        let mut produced = false;
        k.spawn("producer", move |ctx: &mut ProcessCtx<'_>| {
            if produced {
                return Suspend::Terminate;
            }
            produced = true;
            l2.borrow_mut().push(("notify", ctx.time()));
            ctx.notify(e, NotifyKind::Delta);
            Suspend::Terminate
        });
        k.step();
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], ("notify", SimTime::ZERO));
        assert_eq!(log[1], ("woke", SimTime::ZERO)); // same instant, later delta
        assert_eq!(k.stats().delta_cycles, 1);
    }

    #[test]
    fn earlier_timed_notification_overrides_later() {
        let mut k = Kernel::new();
        let e = k.create_event("override");
        let woke_at = Rc::new(RefCell::new(None));
        let w = woke_at.clone();
        let mut started = false;
        k.spawn("waiter", move |ctx: &mut ProcessCtx<'_>| {
            if !started {
                started = true;
                return Suspend::WaitEvent(e);
            }
            *w.borrow_mut() = Some(ctx.time());
            Suspend::WaitEvent(e)
        });
        k.step();
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(100)));
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(5))); // earlier wins
        while k.step() {
            if woke_at.borrow().is_some() {
                break;
            }
        }
        assert_eq!(*woke_at.borrow(), Some(SimTime::from_ns(5)));
        // The 100ns notification was overridden: nothing else pending.
        assert!(!k.step());
        assert_eq!(k.time(), SimTime::from_ns(5));
    }

    #[test]
    fn later_timed_notification_is_ignored_while_earlier_pending() {
        let mut k = Kernel::new();
        let e = k.create_event("keep-early");
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let mut started = false;
        k.spawn("waiter", move |_ctx: &mut ProcessCtx<'_>| {
            if !started {
                started = true;
            } else {
                *c.borrow_mut() += 1;
            }
            Suspend::WaitEvent(e)
        });
        k.step();
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(5)));
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(100))); // ignored
        while k.step() {}
        assert_eq!(*count.borrow(), 1, "event fires exactly once");
        assert_eq!(k.time(), SimTime::from_ns(5));
    }

    #[test]
    fn immediate_notify_cancels_pending_timed() {
        let mut k = Kernel::new();
        let e = k.create_event("imm");
        let wakes = Rc::new(RefCell::new(Vec::new()));
        let w = wakes.clone();
        let mut started = false;
        k.spawn("waiter", move |ctx: &mut ProcessCtx<'_>| {
            if started {
                w.borrow_mut().push(ctx.time());
            }
            started = true;
            Suspend::WaitEvent(e)
        });
        k.step(); // park
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(50)));
        k.notify(e, NotifyKind::Immediate); // wakes now, cancels the timed one
        k.step(); // run the woken process at t=0
        assert_eq!(*wakes.borrow(), vec![SimTime::ZERO]);
        assert!(!k.step(), "timed notification was cancelled");
        assert_eq!(k.time(), SimTime::ZERO);
    }

    #[test]
    fn cancel_discards_pending_notification() {
        let mut k = Kernel::new();
        let e = k.create_event("cancelled");
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let mut started = false;
        k.spawn("waiter", move |_ctx: &mut ProcessCtx<'_>| {
            if started {
                *c.borrow_mut() += 1;
            }
            started = true;
            Suspend::WaitEvent(e)
        });
        k.step();
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(5)));
        k.cancel(e);
        assert!(!k.step(), "cancelled notification never fires");
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn wait_event_with_timeout_takes_the_earlier_of_the_two() {
        // Case 1: the event fires first.
        let mut k = Kernel::new();
        let e = k.create_event("raced");
        let woke = Rc::new(RefCell::new(Vec::new()));
        let w = woke.clone();
        let mut started = false;
        k.spawn("racer", move |ctx: &mut ProcessCtx<'_>| {
            if started {
                w.borrow_mut().push(ctx.time());
                return Suspend::Terminate;
            }
            started = true;
            Suspend::WaitEventTimeout(e, SimTime::from_ns(100))
        });
        k.step();
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(10)));
        while k.step() {}
        assert_eq!(*woke.borrow(), vec![SimTime::from_ns(10)]);

        // Case 2: the timeout fires first.
        let mut k = Kernel::new();
        let e = k.create_event("raced");
        let woke = Rc::new(RefCell::new(Vec::new()));
        let w = woke.clone();
        let mut started = false;
        k.spawn("racer", move |ctx: &mut ProcessCtx<'_>| {
            if started {
                w.borrow_mut().push(ctx.time());
                return Suspend::Terminate;
            }
            started = true;
            Suspend::WaitEventTimeout(e, SimTime::from_ns(100))
        });
        k.step();
        k.notify(e, NotifyKind::Timed(SimTime::from_ns(500))); // too late
        while k.step() {}
        assert_eq!(*woke.borrow(), vec![SimTime::from_ns(100)]);
    }

    #[test]
    fn two_waiters_both_wake_on_one_notification() {
        let mut k = Kernel::new();
        let e = k.create_event("broadcast");
        let count = Rc::new(RefCell::new(0));
        for i in 0..2 {
            let c = count.clone();
            let mut started = false;
            k.spawn(&format!("waiter{i}"), move |_ctx: &mut ProcessCtx<'_>| {
                if started {
                    *c.borrow_mut() += 1;
                    return Suspend::Terminate;
                }
                started = true;
                Suspend::WaitEvent(e)
            });
        }
        k.step();
        k.notify(e, NotifyKind::Delta);
        k.step();
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut k = Kernel::new();
        k.spawn("forever", move |_ctx: &mut ProcessCtx<'_>| {
            Suspend::WaitTime(SimTime::from_ns(10))
        });
        let reached = k.run_until(SimTime::from_ns(35));
        assert_eq!(reached, SimTime::from_ns(35), "pauses exactly at t");
        assert_eq!(k.time(), SimTime::from_ns(35));
        // The 40ns wake is still pending and fires on the next step.
        assert!(k.step());
        assert_eq!(k.time(), SimTime::from_ns(40));
    }

    #[test]
    fn step_interleaves_multiple_timers_in_order() {
        let mut k = Kernel::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, period) in [("fast", 3u64), ("slow", 7u64)] {
            let l = log.clone();
            let mut fired = 0;
            k.spawn(name, move |ctx: &mut ProcessCtx<'_>| {
                if ctx.time() != SimTime::ZERO {
                    l.borrow_mut().push((name, ctx.time().as_ns()));
                }
                fired += 1;
                if fired > 3 {
                    Suspend::Terminate
                } else {
                    Suspend::WaitTime(SimTime::from_ns(period))
                }
            });
        }
        while k.step() {}
        let log = log.borrow();
        // fast: 3,6,9 ; slow: 7,14,21 — merged in time order.
        assert_eq!(
            *log,
            vec![
                ("fast", 3),
                ("fast", 6),
                ("slow", 7),
                ("fast", 9),
                ("slow", 14),
                ("slow", 21),
            ]
        );
    }

    #[test]
    fn stats_count_activity() {
        let mut k = Kernel::new();
        let e = k.create_event("e");
        let mut started = false;
        k.spawn("p", move |_ctx: &mut ProcessCtx<'_>| {
            if started {
                return Suspend::Terminate;
            }
            started = true;
            Suspend::WaitEvent(e)
        });
        k.step();
        k.notify(e, NotifyKind::Delta);
        k.step();
        let s = k.stats();
        assert_eq!(s.activations, 2);
        assert_eq!(s.notifications, 1);
        assert!(s.delta_cycles >= 1);
        assert!(s.steps >= 2);
    }
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;
    use crate::process::Suspend;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn static_sensitivity_wakes_on_any_listed_event() {
        let mut k = Kernel::new();
        let e1 = k.create_event("e1");
        let e2 = k.create_event("e2");
        let wakes = Rc::new(RefCell::new(Vec::new()));
        let w = wakes.clone();
        let mut started = false;
        k.spawn_sensitive(
            "or-waiter",
            move |ctx: &mut ProcessCtx<'_>| {
                if started {
                    w.borrow_mut().push(ctx.time().as_ns());
                }
                started = true;
                Suspend::WaitStatic
            },
            &[e1, e2],
        );
        k.step(); // park on both
        k.notify(e2, NotifyKind::Timed(SimTime::from_ns(5)));
        while k.step() {}
        assert_eq!(*wakes.borrow(), vec![5], "woken by e2");

        // Re-parked on both; the other event works too.
        k.notify(e1, NotifyKind::Timed(SimTime::from_ns(3)));
        while k.step() {}
        assert_eq!(*wakes.borrow(), vec![5, 8], "woken by e1 afterwards");
    }

    #[test]
    fn one_notification_wakes_once_even_with_both_registered() {
        // Both events notified for the same instant: the process wakes in
        // that instant once, re-parks, and is not woken again spuriously.
        let mut k = Kernel::new();
        let e1 = k.create_event("e1");
        let e2 = k.create_event("e2");
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let mut started = false;
        k.spawn_sensitive(
            "or-waiter",
            move |_ctx: &mut ProcessCtx<'_>| {
                if started {
                    *c.borrow_mut() += 1;
                }
                started = true;
                Suspend::WaitStatic
            },
            &[e1, e2],
        );
        k.step();
        k.notify(e1, NotifyKind::Delta);
        k.step();
        assert_eq!(*count.borrow(), 1, "woken once by e1");
        // e2's waiter list must no longer contain the process from the
        // previous wait (deregistered on wake) — notify e2 wakes it once.
        k.notify(e2, NotifyKind::Delta);
        k.step();
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn empty_sensitivity_waits_forever() {
        let mut k = Kernel::new();
        let ran = Rc::new(RefCell::new(0u32));
        let r = ran.clone();
        k.spawn("dead-waiter", move |_ctx: &mut ProcessCtx<'_>| {
            *r.borrow_mut() += 1;
            Suspend::WaitStatic
        });
        k.step(); // initialization run
        assert_eq!(*ran.borrow(), 1);
        assert!(!k.step(), "nothing can ever wake it");
        assert!(!k.has_pending_activity());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::process::Suspend;

    #[test]
    fn traced_simulation_produces_a_vcd() {
        let mut k = Kernel::new();
        k.enable_tracing();
        let tick = k.create_event("tick");
        let mut remaining = 2u32;
        k.spawn("ticker", move |ctx: &mut ProcessCtx<'_>| {
            if remaining == 0 {
                return Suspend::Terminate;
            }
            remaining -= 1;
            ctx.notify(tick, NotifyKind::Timed(SimTime::from_ns(5)));
            Suspend::WaitEvent(tick)
        });
        while k.step() {}

        let mut buf = Vec::new();
        k.write_vcd(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("$var event 1 e0 tick $end"));
        assert!(text.contains("$var event 1 p0 ticker $end"));
        assert!(text.contains("1p0"), "activations recorded");
        assert!(text.contains("1e0"), "event firings recorded");
        assert!(text.contains("#5000"), "fire at 5ns = 5000ps");
    }

    #[test]
    #[should_panic(expected = "tracing not enabled")]
    fn write_without_enable_panics() {
        let k = Kernel::new();
        let mut buf = Vec::new();
        let _ = k.write_vcd(&mut buf);
    }

    #[test]
    fn untraced_kernel_records_nothing() {
        let mut k = Kernel::new();
        let e = k.create_event("quiet");
        k.notify(e, NotifyKind::Delta);
        k.step();
        // No trace log allocated; this is just the "no overhead" check.
        assert!(k.stats().notifications == 1);
    }
}
