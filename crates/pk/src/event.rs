//! Events: the `sc_event` analogue.

use crate::time::SimTime;

/// A handle to a kernel event (the `sc_event` analogue).
///
/// Events are created through [`Kernel::create_event`] and are plain
/// copyable handles; all state lives in the kernel.
///
/// [`Kernel::create_event`]: crate::Kernel::create_event
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event(pub(crate) u32);

impl Event {
    /// The event's dense index within its kernel.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How an event notification is delivered, mirroring `sc_event::notify`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotifyKind {
    /// `notify()` — immediate: waiting processes become runnable within
    /// the current evaluation phase. Cancels any pending notification.
    Immediate,
    /// `notify(SC_ZERO_TIME)` — delta: fires in the next delta cycle.
    /// Overrides any pending *timed* notification.
    Delta,
    /// `notify(t)` — timed: fires after delay `t`. Of two pending timed
    /// notifications the earlier wins; never overrides a pending delta.
    Timed(SimTime),
}

/// The pending-notification state of one event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Pending {
    /// No notification outstanding.
    #[default]
    None,
    /// Fires in the next delta cycle.
    Delta,
    /// Fires at the given absolute time.
    At(SimTime),
}

/// Kernel-side state of an event.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventState {
    pub(crate) name: String,
    pub(crate) waiters: Vec<crate::process::ProcessId>,
    pub(crate) pending: Pending,
    /// Generation counter: bumped whenever `pending` is superseded, so
    /// stale wakelist entries can be ignored lazily.
    pub(crate) generation: u64,
}
