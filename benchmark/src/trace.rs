//! Spans recorded from outside the engine: the benchmark wraps the
//! testbench closure and the fuzz input runner it hands to the engine,
//! and each call leaves one `(start, end)` interval here.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::covered;

/// A collector of call intervals, shareable across worker threads.
#[derive(Debug, Default)]
pub struct Spans {
    intervals: Mutex<Vec<(Instant, Instant)>>,
}

impl Spans {
    /// An empty collector (usable in a `static`).
    pub const fn new() -> Spans {
        Spans {
            intervals: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops — also when the
    /// wrapped call unwinds, which is how the engine ends a path.
    pub fn enter(&self) -> SpanGuard<'_> {
        SpanGuard {
            spans: self,
            start: Instant::now(),
        }
    }

    /// Removes and returns the intervals recorded so far.
    pub fn take(&self) -> Intervals {
        let mut guard = self
            .intervals
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Intervals(std::mem::take(&mut *guard))
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        // A poisoned lock only means another recording thread panicked;
        // the vector itself is always valid.
        let mut guard = self
            .spans
            .intervals
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.push((self.start, end));
    }
}

/// A batch of recorded call intervals.
#[derive(Debug, Default)]
pub struct Intervals(pub Vec<(Instant, Instant)>);

impl Intervals {
    /// Summed call time (concurrent calls on different workers add up).
    pub fn busy(&self) -> Duration {
        self.0.iter().map(|(s, e)| *e - *s).sum()
    }

    /// Time during which at least one call was running.
    pub fn covered(&self) -> Duration {
        covered(&self.0)
    }

    /// Each call's duration in seconds.
    pub fn durations(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_close_on_unwind() {
        let spans = Spans::new();
        {
            let _g = spans.enter();
        }
        let unwound = std::panic::catch_unwind(|| {
            let _g = spans.enter();
            panic!("path ends");
        });
        assert!(unwound.is_err());
        let recorded = spans.take();
        assert_eq!(recorded.0.len(), 2);
        assert!(recorded.covered() <= recorded.busy());
        assert!(spans.take().0.is_empty());
    }
}
