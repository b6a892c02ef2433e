//! # symsc-bench — the table/figure regeneration harness
//!
//! Binaries (run with `cargo run --release -p symsc-bench --bin <name>`):
//!
//! * `table1` — regenerates the paper's Table 1 (full exploration of
//!   T1–T5 on the original PLIC).
//! * `table2` — regenerates Table 2 (time to first detection of the
//!   original bugs F1–F6 and the injected faults IF1–IF6 per test).
//! * `baseline_compare` — symbolic execution vs. random testing
//!   time-to-bug (the reproduction's substitute for the paper's
//!   unreproducible KLEE-on-SystemC-kernel baseline).
//! * `ablation` — every optimisation that must never change a report,
//!   against its reference configuration at 1, 2 and 8 workers, from
//!   one table ([`ablation`]): the parallel explorer's shared query
//!   cache, the solver's cache layers, the incremental per-path SAT
//!   context and copy-on-write forks (vs. the re-execution oracle).
//! * `mutation_kill` — the symbolic mutation-testing kill matrix
//!   ([`kill_matrix`]): the register-level TLM suite by default,
//!   `--suite firmware` for the ISS-hosted firmware drivers, `--suite
//!   cross` for the cross-level equivalence suite (every mutant injected
//!   into the cycle-level PLIC and checked against the fixed TLM model,
//!   and vice versa).
//! * `fuzz_kill` / `fuzz_diff` — the differential fuzzer's kill matrix,
//!   and its coverage diff against the symbolic engine + seed exchange.
//! * `bench_gate` — compares fresh harness emissions against the
//!   committed `BENCH_*.json` baselines with the one comparator
//!   ([`gate::compare`]) and fails on regressions.
//! * `profile_query`, `profile_t1` — solver profiling drivers.
//!
//! The campaign bench, `campaign_bench`, is a binary of `symsc-campaign`.
//! Every gated harness writes its run with [`symsysc_core::Emission`],
//! in the one schema the gate reads, and parses its flags with
//! [`symsysc_core::cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use symsc_symex::SymError;

pub mod ablation;
pub mod gate;
pub mod json;
pub mod kill_matrix;
pub mod workloads;

/// Maps a detected error to the paper's bug label, by the error message of
/// the corresponding engineered bug.
pub fn f_label(error: &SymError) -> Option<&'static str> {
    let m = error.message.as_str();
    if m.contains("interrupt id out of range") {
        Some("F1")
    } else if m.contains("must be 4-byte aligned") {
        Some("F2")
    } else if m.contains("no register mapping") {
        Some("F3")
    } else if m.contains("does not allow this access mode") {
        Some("F4")
    } else if m.contains("runs past the register boundary") {
        Some("F5")
    } else if m.contains("without external interrupt in flight") {
        Some("F6")
    } else {
        None
    }
}

/// The paper's six original-bug labels, in order.
pub const F_LABELS: [&str; 6] = ["F1", "F2", "F3", "F4", "F5", "F6"];

/// Formats a duration as a short human-readable cell value.
pub fn cell_time(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        "<1ms".to_string()
    } else if s < 1.0 {
        format!("{:.0}ms", s * 1000.0)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use symsc_symex::{Counterexample, ErrorKind};

    fn err(message: &str) -> SymError {
        SymError {
            kind: ErrorKind::ModelPanic,
            message: message.to_string(),
            counterexample: Counterexample::default(),
            path: 0,
            found_at: Duration::ZERO,
        }
    }

    #[test]
    fn labels_map_the_engineered_bugs() {
        assert_eq!(
            f_label(&err(
                "assertion failed: interrupt id out of range in trigger_interrupt"
            )),
            Some("F1")
        );
        assert_eq!(
            f_label(&err(
                "assertion failed: TLM register access must be 4-byte aligned"
            )),
            Some("F2")
        );
        assert_eq!(
            f_label(&err(
                "assertion failed: no register mapping for TLM address"
            )),
            Some("F3")
        );
        assert_eq!(
            f_label(&err(
                "assertion failed: register does not allow this access mode"
            )),
            Some("F4")
        );
        assert_eq!(
            f_label(&err("TLM transaction runs past the register boundary")),
            Some("F5")
        );
        assert_eq!(
            f_label(&err(
                "assertion failed: claim_response written without external interrupt in flight"
            )),
            Some("F6")
        );
        assert_eq!(f_label(&err("some testbench assertion")), None);
    }

    #[test]
    fn cell_time_ranges() {
        assert_eq!(cell_time(Duration::from_micros(10)), "<1ms");
        assert_eq!(cell_time(Duration::from_millis(250)), "250ms");
        assert_eq!(cell_time(Duration::from_secs(3)), "3.00s");
    }
}
