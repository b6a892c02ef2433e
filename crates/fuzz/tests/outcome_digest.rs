//! Pins what the TLM and cycle-level lanes report for a fixed set of
//! inputs: the dictionary plus 256 seeded random programs, each run
//! through `run_input` and `run_cycle_input` on the fixed scaled FE310
//! and on a mutant of it (so there are errors to pin too). The digest
//! covers every coverage point and every error of every outcome, in
//! input order, so a change to term construction, evaluation or
//! hash-consing that moved a single branch direction, fork-site
//! fingerprint or finding shows here.

use symsc_fuzz::grammar::{MAX_OPS, OP_BYTES};
use symsc_fuzz::{dictionary, run_cycle_input, run_input, InputOutcome, InputRunner};
use symsc_plic::{MutationOp, PlicConfig, PlicVariant};
use symsc_rng::Rng;

/// FNV-1a over 64 bits.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn absorb(h: u64, outcome: &InputOutcome) -> u64 {
    let mut h = fnv(h, &(outcome.coverage.len() as u64).to_le_bytes());
    for (site, dir) in &outcome.coverage {
        h = fnv(h, &site.to_le_bytes());
        h = fnv(h, &[u8::from(*dir)]);
    }
    h = fnv(h, &(outcome.errors.len() as u64).to_le_bytes());
    for (kind, message) in &outcome.errors {
        h = fnv(h, format!("{kind:?}").as_bytes());
        h = fnv(h, &[0]);
        h = fnv(h, message.as_bytes());
        h = fnv(h, &[0]);
    }
    h
}

fn inputs(config: &PlicConfig) -> Vec<Vec<u8>> {
    let mut out = dictionary(config);
    let mut rng = Rng::seed_from_u64(0x00D1_6E57);
    for _ in 0..256 {
        let len = rng.gen_range_inclusive(0, (MAX_OPS * OP_BYTES) as u64) as usize;
        out.push((0..len).map(|_| rng.next_u32() as u8).collect());
    }
    out
}

/// The digest over both configurations, and the number of errors found
/// on the fixed model and on the mutant.
fn digest(runner: InputRunner) -> (u64, usize, usize) {
    let fixed = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let mutant = fixed.mutate(MutationOp::ClaimSkipsClear);
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut errors = [0; 2];
    for (count, config) in errors.iter_mut().zip([fixed, mutant]) {
        for input in inputs(&config) {
            let outcome = runner(config, &input);
            *count += outcome.errors.len();
            h = absorb(h, &outcome);
        }
    }
    (h, errors[0], errors[1])
}

#[test]
fn tlm_lane_outcomes_are_pinned() {
    assert_eq!(digest(run_input), (13_170_627_094_151_982_930, 0, 17));
}

#[test]
fn cycle_lane_outcomes_are_pinned() {
    assert_eq!(digest(run_cycle_input), (15_676_746_236_509_296_864, 0, 17));
}
