//! Pins the fuzz seeds the symbolic probes export at the smoke
//! campaign's budgets (`CampaignSpec::smoke`: a probe whose default
//! budget exceeds 64 paths runs at 16). Each seed encodes a
//! counterexample model, so the digest moves when a canonical model
//! does — a change to how the engine reaches its verdicts must leave
//! these bytes alone. Every pair that exports seeds at these budgets is
//! pinned, plus one that exports none.

use symsc_fuzz::probe_registry;
use symsc_plic::config::InjectedFault;
use symsc_plic::{PlicConfig, PlicVariant};

/// FNV-1a over 64 bits.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The number of seeds `probe` exports against `fault` at its smoke
/// budget, and a digest over every seed's length and bytes, in order.
fn seed_digest(probe: &str, fault: InjectedFault) -> (usize, u64) {
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let mut probe = probe_registry(&config)
        .into_iter()
        .find(|p| p.name == probe)
        .expect("a registered probe");
    if probe.max_paths > 64 {
        probe.max_paths = 16;
    }
    let seeds = probe.run(config.fault(fault));
    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in &seeds {
        h = fnv(h, &(seed.len() as u64).to_le_bytes());
        h = fnv(h, seed);
    }
    (seeds.len(), h)
}

#[test]
fn gateway_probe_seeds_against_if1_are_pinned() {
    assert_eq!(
        seed_digest("gateway", InjectedFault::If1OffByOneGateway),
        (1, 11_061_950_055_238_392_501)
    );
}

#[test]
fn masking_probe_seeds_against_if6_are_pinned() {
    assert_eq!(
        seed_digest("masking_3", InjectedFault::If6ThresholdOffByOne),
        (1, 4_860_487_564_064_434_107)
    );
    assert_eq!(
        seed_digest("masking_8", InjectedFault::If6ThresholdOffByOne),
        (1, 12_020_410_874_300_392_519)
    );
}

#[test]
fn cross_level_probe_seeds_against_if6_are_pinned() {
    assert_eq!(
        seed_digest("cross_3", InjectedFault::If6ThresholdOffByOne),
        (1, 10_865_974_181_426_998_651)
    );
}

#[test]
fn gateway_probe_exports_nothing_against_if4() {
    assert_eq!(
        seed_digest("gateway", InjectedFault::If4LateNotifyHighIds),
        (0, 0xcbf2_9ce4_8422_2325)
    );
}
