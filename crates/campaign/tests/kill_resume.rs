//! The acceptance property of the orchestrator: a campaign killed
//! mid-run and resumed produces final reports **byte-identical** to an
//! uninterrupted run — at 1, 2 and 8 workers.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use symsc_campaign::{
    read_journal, read_store, resume, start, status, CampaignSpec, RunOptions, JOURNAL_FILE,
    REPORT_JSON, REPORT_TEXT, STORE_FILE,
};

/// A trimmed smoke spec so the whole matrix of runs stays test-sized.
fn tiny_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke(0xD1CE);
    spec.tests.truncate(1);
    spec.mutants.truncate(2);
    spec.probes.truncate(1);
    spec.fuzz_execs = 24;
    spec.baseline_execs = 24;
    spec.batch = 8;
    spec
}

/// An even smaller spec for the lifecycle test.
fn micro_spec() -> CampaignSpec {
    let mut spec = tiny_spec();
    spec.mutants.truncate(1);
    spec
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("symsc_campaign_test_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn reports(dir: &Path) -> (String, String) {
    (
        std::fs::read_to_string(dir.join(REPORT_JSON)).unwrap(),
        std::fs::read_to_string(dir.join(REPORT_TEXT)).unwrap(),
    )
}

#[test]
fn killed_and_resumed_campaigns_are_byte_identical_at_1_2_and_8_workers() {
    let spec = tiny_spec();
    let fingerprint = spec.fingerprint();

    // The uninterrupted reference run (1 worker).
    let reference_dir = fresh_dir("reference");
    let outcome = start(
        &reference_dir,
        &spec,
        &RunOptions {
            workers: 1,
            halt_after: None,
        },
        &|_| {},
    )
    .unwrap();
    assert!(!outcome.halted);
    assert_eq!(outcome.done, outcome.total);
    let (reference_json, reference_text) = reports(&reference_dir);
    let reference_store = read_store(&reference_dir.join("store.log"), fingerprint).unwrap();
    let report = outcome.report.unwrap();
    assert!(report.baseline_clean, "baseline must stay clean");
    assert_eq!(report.killed(), 2, "both preset mutants must die");
    assert!(report.seeds_exchanged() > 0, "probes must export seeds");

    for workers in [1usize, 2, 8] {
        // Killed at a mid-plan checkpoint, then resumed at this worker
        // count: byte-identical to the 1-worker uninterrupted reference.
        // (Matching the reference proves worker-count invariance and
        // kill/resume invariance in one comparison.)
        let dir = fresh_dir(&format!("resume_w{workers}"));
        let halted = start(
            &dir,
            &spec,
            &RunOptions {
                workers,
                halt_after: Some(outcome.total / 2),
            },
            &|_| {},
        )
        .unwrap();
        assert!(halted.halted, "workers={workers}: halt budget did not bite");
        assert!(halted.done < halted.total);
        assert!(halted.report.is_none());

        // status() sees the checkpointed progress, not a finished run.
        let view = status(&dir).unwrap();
        assert_eq!(view.done, halted.done);
        assert!(!view.finished);

        let resumed = resume(
            &dir,
            &RunOptions {
                workers,
                halt_after: None,
            },
            &|_| {},
        )
        .unwrap();
        assert!(!resumed.halted);
        assert_eq!(
            halted.queue.executed + resumed.queue.executed,
            resumed.total,
            "workers={workers}: every job executes exactly once across the pair"
        );
        let (json, text) = reports(&dir);
        assert_eq!(
            json, reference_json,
            "workers={workers} kill/resume changed report.json"
        );
        assert_eq!(
            text, reference_text,
            "workers={workers} kill/resume changed report.txt"
        );
        // The store's deduplicated contents converge too (line order and
        // multiplicity may differ — content is the contract).
        let store = read_store(&dir.join("store.log"), fingerprint).unwrap();
        assert_eq!(
            store, reference_store,
            "workers={workers} kill/resume changed the store contents"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&reference_dir).unwrap();
}

#[test]
fn starting_over_an_existing_campaign_is_refused_and_resume_is_idempotent() {
    let spec = micro_spec();
    let dir = fresh_dir("idempotent");
    let options = RunOptions {
        workers: 2,
        halt_after: None,
    };
    start(&dir, &spec, &options, &|_| {}).unwrap();
    let err = start(&dir, &spec, &options, &|_| {}).unwrap_err();
    assert!(err.contains("resume"), "unexpected error: {err}");
    let (json, text) = reports(&dir);

    // Resuming a finished campaign executes nothing and re-renders the
    // identical reports.
    let resumed = resume(&dir, &options, &|_| {}).unwrap();
    assert_eq!(resumed.queue.executed, 0);
    assert!(!resumed.halted);
    assert_eq!(reports(&dir), (json, text));
    let view = status(&dir).unwrap();
    assert!(view.finished);
    assert_eq!(view.done, view.total);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Appends `bytes` to `path` as a process killed mid-append leaves them.
fn tear(path: &Path, bytes: &str) {
    let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(bytes.as_bytes()).unwrap();
}

#[test]
fn torn_records_are_dropped_and_resumed_campaigns_stay_readable() {
    let spec = micro_spec();
    let fingerprint = spec.fingerprint();
    let one = |halt_after| RunOptions {
        workers: 1,
        halt_after,
    };
    let reference_dir = fresh_dir("torn_reference");
    let outcome = start(&reference_dir, &spec, &one(None), &|_| {}).unwrap();
    let reference_store = read_store(&reference_dir.join(STORE_FILE), fingerprint).unwrap();

    // Killed twice, each time mid-append to both files: first a store
    // record that lost its newline and a journal record cut inside its
    // payload, then a store record cut inside its hex.
    let dir = fresh_dir("torn");
    let third = outcome.total / 3;
    assert!(
        start(&dir, &spec, &one(Some(third)), &|_| {})
            .unwrap()
            .halted
    );
    tear(&dir.join(STORE_FILE), "seed IF1 0a0b");
    tear(&dir.join(JOURNAL_FILE), "done 11 0a");
    assert_eq!(status(&dir).unwrap().done, third);
    assert!(resume(&dir, &one(Some(third)), &|_| {}).unwrap().halted);
    assert_eq!(status(&dir).unwrap().done, 2 * third);
    tear(&dir.join(STORE_FILE), "corpus fuzz/IF1 0a0");
    assert_eq!(status(&dir).unwrap().done, 2 * third);

    let resumed = resume(&dir, &one(None), &|_| {}).unwrap();
    assert!(!resumed.halted);
    assert!(status(&dir).unwrap().finished);
    assert_eq!(
        read_journal(&dir.join(JOURNAL_FILE), fingerprint)
            .unwrap()
            .len() as u64,
        outcome.total
    );
    assert_eq!(reports(&dir), reports(&reference_dir));
    assert_eq!(
        read_store(&dir.join(STORE_FILE), fingerprint).unwrap(),
        reference_store,
        "the torn records must not reach the store's contents"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reference_dir).unwrap();
}
