//! # symsc-campaign — the verification campaign orchestrator
//!
//! Production-scale orchestration over everything the earlier layers
//! built: the T1–T5 symbolic suite (`symsc-testbench`), the mutant
//! registry (`symsc-mutate`), the coverage-guided differential fuzzer
//! and the symbolic↔fuzz seed exchange (`symsc-fuzz`). A *campaign* fans
//! the testbench × mutant × fuzz-lane cross product into a dependency
//! DAG of jobs and executes it on a sharded work-stealing queue where
//! symbolic and fuzz workers steal from each other. Probe seeds and fuzz
//! findings flow between the two engines *while the campaign runs*: a
//! job reads its dependencies' results from the [`WorkQueue`], which
//! holds every completed job's result, journal-spliced ones included.
//!
//! Two properties make this production-grade rather than a scatter of
//! scripts:
//!
//! - **Determinism.** Every job result is a pure function of the
//!   [`CampaignSpec`]; scheduling affects wall-clock and the steal
//!   counter only. The final `report.txt`/`report.json` are
//!   byte-identical at any worker count.
//! - **Durability.** Completed jobs are checkpointed to an append-only
//!   journal, and corpus/counterexample/coverage records to a versioned
//!   store, in crash-consistent order. A killed campaign resumes from
//!   its last checkpoint and converges to the *same bytes* an
//!   uninterrupted run produces — enforced by the kill-and-resume tests
//!   and by `scripts/campaign_smoke.sh` in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod journal;
pub mod orchestrator;
pub mod queue;
pub mod report;
pub mod spec;
pub mod store;
pub mod wire;

pub use job::{plan, Job, JobId, JobKind, JobResult, WireFinding};
pub use journal::{read_journal, Journal};
pub use orchestrator::{
    load_spec, report_paths, resume, start, status, CampaignOutcome, CampaignStatus, JobEvent,
    RunOptions, JOURNAL_FILE, REPORT_JSON, REPORT_TEXT, SPEC_FILE, STORE_FILE,
};
pub use queue::{QueueStats, WorkQueue};
pub use report::{CampaignReport, MutantReportRow};
pub use spec::{CampaignSpec, ResolvedSpec};
pub use store::{read_store, Store, StoreContents};
