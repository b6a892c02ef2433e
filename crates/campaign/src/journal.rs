//! The checkpoint journal: the crash-consistent record of completed jobs.
//!
//! One `done` line per completed job — job id plus the hex-armored
//! [`JobResult`] payload — appended and
//! OS-flushed *after* the job's store records. A killed campaign
//! therefore restarts from exactly the set of jobs whose `done` lines
//! made it to disk; a job cut down mid-append is simply re-run (its
//! store appends are at-least-once and deduplicated on read).
//!
//! The header pins the spec fingerprint: resuming a journal against an
//! edited spec is rejected, because job ids are only meaningful for the
//! plan they were derived from. Journal *line order* is completion
//! order, which is scheduling-dependent — resume consumes the journal
//! as a set, so the order never influences the final report.

use std::collections::BTreeMap;
use std::path::Path;

use crate::job::{JobId, JobResult};
use crate::wire::{from_hex, read_records, to_hex, RecordFile};

/// An open journal being appended to by a running campaign.
#[derive(Debug)]
pub struct Journal {
    log: RecordFile,
}

impl Journal {
    /// Creates a fresh journal with the version/fingerprint header.
    pub fn create(path: &Path, fingerprint: u64) -> std::io::Result<Journal> {
        let log = RecordFile::create(path, "journal", fingerprint)?;
        Ok(Journal { log })
    }

    /// Reopens an existing journal for appending, validating the header
    /// against the campaign fingerprint and truncating a torn final line.
    pub fn open_append(path: &Path, fingerprint: u64) -> Result<Journal, String> {
        let log = RecordFile::open_append(path, "journal", fingerprint)?;
        Ok(Journal { log })
    }

    /// Appends one completed job: the checkpoint boundary a kill can
    /// land on.
    pub fn append_done(&mut self, id: JobId, result: &JobResult) -> std::io::Result<()> {
        self.log
            .append(&format!("done {id} {}", to_hex(&result.encode())))
    }
}

/// Reads a journal: validates the header against `fingerprint` and
/// returns the completed results by job id. A torn final line (the kill
/// landed mid-append) is dropped; any other malformation is an error.
pub fn read_journal(path: &Path, fingerprint: u64) -> Result<BTreeMap<JobId, JobResult>, String> {
    let mut done = BTreeMap::new();
    read_records(path, "journal", fingerprint, |_, line| {
        let fields: Vec<&str> = line.split(' ').collect();
        let [tag, id, hex] = fields.as_slice() else {
            return Err(format!("malformed journal line {line:?}"));
        };
        if *tag != "done" {
            return Err(format!("unknown journal record {tag:?}"));
        }
        let id: JobId = id.parse().map_err(|_| format!("bad job id {id:?}"))?;
        let payload = from_hex(hex).map_err(|e| e.to_string())?;
        let result = JobResult::decode(&payload).map_err(|e| e.to_string())?;
        if done.insert(id, result).is_some() {
            return Err(format!("job {line:?} journaled twice"));
        }
        Ok(())
    })?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("symsc_campaign_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn result(n: u64) -> JobResult {
        JobResult::Confirm {
            findings: n,
            confirmed_trace: n,
            confirmed_replay: n,
        }
    }

    #[test]
    fn journal_round_trips_and_pins_the_fingerprint() {
        let path = tmp("roundtrip.log");
        let mut journal = Journal::create(&path, 0xFEED).unwrap();
        journal.append_done(3, &result(1)).unwrap();
        journal.append_done(0, &result(2)).unwrap();
        let done = read_journal(&path, 0xFEED).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&3], result(1));
        assert_eq!(done[&0], result(2));
        assert!(read_journal(&path, 0xBEEF)
            .unwrap_err()
            .contains("different campaign"));
    }

    #[test]
    fn a_torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let path = tmp("torn.log");
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.append_done(0, &result(1)).unwrap();
        // Simulate a kill mid-append: a truncated last line, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("done 1 abc");
        std::fs::write(&path, &text).unwrap();
        let done = read_journal(&path, 1).unwrap();
        assert_eq!(done.len(), 1);
        // The same garbage in the interior (newline-terminated) is fatal.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push('\n');
        text.push_str(&format!("done 2 {}\n", to_hex(&result(9).encode())));
        std::fs::write(&path, &text).unwrap();
        assert!(read_journal(&path, 1).is_err());
    }

    #[test]
    fn duplicate_done_records_are_rejected() {
        let path = tmp("dup.log");
        let mut journal = Journal::create(&path, 2).unwrap();
        journal.append_done(5, &result(1)).unwrap();
        journal.append_done(5, &result(1)).unwrap();
        assert!(read_journal(&path, 2).unwrap_err().contains("twice"));
    }
}
