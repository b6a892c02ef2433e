//! The persistent campaign store: an append-only, versioned log of
//! corpus entries, counterexamples and coverage records.
//!
//! One line per record, written as jobs complete and fsync-free (a plain
//! `write(2)` per line — a killed process loses at most the line being
//! written, never corrupts earlier ones: the torn line is dropped on read
//! and truncated before the next append). Byte inputs are stored in the
//! replay serialization format — the canonical `symsc_fuzz::Program`
//! byte encoding, hex-armored — so every `seed`/`corpus`/`cex` record
//! replays directly through `Explorer::replay`/`trace`.
//!
//! Appends are *at-least-once*: a record is written before the journal
//! marks its job done, so a kill between the two replays the job on
//! resume and appends its records again. The reader deduplicates, which
//! makes the store's *content* (not its line order or multiplicity) a
//! pure function of the spec.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::job::WireFinding;
use crate::wire::{from_hex, read_records, to_hex, Dec, Enc, RecordFile};

/// An open store being appended to by a running campaign.
#[derive(Debug)]
pub struct Store {
    log: RecordFile,
}

/// The deduplicated contents of a store file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreContents {
    /// Probe seeds exchanged into fuzz lanes, per mutant.
    pub seeds: BTreeMap<String, BTreeSet<Vec<u8>>>,
    /// Corpus entries admitted by fuzz lanes, per lane name.
    pub corpus: BTreeMap<String, BTreeSet<Vec<u8>>>,
    /// Counterexamples (findings), per mutant.
    pub counterexamples: BTreeMap<String, BTreeSet<(u8, String, Vec<u8>)>>,
    /// Coverage points reached, per lane name (max wins on duplicates).
    pub coverage: BTreeMap<String, u64>,
}

impl Store {
    /// Creates a fresh store (truncating any previous file) with the
    /// version/fingerprint header.
    pub fn create(path: &Path, fingerprint: u64) -> std::io::Result<Store> {
        let log = RecordFile::create(path, "store", fingerprint)?;
        Ok(Store { log })
    }

    /// Reopens an existing store for appending, validating the header
    /// against the campaign fingerprint and truncating a torn final line.
    pub fn open_append(path: &Path, fingerprint: u64) -> Result<Store, String> {
        let log = RecordFile::open_append(path, "store", fingerprint)?;
        Ok(Store { log })
    }

    /// Appends one exchanged probe seed for `mutant`.
    pub fn append_seed(&mut self, mutant: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.log.append(&format!("seed {mutant} {}", to_hex(bytes)))
    }

    /// Appends one admitted corpus entry for lane `name`.
    pub fn append_corpus(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.log.append(&format!("corpus {name} {}", to_hex(bytes)))
    }

    /// Appends one counterexample for `mutant`.
    pub fn append_counterexample(
        &mut self,
        mutant: &str,
        finding: &WireFinding,
    ) -> std::io::Result<()> {
        let mut e = Enc::new();
        e.str(&finding.message);
        e.bytes(&finding.input);
        self.log.append(&format!(
            "cex {mutant} {} {}",
            crate::job::kind_to_u8(finding.kind),
            to_hex(&e.finish())
        ))
    }

    /// Appends the coverage-point count of lane `name`.
    pub fn append_coverage(&mut self, name: &str, points: u64) -> std::io::Result<()> {
        self.log.append(&format!("coverage {name} {points}"))
    }
}

/// Reads and deduplicates a store file, validating its header. A torn
/// final line (the kill landed mid-append) is dropped.
pub fn read_store(path: &Path, fingerprint: u64) -> Result<StoreContents, String> {
    let mut contents = StoreContents::default();
    read_records(path, "store", fingerprint, |no, line| {
        let fields: Vec<&str> = line.split(' ').collect();
        let fail = |why: &str| format!("store line {no}: {why}: {line:?}");
        match fields.as_slice() {
            ["seed", mutant, hex] => {
                let bytes = from_hex(hex).map_err(|e| fail(&e.to_string()))?;
                contents
                    .seeds
                    .entry(mutant.to_string())
                    .or_default()
                    .insert(bytes);
            }
            ["corpus", name, hex] => {
                let bytes = from_hex(hex).map_err(|e| fail(&e.to_string()))?;
                contents
                    .corpus
                    .entry(name.to_string())
                    .or_default()
                    .insert(bytes);
            }
            ["cex", mutant, kind, hex] => {
                let kind: u8 = kind.parse().map_err(|_| fail("bad kind tag"))?;
                let payload = from_hex(hex).map_err(|e| fail(&e.to_string()))?;
                let mut d = Dec::new(&payload);
                let message = d.str().map_err(|e| fail(&e.to_string()))?;
                let input = d.bytes().map_err(|e| fail(&e.to_string()))?;
                d.done().map_err(|e| fail(&e.to_string()))?;
                contents
                    .counterexamples
                    .entry(mutant.to_string())
                    .or_default()
                    .insert((kind, message, input));
            }
            ["coverage", name, points] => {
                let points: u64 = points.parse().map_err(|_| fail("bad point count"))?;
                let slot = contents.coverage.entry(name.to_string()).or_default();
                *slot = (*slot).max(points);
            }
            _ => return Err(fail("unknown record")),
        }
        Ok(())
    })?;
    Ok(contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_symex::ErrorKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("symsc_campaign_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_read_round_trips_with_dedup() {
        let path = tmp("roundtrip.log");
        let mut store = Store::create(&path, 0xABCD).unwrap();
        store.append_seed("if1", &[1, 2, 3]).unwrap();
        store.append_seed("if1", &[1, 2, 3]).unwrap(); // at-least-once
        store.append_corpus("fuzz/baseline", &[9; 6]).unwrap();
        store
            .append_counterexample(
                "if1",
                &WireFinding {
                    kind: ErrorKind::OutOfBounds,
                    message: "id 17 with spaces \"and quotes\"".to_string(),
                    input: vec![4, 17, 0, 0, 0, 0],
                },
            )
            .unwrap();
        store.append_coverage("fuzz/if1", 61).unwrap();
        store.append_coverage("fuzz/if1", 61).unwrap();

        let contents = read_store(&path, 0xABCD).unwrap();
        assert_eq!(contents.seeds["if1"].len(), 1);
        assert_eq!(contents.corpus["fuzz/baseline"].len(), 1);
        let cex = contents.counterexamples["if1"].iter().next().unwrap();
        assert_eq!(cex.1, "id 17 with spaces \"and quotes\"");
        assert_eq!(cex.2, vec![4, 17, 0, 0, 0, 0]);
        assert_eq!(contents.coverage["fuzz/if1"], 61);
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let path = tmp("header.log");
        Store::create(&path, 0x1111).unwrap();
        assert!(read_store(&path, 0x2222).is_err());
        assert!(Store::open_append(&path, 0x2222).is_err());
        assert!(Store::open_append(&path, 0x1111).is_ok());
        std::fs::write(&path, "symsc-campaign-store v99 fp=0\n").unwrap();
        assert!(read_store(&path, 0).unwrap_err().contains("v99"));
        std::fs::write(&path, "something else\n").unwrap();
        assert!(read_store(&path, 0).is_err());
    }

    #[test]
    fn malformed_records_fail_loudly() {
        let path = tmp("malformed.log");
        let mut store = Store::create(&path, 7).unwrap();
        store.append_seed("m", &[1]).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("seed m zz\n");
        std::fs::write(&path, text).unwrap();
        assert!(read_store(&path, 7).unwrap_err().contains("hex"));
    }
}
