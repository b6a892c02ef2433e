//! The journal/store wire codec: a tiny, dependency-free binary format
//! with a hex text armor.
//!
//! Journal and store records must round-trip *exactly* — resume replays
//! serialized job results in place of re-execution, and the
//! byte-identical-report guarantee rests on the decoded result being
//! indistinguishable from a fresh one. The codec is therefore
//! deliberately dumb: length-prefixed fields, little-endian integers, no
//! optional anything. Records travel inside line-oriented files as
//! lowercase hex, so a journal stays greppable and diff-able while the
//! payload stays byte-exact.
//!
//! Both files are [`RecordFile`]s: a header line pinning the format
//! version and the campaign fingerprint, then one record per
//! newline-terminated line.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// Record-file format version (major; readers reject anything else).
const VERSION: &str = "v1";

/// A decode failure (truncated or malformed payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// An append-only byte sink with the encoding primitives.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// One raw byte (tags, booleans).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A 64-bit integer, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over an encoded payload with the decoding primitives.
#[derive(Clone, Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated at byte {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A 64-bit little-endian integer.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError("invalid UTF-8".to_string()))
    }

    /// Fails unless the whole payload was consumed.
    pub fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Hex-armors a payload (lowercase, two digits per byte).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a hex armor produced by [`to_hex`].
pub fn from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    let t = text.as_bytes();
    if !t.len().is_multiple_of(2) {
        return Err(WireError("odd-length hex string".to_string()));
    }
    let nibble = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(WireError(format!("invalid hex digit '{}'", c as char))),
        }
    };
    t.chunks_exact(2)
        .map(|p| Ok(nibble(p[0])? << 4 | nibble(p[1])?))
        .collect()
}

/// An append-only line-record file opened for appending: the journal or
/// the store (`what` names which, in its header and in errors).
///
/// A kill can land mid-append, so an unterminated final line is a torn
/// record: [`read_records`] drops it, and [`RecordFile::open_append`]
/// truncates it before appending, or the next record would fuse with the
/// torn bytes into one malformed interior line.
#[derive(Debug)]
pub struct RecordFile {
    file: File,
}

impl RecordFile {
    /// Creates a fresh file (truncating any previous one) holding only the
    /// version/fingerprint header.
    pub fn create(path: &Path, what: &str, fingerprint: u64) -> std::io::Result<RecordFile> {
        let mut file = File::create(path)?;
        let header = format!("symsc-campaign-{what} {VERSION} fp={fingerprint:016x}\n");
        file.write_all(header.as_bytes())?;
        Ok(RecordFile { file })
    }

    /// Reopens an existing file for appending: checks its header and
    /// truncates a torn final record.
    pub fn open_append(path: &Path, what: &str, fingerprint: u64) -> Result<RecordFile, String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(fail)?;
        complete_records(&text, what, fingerprint)?;
        let file = OpenOptions::new().append(true).open(path).map_err(fail)?;
        let intact = text.rfind('\n').map_or(0, |end| end + 1);
        file.set_len(intact as u64).map_err(fail)?;
        Ok(RecordFile { file })
    }

    /// Appends one record. The record and its newline go out in one
    /// `write(2)`, the boundary a kill can land on.
    pub fn append(&mut self, record: &str) -> std::io::Result<()> {
        self.file.write_all(format!("{record}\n").as_bytes())
    }
}

/// Reads the record file at `path`: checks its header, then hands each
/// complete record to `visit` with its 1-based line number. A torn final
/// record is dropped; `visit` rejects any other malformation.
pub fn read_records(
    path: &Path,
    what: &str,
    fingerprint: u64,
    mut visit: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = complete_records(&text, what, fingerprint)?;
    for (no, line) in records.lines().enumerate() {
        if !line.is_empty() {
            visit(no + 2, line)?;
        }
    }
    Ok(())
}

/// Checks the header line of a record file's text and returns its
/// newline-terminated records.
fn complete_records<'t>(text: &'t str, what: &str, fingerprint: u64) -> Result<&'t str, String> {
    let Some((header, records)) = text.split_once('\n') else {
        return Err(format!("{what} file has no complete header line"));
    };
    let mut parts = header.split(' ');
    if parts.next() != Some(format!("symsc-campaign-{what}").as_str()) {
        return Err(format!("not a campaign {what}: header {header:?}"));
    }
    let version = parts.next().unwrap_or_default();
    if version != VERSION {
        return Err(format!(
            "{what} version {version:?} is not supported (want {VERSION})"
        ));
    }
    let expected = format!("fp={fingerprint:016x}");
    let fp = parts.next().unwrap_or_default();
    if fp != expected {
        return Err(format!(
            "{what} belongs to a different campaign ({fp}, want {expected})"
        ));
    }
    Ok(&records[..records.rfind('\n').map_or(0, |end| end + 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.u8(7);
        e.u64(0xDEAD_BEEF_0042);
        e.bytes(&[0, 255, 1]);
        e.str("hello \"quoted\" \n line");
        let payload = e.finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), 0xDEAD_BEEF_0042);
        assert_eq!(d.bytes().unwrap(), vec![0, 255, 1]);
        assert_eq!(d.str().unwrap(), "hello \"quoted\" \n line");
        d.done().unwrap();
    }

    #[test]
    fn hex_armor_round_trips_and_rejects_garbage() {
        let payload = vec![0u8, 1, 0xAB, 0xFF];
        let hex = to_hex(&payload);
        assert_eq!(hex, "0001abff");
        assert_eq!(from_hex(&hex).unwrap(), payload);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn a_torn_record_is_dropped_and_truncated_before_the_next_append() {
        let dir = std::env::temp_dir().join("symsc_campaign_wire_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.log");
        RecordFile::create(&path, "store", 5)
            .unwrap()
            .append("a 1")
            .unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("b 2");
        std::fs::write(&path, &text).unwrap();
        let read = |path: &Path| {
            let mut lines = Vec::new();
            read_records(path, "store", 5, |no, line| {
                lines.push(format!("{no}:{line}"));
                Ok(())
            })
            .map(|()| lines)
        };
        assert_eq!(read(&path).unwrap(), ["2:a 1"]);
        RecordFile::open_append(&path, "store", 5)
            .unwrap()
            .append("c 3")
            .unwrap();
        assert_eq!(read(&path).unwrap(), ["2:a 1", "3:c 3"]);
        assert!(read_records(&path, "journal", 5, |_, _| Ok(())).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(RecordFile::open_append(&path, "store", 5).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_loud() {
        let mut e = Enc::new();
        e.bytes(&[1, 2, 3]);
        let mut payload = e.finish();
        let mut d = Dec::new(&payload[..5]);
        assert!(d.bytes().is_err());
        payload.push(9);
        let mut d = Dec::new(&payload);
        d.bytes().unwrap();
        assert!(d.done().is_err());
    }
}
