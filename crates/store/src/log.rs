//! The append-only write-ahead log.
//!
//! One file (`wal.bin`), one fixed header, then records back to back:
//!
//! ```text
//!   header:  "FAUSTWAL" | version: u32 | n: u32 | base_seq: u64      (24 B)
//!   record:  len: u32 | sha256(payload): 32 B | payload              (36 B + len)
//!   payload: seq: u64 | LogRecord wire encoding
//! ```
//!
//! All integers are big-endian, matching `faust_types::wire`. `base_seq`
//! is the sequence number of the file's first record; sequence numbers
//! are global (they survive log rotation), strictly consecutive, and
//! stored *inside* the checksummed payload — so a duplicated tail record
//! repeats a sequence number ([`StoreError::DuplicateRecord`]) and a
//! spliced-out middle leaves a gap ([`StoreError::SequenceGap`]), both of
//! which scanning detects even though every individual record checksums
//! cleanly.
//!
//! Appends are a single `write_all` of the fully assembled record, then
//! optionally `fsync` ([`Durability::Always`](crate::Durability)) —
//! the caller acknowledges the client only after the append returns.
//!
//! Scanning ([`Wal::scan`]) is strict: any anomaly is a structured
//! [`StoreError`], including a torn final record. A torn tail after a
//! real crash is *expected* (the half-written record was never
//! acknowledged), but silently dropping it is exactly the habit a
//! fail-aware store must not have — the operator decides, explicitly,
//! with [`truncate_tail_records`]; an honest operator drops the torn
//! bytes only, a malicious one uses the same tool to roll history back —
//! and learns from `docs/persistence.md` why clients catch the latter.

use crate::codec::LogRecord;
use crate::StoreError;
use faust_crypto::sha256::sha256;
use faust_types::{Wire, WireError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic string opening every log file.
pub const WAL_MAGIC: &[u8; 8] = b"FAUSTWAL";
/// Current log format version.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes: magic + version + n + base_seq.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Per-record overhead in bytes: length prefix + SHA-256 digest.
pub const RECORD_OVERHEAD: usize = 4 + 32;
/// Upper bound on one record's payload; anything larger is corruption.
pub const MAX_RECORD_LEN: u64 = 1 << 26;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.bin";

/// A parsed log header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Client count the state is for.
    pub n: usize,
    /// Sequence number of the file's first record.
    pub base_seq: u64,
}

impl WalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WAL_HEADER_LEN);
        out.extend_from_slice(WAL_MAGIC);
        (WAL_VERSION).encode_into(&mut out);
        (self.n as u32).encode_into(&mut out);
        self.base_seq.encode_into(&mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < WAL_HEADER_LEN {
            return Err(StoreError::TruncatedHeader { file: "wal" });
        }
        if &bytes[..8] != WAL_MAGIC {
            return Err(StoreError::BadMagic { file: "wal" });
        }
        let mut rest = &bytes[8..WAL_HEADER_LEN];
        let version = u32::decode_from(&mut rest).expect("sized above");
        if version != WAL_VERSION {
            return Err(StoreError::UnsupportedVersion {
                file: "wal",
                version,
            });
        }
        let n = u32::decode_from(&mut rest).expect("sized above") as usize;
        let base_seq = u64::decode_from(&mut rest).expect("sized above");
        Ok(WalHeader { n, base_seq })
    }
}

/// One record recovered by a scan, with its byte span in the file.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// Global sequence number.
    pub seq: u64,
    /// The decoded record.
    pub record: LogRecord,
    /// Byte range of the whole record (length prefix included) within
    /// the log file.
    pub span: Range<usize>,
}

/// Result of a strict full-file scan.
#[derive(Debug)]
pub struct WalContents {
    /// The parsed header.
    pub header: WalHeader,
    /// Every record, in sequence order.
    pub records: Vec<ScannedRecord>,
}

impl WalContents {
    /// Sequence number the next appended record would carry.
    pub fn next_seq(&self) -> u64 {
        self.header.base_seq + self.records.len() as u64
    }
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    header: WalHeader,
    next_seq: u64,
    records: u64,
    /// The record being appended, reused across appends.
    scratch: Vec<u8>,
}

impl Wal {
    /// Creates a fresh log at `dir/wal.bin` (truncating any previous
    /// file) with the given header, via a temp file + atomic rename so a
    /// crash mid-create never leaves a half-written header.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn create(dir: &Path, n: usize, base_seq: u64, sync: bool) -> Result<Self, StoreError> {
        let path = dir.join(WAL_FILE);
        let tmp = dir.join("wal.tmp");
        let header = WalHeader { n, base_seq };
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&header.encode())?;
        if sync {
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        if sync {
            sync_dir(dir)?;
        }
        Ok(Wal {
            file,
            path,
            header,
            next_seq: base_seq,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Opens the existing log in `dir` for appending, after a strict
    /// scan; returns the log positioned at its end plus the scanned
    /// contents for replay.
    ///
    /// # Errors
    ///
    /// Any scan anomaly (see [`Wal::scan`]) or file-system error.
    pub fn open(dir: &Path) -> Result<(Self, WalContents), StoreError> {
        let path = dir.join(WAL_FILE);
        let contents = Self::scan(&path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        let next_seq = contents.next_seq();
        Ok((
            Wal {
                file,
                path,
                header: contents.header,
                next_seq,
                records: contents.records.len() as u64,
                scratch: Vec::new(),
            },
            contents,
        ))
    }

    /// Strictly parses the whole file at `path`: header, then every
    /// record. Never panics; any anomaly is a structured [`StoreError`]
    /// naming the first offending record.
    ///
    /// # Errors
    ///
    /// See [`StoreError`] — torn tails, checksum mismatches, undecodable
    /// payloads, duplicate or gapped sequence numbers, implausible
    /// lengths, header problems.
    pub fn scan(path: &Path) -> Result<WalContents, StoreError> {
        match Self::scan_prefix(path)? {
            (_, Some(anomaly)) => Err(anomaly),
            (contents, None) => Ok(contents),
        }
    }

    /// Tolerant variant of [`Wal::scan`]: parses the longest valid
    /// prefix and returns it *together with* the anomaly that stopped
    /// the scan, if any — never absorbing the anomaly silently. This is
    /// what [`truncate_tail_records`] builds on: repairing a torn tail
    /// requires reading the log that strict recovery (rightly) refuses.
    ///
    /// # Errors
    ///
    /// I/O and header problems are still hard errors — without a valid
    /// header there is no prefix to speak of.
    pub fn scan_prefix(path: &Path) -> Result<(WalContents, Option<StoreError>), StoreError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::scan_bytes(&bytes)
    }

    /// [`Wal::scan_prefix`] over an already-read buffer, for callers
    /// that also need the raw bytes (a second read of the file would
    /// open a window for the bytes to diverge from what was validated).
    fn scan_bytes(bytes: &[u8]) -> Result<(WalContents, Option<StoreError>), StoreError> {
        let header = WalHeader::decode(bytes)?;
        let mut records = Vec::new();
        let mut pos = WAL_HEADER_LEN;
        let mut seq = header.base_seq;
        let anomaly = loop {
            match parse_record_at(bytes, pos, seq) {
                Ok(None) => break None,
                Ok(Some(rec)) => {
                    pos = rec.span.end;
                    seq = rec.seq + 1;
                    records.push(rec);
                }
                Err(e) => break Some(e),
            }
        };
        Ok((WalContents { header, records }, anomaly))
    }

    /// Appends one record and, if `sync`, makes it durable before
    /// returning. The record is assembled into a single buffer and
    /// written with one `write_all`, so a crash leaves at most one torn
    /// record at the tail.
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors; on error the caller must treat the
    /// record as *not* logged (and must not acknowledge the client).
    pub fn append(&mut self, record: &LogRecord, sync: bool) -> Result<u64, StoreError> {
        // Encode once behind room for the header, hash in place, patch it.
        let buf = &mut self.scratch;
        buf.clear();
        buf.resize(RECORD_OVERHEAD, 0);
        self.next_seq.encode_into(buf);
        record.encode_into(buf);
        let (head, payload) = buf.split_at_mut(RECORD_OVERHEAD);
        head[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        head[4..].copy_from_slice(sha256(payload).as_bytes());
        self.file.write_all(buf)?;
        if sync {
            self.file.sync_data()?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records += 1;
        Ok(seq)
    }

    /// Makes every record appended so far durable with one `fsync` —
    /// the group-commit primitive: append a whole batch with
    /// `sync = false`, then pay the disk round-trip once.
    ///
    /// # Errors
    ///
    /// Propagates the sync error; the caller must treat every record
    /// appended since the last successful sync as *not* durable (and
    /// must not acknowledge the messages behind them).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records currently in this file (since the last rotation).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The client count recorded in the header.
    pub fn n(&self) -> usize {
        self.header.n
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses the record starting at byte `pos`, expected to carry sequence
/// number `seq`. `Ok(None)` at the exact end of the buffer; every
/// anomaly is the same structured [`StoreError`] a strict scan reports.
/// This is the single place that knows the record framing — [`Wal::scan`]
/// and [`LogCursor`] both step through it.
fn parse_record_at(
    bytes: &[u8],
    pos: usize,
    seq: u64,
) -> Result<Option<ScannedRecord>, StoreError> {
    if pos >= bytes.len() {
        return Ok(None);
    }
    let avail = bytes.len() - pos;
    if avail < RECORD_OVERHEAD {
        return Err(StoreError::TornRecord {
            seq,
            missing: RECORD_OVERHEAD - avail,
        });
    }
    let mut len_bytes = &bytes[pos..pos + 4];
    let len = u32::decode_from(&mut len_bytes).expect("sized above") as u64;
    if len > MAX_RECORD_LEN {
        return Err(StoreError::ImplausibleRecordLength { seq, len });
    }
    let need = RECORD_OVERHEAD + len as usize;
    if avail < need {
        return Err(StoreError::TornRecord {
            seq,
            missing: need - avail,
        });
    }
    let digest = &bytes[pos + 4..pos + RECORD_OVERHEAD];
    let payload = &bytes[pos + RECORD_OVERHEAD..pos + need];
    if sha256(payload).as_bytes() != digest {
        return Err(StoreError::RecordChecksum { seq });
    }
    let mut input = payload;
    let found_seq =
        u64::decode_from(&mut input).map_err(|error| StoreError::RecordCorrupt { seq, error })?;
    if found_seq < seq {
        return Err(StoreError::DuplicateRecord {
            expected: seq,
            found: found_seq,
        });
    }
    if found_seq > seq {
        return Err(StoreError::SequenceGap {
            expected: seq,
            found: found_seq,
        });
    }
    let record = LogRecord::decode_from(&mut input)
        .map_err(|error| StoreError::RecordCorrupt { seq, error })?;
    if !input.is_empty() {
        return Err(StoreError::RecordCorrupt {
            seq,
            error: WireError::TrailingBytes(input.len()),
        });
    }
    Ok(Some(ScannedRecord {
        seq,
        record,
        span: pos..pos + need,
    }))
}

/// A public, read-only, streaming iterator over a store directory's WAL —
/// the export cursor behind `faust-audit`'s history exporter.
///
/// Until now record iteration was recovery-internal ([`Wal::open`] hands
/// the scanned contents straight to replay); the cursor exposes the same
/// strictly validated sequence without opening the log for appending, so
/// auditors and exporters can walk a *live* server's log. Records are
/// parsed lazily from one snapshot read of the file; the first anomaly is
/// yielded as an `Err` item (naming the offending record, exactly as
/// strict recovery would) and ends the iteration.
#[derive(Debug)]
pub struct LogCursor {
    bytes: Vec<u8>,
    header: WalHeader,
    pos: usize,
    next_seq: u64,
    finished: bool,
}

impl LogCursor {
    /// Opens the WAL inside store directory `dir`.
    ///
    /// # Errors
    ///
    /// I/O and header problems; record anomalies surface during
    /// iteration instead.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_file(&dir.join(WAL_FILE))
    }

    /// Opens the WAL file at `path` directly.
    ///
    /// # Errors
    ///
    /// I/O and header problems; record anomalies surface during
    /// iteration instead.
    pub fn open_file(path: &Path) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let header = WalHeader::decode(&bytes)?;
        Ok(LogCursor {
            pos: WAL_HEADER_LEN,
            next_seq: header.base_seq,
            header,
            bytes,
            finished: false,
        })
    }

    /// The parsed WAL header.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Sequence number the next yielded record must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl Iterator for LogCursor {
    type Item = Result<ScannedRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        match parse_record_at(&self.bytes, self.pos, self.next_seq) {
            Ok(None) => {
                self.finished = true;
                None
            }
            Ok(Some(rec)) => {
                self.pos = rec.span.end;
                self.next_seq = rec.seq + 1;
                Some(Ok(rec))
            }
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

/// Fsyncs a directory so a just-renamed file inside it survives a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Byte spans of every valid record in `dir`'s log, in order — the
/// corruption tests and [`truncate_tail_records`] use these to address
/// records without duplicating format knowledge.
///
/// # Errors
///
/// Propagates scan anomalies (the log must currently be valid).
pub fn wal_record_spans(dir: &Path) -> Result<Vec<Range<usize>>, StoreError> {
    Ok(Wal::scan(&dir.join(WAL_FILE))?
        .records
        .into_iter()
        .map(|r| r.span)
        .collect())
}

/// Removes the last `k` records from `dir`'s log — **the rollback
/// attack**, packaged for tests and attack demonstrations.
///
/// The rewritten log is locally flawless: header intact, every remaining
/// record checksummed and consecutively numbered. No local scan can tell
/// it from a log that never contained the suffix — which is precisely
/// why FAUST clients, whose version vectors remember the acknowledged
/// operations, are the only party that can (and do) detect the rollback.
/// An honest operator has one legitimate use: dropping a *torn* tail
/// after a crash, where the half-written record was never acknowledged.
///
/// The log is read with the tolerant [`Wal::scan_prefix`], so this tool
/// works on exactly the logs strict recovery refuses: `k` counts *valid*
/// records to drop, and any anomalous trailing bytes (the torn record)
/// are discarded along with them — `truncate_tail_records(dir, 0)`
/// repairs a torn tail without touching a single acknowledged record.
///
/// Returns the number of records remaining.
///
/// # Errors
///
/// Propagates header/file-system errors. Asking to remove more records
/// than exist truncates to zero records.
pub fn truncate_tail_records(dir: &Path, k: usize) -> Result<usize, StoreError> {
    let path = dir.join(WAL_FILE);
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    // Scan the same buffer we slice below — one read, no divergence.
    let (contents, _anomaly) = Wal::scan_bytes(&bytes)?;
    let keep = contents.records.len().saturating_sub(k);
    // End of the kept prefix: the first dropped record's start, or — when
    // nothing valid is dropped — the end of the last valid record, which
    // also discards any anomalous tail bytes beyond it.
    let valid_end = contents
        .records
        .last()
        .map_or(WAL_HEADER_LEN, |r| r.span.end);
    let end = contents
        .records
        .get(keep)
        .map_or(valid_end, |r| r.span.start);
    let tmp = dir.join("wal.tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&bytes[..end])?;
    file.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use faust_crypto::sig::KeySet;
    use faust_types::{ClientId, Value};
    use faust_ustor::UstorClient;

    fn record(i: u32, round: u64) -> LogRecord {
        let keys = KeySet::generate(4, b"wal-tests");
        let mut client = UstorClient::new(
            ClientId::new(i),
            4,
            keys.keypair(i).unwrap().clone(),
            keys.registry(),
        );
        LogRecord::Submit {
            from: ClientId::new(i),
            msg: client.begin_write(Value::unique(i, round)).unwrap(),
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = scratch_dir("wal-roundtrip");
        let mut wal = Wal::create(&dir, 4, 0, false).unwrap();
        for i in 0..3u32 {
            let seq = wal.append(&record(i, 0), false).unwrap();
            assert_eq!(seq, i as u64);
        }
        assert_eq!(wal.next_seq(), 3);
        drop(wal);

        let (wal, contents) = Wal::open(&dir).unwrap();
        assert_eq!(wal.n(), 4);
        assert_eq!(contents.header.base_seq, 0);
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.next_seq(), 3);
        for (i, rec) in contents.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.record.from(), ClientId::new(i as u32));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_wal_appends_with_continuing_seqs() {
        let dir = scratch_dir("wal-reopen");
        let mut wal = Wal::create(&dir, 2, 0, false).unwrap();
        wal.append(&record(0, 0), false).unwrap();
        drop(wal);
        let (mut wal, _) = Wal::open(&dir).unwrap();
        assert_eq!(wal.append(&record(1, 0), false).unwrap(), 1);
        let contents = Wal::scan(wal.path()).unwrap();
        assert_eq!(contents.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotated_wal_carries_base_seq() {
        let dir = scratch_dir("wal-rotate");
        let mut wal = Wal::create(&dir, 2, 17, false).unwrap();
        assert_eq!(wal.append(&record(0, 0), false).unwrap(), 17);
        let contents = Wal::scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(contents.header.base_seq, 17);
        assert_eq!(contents.records[0].seq, 17);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_tail_keeps_a_locally_valid_prefix() {
        let dir = scratch_dir("wal-truncate");
        let mut wal = Wal::create(&dir, 4, 0, false).unwrap();
        for i in 0..4u32 {
            wal.append(&record(i, 1), false).unwrap();
        }
        drop(wal);
        assert_eq!(truncate_tail_records(&dir, 2).unwrap(), 2);
        // The rolled-back log scans cleanly — locally undetectable.
        let contents = Wal::scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.next_seq(), 2);
        // Over-truncation clamps to empty.
        assert_eq!(truncate_tail_records(&dir, 99).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cursor_observes_exactly_the_recovered_sequence_across_snapshots() {
        use crate::server::{PersistentServer, StoreConfig};
        use crate::testutil::{clients, run_op};
        use crate::Durability;
        let dir = scratch_dir("wal-cursor-snap");
        let config = StoreConfig {
            durability: Durability::Never,
            snapshot_every: 4,
        };
        let mut server = PersistentServer::open(&dir, 2, config).unwrap();
        let mut cs = clients(2, b"wal-cursor-snap");
        for round in 0..5u64 {
            let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
            run_op(&mut server, &mut cs[0], submit);
        }
        drop(server);

        // The log was rotated at least once (snapshot taken), so the
        // cursor starts mid-sequence — exactly where recovery does.
        let recovered = Wal::scan(&dir.join(WAL_FILE)).unwrap();
        assert!(recovered.header.base_seq > 0, "rotation happened");

        let cursor = LogCursor::open(&dir).unwrap();
        assert_eq!(cursor.header(), recovered.header);
        let seen: Vec<(u64, Vec<u8>)> = cursor
            .map(|r| r.map(|rec| (rec.seq, rec.record.encode())))
            .collect::<Result<_, _>>()
            .unwrap();
        let expected: Vec<(u64, Vec<u8>)> = recovered
            .records
            .iter()
            .map(|rec| (rec.seq, rec.record.encode()))
            .collect();
        assert_eq!(seen, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cursor_surfaces_anomalies_and_stops() {
        let dir = scratch_dir("wal-cursor-torn");
        let mut wal = Wal::create(&dir, 4, 0, false).unwrap();
        for i in 0..3u32 {
            wal.append(&record(i, 0), false).unwrap();
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let good = std::fs::read(&path).unwrap();
        // Tear the last record.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();

        let mut cursor = LogCursor::open(&dir).unwrap();
        assert_eq!(cursor.next().unwrap().unwrap().seq, 0);
        assert_eq!(cursor.next().unwrap().unwrap().seq, 1);
        assert!(matches!(
            cursor.next().unwrap().unwrap_err(),
            StoreError::TornRecord { seq: 2, .. }
        ));
        assert!(cursor.next().is_none(), "iteration ends after an anomaly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_reports_missing_file_as_io() {
        let dir = scratch_dir("wal-missing");
        let err = Wal::scan(&dir.join(WAL_FILE)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_anomalies_are_structured() {
        let dir = scratch_dir("wal-header");
        Wal::create(&dir, 2, 0, false).unwrap();
        let path = dir.join(WAL_FILE);
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Wal::scan(&path).unwrap_err(),
            StoreError::BadMagic { file: "wal" }
        ));

        // Unsupported version.
        let mut bad = good.clone();
        bad[11] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Wal::scan(&path).unwrap_err(),
            StoreError::UnsupportedVersion { version: 99, .. }
        ));

        // Truncated header.
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            Wal::scan(&path).unwrap_err(),
            StoreError::TruncatedHeader { file: "wal" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
