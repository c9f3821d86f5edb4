//! The append-only write-ahead log.
//!
//! One file (`wal.bin`), one fixed header, then records back to back:
//!
//! ```text
//!   header:  "FAUSTWAL" | version: u32 | n: u32 | base_seq: u64      (24 B)
//!   record:  len: u32 | xxh64(payload): u64 | payload                (12 B + len)
//!   payload: seq: u64 | body
//!   body:    LogRecord wire encoding                     (tag 0 SUBMIT, tag 1 COMMIT)
//!          | 3 | from: u32 | CommitDelta                   (a COMMIT as a delta)
//!          | 4 | from: u32 | SUBMIT head | CommitDelta     (a piggybacked one as a delta)
//! ```
//!
//! That is format version 5, the only one written into new files. Every
//! COMMIT, standalone or piggybacked on a SUBMIT, is stored as the wire's
//! [`CommitDelta`], written and read by its own code: the entries `k`, in
//! increasing order, where its version differs from the last COMMIT
//! version earlier in the same file, shared with that record, not
//! copied. A SUBMIT carrying one (tag 4) is the SUBMIT's fields up to its
//! piggyback option ([`SubmitMsg::encode_head_into`]), then the delta.
//! In lockstep nothing commits between a client's REPLY and its COMMIT,
//! so that is one entry where the full version has `n`. The full form
//! (tag 1, or tag 0 with the piggyback in full) is written instead when
//! the file holds no COMMIT yet, when either version's arity is not the
//! header's `n`, or when the delta would not be smaller. The base never
//! crosses a file boundary, so a rotated file, and any prefix of a file,
//! decodes on its own; a scan resolves every delta into an ordinary
//! [`LogRecord`], so nothing above this module ever sees one.
//!
//! Version 4 is version 5 with the deltas' entries in
//! [`EntryLayout::Fixed`] where version 5 has [`EntryLayout::Compact`]
//! (49 bytes a one-entry delta where version 5 has 45), and version 3 is
//! version 4 without tag 4: its piggybacked COMMITs stay in full.
//! Versions 1 and 2 hold only tags 0 and 1. Versions 2 to 4 use version
//! 5's framing; version 1 frames its records `len: u32 |
//! sha256(payload): 32 B | payload` (36 B + len). All still scan through
//! the one entry reader, and a log opened in an older version keeps
//! appending in it until the next rotation replaces the file — in full
//! records only, since only the current layout is ever written. The
//! header's version picks the
//! [`Framing`] and nothing else does. The checksum guards against what
//! the disk did — torn writes, bit rot — not against the operator, whom
//! no local check can stop (see [`truncate_tail_records`]);
//! `crate::checksum` has the argument.
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
//! Every reader — recovery, [`Wal::open`], [`LogCursor`] and
//! [`truncate_tail_records`] — walks the file once, front to back,
//! through one buffered [`RecordReader`], so its
//! memory is the largest record, never the file. Reading is strict: any
//! anomaly is a structured [`StoreError`], including a torn final
//! record. A torn tail after a real crash is *expected* (the
//! half-written record was never acknowledged), but silently dropping it
//! is exactly the habit a fail-aware store must not have — the operator
//! decides, explicitly, with [`truncate_tail_records`]; an honest
//! operator drops the torn bytes only, a malicious one uses the same tool
//! to roll history back — and learns from `docs/persistence.md` why
//! clients catch the latter.

use crate::checksum::Checksum;
use crate::codec::LogRecord;
use crate::file::replace;
use crate::StoreError;
use faust_types::{ClientId, CommitDelta, EntryLayout, SubmitMsg, Version, Wire, WireError};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic string opening every log file.
pub const WAL_MAGIC: &[u8; 8] = b"FAUSTWAL";
/// Current log format version — what every newly created file carries.
pub const WAL_VERSION: u32 = Framing::CURRENT.version();
/// Header size in bytes: magic + version + n + base_seq.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Per-record overhead in bytes of the current format: length prefix +
/// XXH64 checksum. A file in an older version has its own —
/// [`Framing::overhead`] of its header's framing.
pub const RECORD_OVERHEAD: usize = Framing::CURRENT.overhead();
/// Upper bound on one record's payload; anything larger is corruption.
pub const MAX_RECORD_LEN: u64 = 1 << 26;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.bin";

/// How one log format version frames its records — the single place a
/// version number turns into a per-record overhead, a checksum, and
/// which COMMITs may be stored as deltas. Appending, scanning,
/// [`LogCursor`] and [`truncate_tail_records`] all get theirs from the
/// file's [`WalHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// `len: u32 | sha256(payload): 32 B | payload` — read, and appended
    /// to when such a file is reopened, never created.
    V1,
    /// `len: u32 | xxh64(payload): u64 | payload`, full records only —
    /// read, and appended to when such a file is reopened, never created.
    V2,
    /// Version 2's framing, and a standalone COMMIT may be a delta
    /// against the file's previous COMMIT version (tag 3) — read, and
    /// appended to when such a file is reopened, never created.
    V3,
    /// Version 3, and a piggybacked COMMIT may be a delta too (tag 4):
    /// every COMMIT is stored against the one before it — read, and
    /// appended to when such a file is reopened, never created.
    V4,
    /// Version 4 with the deltas' entries in
    /// [`EntryLayout::Compact`](faust_types::EntryLayout) where versions
    /// 3 and 4 have [`EntryLayout::Fixed`](faust_types::EntryLayout): the
    /// only version whose files take deltas (module docs).
    V5,
}

impl Framing {
    /// The framing of every newly created file.
    pub const CURRENT: Framing = Framing::V5;

    /// The format version a file header carries for this framing.
    pub const fn version(self) -> u32 {
        match self {
            Framing::V1 => 1,
            Framing::V2 => 2,
            Framing::V3 => 3,
            Framing::V4 => 4,
            Framing::V5 => 5,
        }
    }

    fn from_version(version: u32) -> Option<Self> {
        [
            Framing::V1,
            Framing::V2,
            Framing::V3,
            Framing::V4,
            Framing::V5,
        ]
        .into_iter()
        .find(|framing| framing.version() == version)
    }

    const fn checksum(self) -> Checksum {
        match self {
            Framing::V1 => Checksum::Sha256,
            Framing::V2 | Framing::V3 | Framing::V4 | Framing::V5 => Checksum::Xxh64,
        }
    }

    /// Whether a file in this version may hold standalone COMMITs as
    /// deltas (tag 3).
    pub const fn commit_deltas(self) -> bool {
        matches!(self, Framing::V3 | Framing::V4 | Framing::V5)
    }

    /// Whether a file in this version may hold records of body tag `tag`
    /// stored against the file's previous COMMIT version: tag 3 since
    /// version 3, tag 4 (a piggybacked COMMIT) since version 4.
    const fn has_delta_tag(self, tag: u8) -> bool {
        match tag {
            COMMIT_DELTA_TAG => self.commit_deltas(),
            SUBMIT_DELTA_TAG => matches!(self, Framing::V4 | Framing::V5),
            _ => false,
        }
    }

    /// How the deltas of a file in this version lay out their entries.
    /// Only the current layout is ever written: a reopened version 3 or
    /// 4 file takes every later COMMIT in full.
    pub const fn entry_layout(self) -> EntryLayout {
        match self {
            Framing::V5 => EntryLayout::Compact,
            _ => EntryLayout::Fixed,
        }
    }

    /// Bytes a record occupies beyond its payload: length prefix plus
    /// checksum.
    pub const fn overhead(self) -> usize {
        4 + self.checksum().len()
    }

    /// Appends record `seq` to `out` in this framing: room for the length
    /// prefix and checksum, `seq`, the body `encode` appends, then the
    /// prefix and checksum patched in place — the one record writer,
    /// behind [`Wal::append`] and `faust-audit`'s `FAUSTHIS` records.
    pub fn frame(self, seq: u64, out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.resize(start + self.overhead(), 0);
        seq.encode_into(out);
        encode(out);
        let (head, payload) = out[start..].split_at_mut(self.overhead());
        head[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        self.checksum().write(payload, &mut head[4..]);
    }
}

/// A parsed log header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Record framing, from the header's format version.
    pub framing: Framing,
    /// Client count the state is for.
    pub n: usize,
    /// Sequence number of the file's first record.
    pub base_seq: u64,
}

impl WalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WAL_HEADER_LEN);
        out.extend_from_slice(WAL_MAGIC);
        self.framing.version().encode_into(&mut out);
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
        let Some(framing) = Framing::from_version(version) else {
            return Err(StoreError::UnsupportedVersion {
                file: "wal",
                version,
            });
        };
        let n = u32::decode_from(&mut rest).expect("sized above") as usize;
        let base_seq = u64::decode_from(&mut rest).expect("sized above");
        Ok(WalHeader {
            framing,
            n,
            base_seq,
        })
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

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    header: WalHeader,
    next_seq: u64,
    records: u64,
    /// The last COMMIT version in this file, which the next COMMIT is
    /// stored against if the file's version has deltas for it.
    base: Option<Version>,
    /// The record being appended, reused across appends.
    scratch: Vec<u8>,
}

impl Wal {
    /// Creates a fresh log at `dir/wal.bin` (replacing any previous
    /// file) in the current format, through [`replace`] so a crash
    /// mid-create never leaves a half-written header.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn create(dir: &Path, n: usize, base_seq: u64, sync: bool) -> Result<Self, StoreError> {
        let path = dir.join(WAL_FILE);
        let header = WalHeader {
            framing: Framing::CURRENT,
            n,
            base_seq,
        };
        let file = replace(&path, sync, |file| file.write_all(&header.encode()))?;
        Ok(Wal {
            file,
            path,
            header,
            next_seq: base_seq,
            records: 0,
            base: None,
            scratch: Vec::new(),
        })
    }

    /// Opens the existing log in `dir` for appending, after a strict
    /// walk over every record; appends continue in the file's own
    /// framing, COMMIT deltas against the file's last COMMIT version.
    ///
    /// # Errors
    ///
    /// Any anomaly ([`RecordReader::next_record`]) or file-system error.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::resume(dir, Self::reader(dir)?)
    }

    /// A reader over `dir`'s log, opened for appending too, so that
    /// [`Wal::resume`] continues the very file that was read. Only the
    /// header has been read when it returns.
    pub(crate) fn reader(dir: &Path) -> Result<RecordReader, StoreError> {
        RecordReader::open(&dir.join(WAL_FILE), true)
    }

    /// Verifies whatever records `reader` (from [`Wal::reader`] on `dir`)
    /// has not read yet, then opens its file for appending at the end:
    /// the next sequence number, the record count and the delta base are
    /// the walk's.
    pub(crate) fn resume(dir: &Path, mut reader: RecordReader) -> Result<Self, StoreError> {
        while reader.next_record()?.is_some() {}
        Ok(Wal {
            records: reader.next_seq - reader.header.base_seq,
            next_seq: reader.next_seq,
            header: reader.header,
            base: reader.base,
            file: reader.input.into_inner(),
            path: dir.join(WAL_FILE),
            scratch: Vec::new(),
        })
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
        let (framing, n, base) = (self.header.framing, self.header.n, self.base.as_ref());
        self.scratch.clear();
        framing.frame(self.next_seq, &mut self.scratch, |out| {
            encode_body(record, base, framing, n, out)
        });
        self.file.write_all(&self.scratch)?;
        if sync {
            self.file.sync_data()?;
        }
        if let Some(commit) = record.commit() {
            self.base = Some(commit.version.clone());
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

    /// The record framing this file is appended in.
    pub fn framing(&self) -> Framing {
        self.header.framing
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Body tag of a standalone COMMIT stored as a delta (versions 3 and 4).
/// Tag 2 is skipped: the retired multi-log layout used it, and it stays
/// refused.
const COMMIT_DELTA_TAG: u8 = 3;
/// Body tag of a SUBMIT whose piggybacked COMMIT is stored as a delta
/// (version 4).
const SUBMIT_DELTA_TAG: u8 = 4;

/// Encodes `record` into `out`: the COMMIT it carries, standalone or
/// piggybacked, as a [`CommitDelta`] against `base` when `framing` is the
/// current one, both versions have the file's arity `n` and the delta is
/// smaller; everything else in full.
fn encode_body(
    record: &LogRecord,
    base: Option<&Version>,
    framing: Framing,
    n: usize,
    out: &mut Vec<u8>,
) {
    let tag = match record {
        LogRecord::Submit { .. } => SUBMIT_DELTA_TAG,
        LogRecord::Commit { .. } => COMMIT_DELTA_TAG,
    };
    let delta = base
        .zip(record.commit())
        .filter(|(_, commit)| framing == Framing::CURRENT && commit.version.num_clients() == n)
        .and_then(|(base, commit)| CommitDelta::against(base, commit));
    let Some(delta) = delta else {
        return record.encode_into(out);
    };
    out.push(tag);
    record.from().encode_into(out);
    if let LogRecord::Submit { msg, .. } = record {
        msg.encode_head_into(out);
    }
    delta.encode_into(out);
}

/// Walks records in order from any reader — a log file, buffered, or
/// `FAUSTHIS`'s records section: the framing from their header, and the
/// last COMMIT version read so far, which a delta resolves against. Every
/// reader of the record layout steps through
/// [`RecordReader::next_record`], the single place that walks it.
///
/// One buffer, reused, holds the record being read, so a walk needs the
/// largest record's bytes and not the file's. A payload is read through
/// `Read::take(len)`, so a torn or lying length prefix costs only the
/// bytes that are really there.
#[derive(Debug)]
pub struct RecordReader<R = BufReader<File>> {
    input: R,
    header: WalHeader,
    base: Option<Version>,
    /// The record last read: length prefix, checksum and payload, as
    /// they are in the file.
    frame: Vec<u8>,
    /// Byte offset of the next record.
    pos: usize,
    /// Sequence number the next record must carry.
    next_seq: u64,
}

impl RecordReader {
    /// Opens the log at `path` — for appending too if `append` — and
    /// reads its header.
    fn open(path: &Path, append: bool) -> Result<Self, StoreError> {
        let file = OpenOptions::new().read(true).append(append).open(path)?;
        let mut input = BufReader::new(file);
        let mut head = Vec::with_capacity(WAL_HEADER_LEN);
        (&mut input)
            .take(WAL_HEADER_LEN as u64)
            .read_to_end(&mut head)?;
        Ok(RecordReader::new(
            input,
            WalHeader::decode(&head)?,
            WAL_HEADER_LEN,
        ))
    }
}

impl<R: Read> RecordReader<R> {
    /// A reader of the records `input` holds under `header`, whose first
    /// record sits at byte offset `pos` — what spans and
    /// [`RecordReader::pos`] count from.
    pub fn new(input: R, header: WalHeader, pos: usize) -> Self {
        RecordReader {
            input,
            header,
            base: None,
            frame: Vec::new(),
            pos,
            next_seq: header.base_seq,
        }
    }

    /// The header the records are read under.
    pub(crate) fn header(&self) -> WalHeader {
        self.header
    }

    /// Sequence number the next record must carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Byte offset of the next record — after an error, of the record
    /// that failed.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Appends up to `len` more bytes of the file to the frame; returns
    /// how many there were.
    fn fill(&mut self, len: u64) -> Result<usize, StoreError> {
        Ok((&mut self.input).take(len).read_to_end(&mut self.frame)?)
    }

    /// Reads the next record. `Ok(None)` at the exact end of the file;
    /// every anomaly is a structured [`StoreError`] naming the record,
    /// after which the reader must not be used again.
    ///
    /// # Errors
    ///
    /// [`StoreError::TornRecord`], [`StoreError::ImplausibleRecordLength`],
    /// [`StoreError::RecordChecksum`], [`StoreError::DuplicateRecord`],
    /// [`StoreError::SequenceGap`], [`StoreError::RecordCorrupt`] and
    /// read errors.
    pub fn next_record(&mut self) -> Result<Option<ScannedRecord>, StoreError> {
        let seq = self.next_seq;
        let framing = self.header.framing;
        let overhead = framing.overhead();
        self.frame.clear();
        let head = self.fill(overhead as u64)?;
        if head == 0 {
            return Ok(None);
        }
        if head < overhead {
            return Err(StoreError::TornRecord {
                seq,
                missing: overhead - head,
            });
        }
        let mut len_bytes = &self.frame[..4];
        let len = u32::decode_from(&mut len_bytes).expect("sized above") as u64;
        if len > MAX_RECORD_LEN {
            return Err(StoreError::ImplausibleRecordLength { seq, len });
        }
        let got = self.fill(len)?;
        if got < len as usize {
            return Err(StoreError::TornRecord {
                seq,
                missing: len as usize - got,
            });
        }
        let (stored, payload) = self.frame[4..].split_at(overhead - 4);
        if !framing.checksum().matches(payload, stored) {
            return Err(StoreError::RecordChecksum { seq });
        }
        let mut input = payload;
        let corrupt = |error| StoreError::RecordCorrupt { seq, error };
        let found_seq = u64::decode_from(&mut input).map_err(corrupt)?;
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
        let record = match input {
            [tag, rest @ ..] if framing.has_delta_tag(*tag) => {
                let tag = *tag;
                input = rest;
                self.resolve_delta(tag, &mut input)
            }
            _ => LogRecord::decode_from(&mut input),
        }
        .map_err(corrupt)?;
        if !input.is_empty() {
            return Err(corrupt(WireError::TrailingBytes(input.len())));
        }
        if let Some(commit) = record.commit() {
            self.base = Some(commit.version.clone());
        }
        let span = self.pos..self.pos + self.frame.len();
        self.pos = span.end;
        self.next_seq += 1;
        Ok(Some(ScannedRecord { seq, record, span }))
    }

    /// Reads the rest of the file tolerantly: hands each valid record,
    /// with its bytes as they are in the file, to `each`, and returns the
    /// anomaly that ended the walk, if any. I/O errors, from reading or
    /// from `each`, are hard errors: a failed read says nothing about
    /// the bytes behind it.
    fn walk_valid(
        &mut self,
        mut each: impl FnMut(ScannedRecord, &[u8]) -> Result<(), StoreError>,
    ) -> Result<Option<StoreError>, StoreError> {
        loop {
            match self.next_record() {
                Ok(Some(rec)) => each(rec, &self.frame)?,
                Ok(None) => return Ok(None),
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(anomaly) => return Ok(Some(anomaly)),
            }
        }
    }

    /// Decodes the body of a record of delta tag `tag` (after the tag)
    /// into the record it stands for: a COMMIT, or a SUBMIT carrying it,
    /// its entries in the file's [`Framing::entry_layout`]. A delta with
    /// no base in the file (`BadTag(tag)`), against a base whose arity is
    /// not the header's `n`, with more entries than that, or whose
    /// indices are out of range or not strictly increasing is malformed
    /// ([`CommitDelta::decode_against`]).
    fn resolve_delta(&self, tag: u8, input: &mut &[u8]) -> Result<LogRecord, WireError> {
        let from = ClientId::decode_from(input)?;
        let submit = match tag {
            SUBMIT_DELTA_TAG => Some(SubmitMsg::decode_head(input)?),
            _ => None,
        };
        let count = u32::decode_from(input)?;
        let base = self.base.as_ref().ok_or(WireError::BadTag(tag))?;
        let n = base.num_clients();
        if n != self.header.n {
            return Err(WireError::BadLength(n as u64));
        }
        let layout = self.header.framing.entry_layout();
        let commit = CommitDelta::decode_against(count, base, layout, input)?;
        Ok(match submit {
            Some(msg) => LogRecord::Submit {
                from,
                msg: SubmitMsg {
                    piggyback: Some(commit),
                    ..msg
                },
            },
            None => LogRecord::Commit { from, msg: commit },
        })
    }
}

/// A public, read-only, streaming iterator over a store directory's WAL —
/// the export cursor behind `faust-audit`'s history exporter.
///
/// It yields the sequence strict recovery replays, through the same
/// record reader, without opening the log for appending, so auditors and
/// exporters can walk a *live* server's log. Records are read one at a
/// time from a buffered file, in memory bounded by the largest record;
/// the first anomaly is yielded as an `Err` item (naming the offending
/// record, exactly as strict recovery would) and ends the iteration.
#[derive(Debug)]
pub struct LogCursor {
    reader: RecordReader,
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
        Ok(LogCursor {
            reader: RecordReader::open(path, false)?,
            finished: false,
        })
    }

    /// The parsed WAL header.
    pub fn header(&self) -> WalHeader {
        self.reader.header
    }

    /// Sequence number the next yielded record must carry.
    pub fn next_seq(&self) -> u64 {
        self.reader.next_seq
    }
}

impl Iterator for LogCursor {
    type Item = Result<ScannedRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let item = self.reader.next_record().transpose();
        self.finished = !matches!(item, Some(Ok(_)));
        item
    }
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
/// The log is read tolerantly — each valid record up to the first anomaly
/// — so this tool works on exactly the logs strict recovery refuses: `k` counts
/// *valid* records to drop, and any anomalous trailing bytes (the torn
/// record) are discarded along with them — `truncate_tail_records(dir,
/// 0)` repairs a torn tail without touching a single acknowledged
/// record.
///
/// The file is read once: each valid record is copied to the new file as
/// it is verified, and the copy is then cut back to the kept prefix, so
/// what is kept is byte for byte what was verified, header included, and
/// the rewritten file stays in the format version it was written in.
///
/// Returns the number of records remaining.
///
/// # Errors
///
/// Propagates header/file-system errors. Asking to remove more records
/// than exist truncates to zero records.
pub fn truncate_tail_records(dir: &Path, k: usize) -> Result<usize, StoreError> {
    let path = dir.join(WAL_FILE);
    let mut reader = RecordReader::open(&path, false)?;
    replace(&path, true, |file| {
        let mut out = BufWriter::new(&mut *file);
        out.write_all(&reader.header.encode())?;
        // Where each of the last k + 1 valid prefixes ends; the front one
        // is the prefix that is kept.
        let mut ends = VecDeque::from([WAL_HEADER_LEN]);
        let _anomaly = reader.walk_valid(|rec, frame| {
            out.write_all(frame)?;
            ends.push_back(rec.span.end);
            if ends.len() - 1 > k {
                ends.pop_front();
            }
            Ok(())
        })?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.set_len(ends[0] as u64)
    })?;
    let valid = (reader.next_seq - reader.header.base_seq) as usize;
    Ok(valid.saturating_sub(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use faust_crypto::sig::KeySet;
    use faust_crypto::{Digest, Signature};
    use faust_types::{CommitMsg, Delta, DigestVec, SubmitMsg, TimestampVec, Value, VersionEntry};
    use faust_ustor::UstorClient;

    fn submit(i: u32, round: u64) -> SubmitMsg {
        let keys = KeySet::generate(4, b"wal-tests");
        let mut client = UstorClient::new(
            ClientId::new(i),
            4,
            keys.keypair(i).unwrap().clone(),
            keys.registry(),
        );
        client.begin_write(Value::unique(i, round)).unwrap()
    }

    /// Every record of `dir`'s log, or the first anomaly: what the
    /// cursor yields, collected.
    fn scan(dir: &Path) -> Result<Vec<ScannedRecord>, StoreError> {
        LogCursor::open(dir)?.collect()
    }

    fn record(i: u32, round: u64) -> LogRecord {
        LogRecord::Submit {
            from: ClientId::new(i),
            msg: submit(i, round),
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

        let wal = Wal::open(&dir).unwrap();
        assert_eq!((wal.n(), wal.next_seq(), wal.records()), (4, 3, 3));
        assert_eq!(LogCursor::open(&dir).unwrap().header().base_seq, 0);
        let records = scan(&dir).unwrap();
        assert_eq!(records.len(), 3);
        for (i, rec) in records.iter().enumerate() {
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
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.append(&record(1, 0), false).unwrap(), 1);
        assert_eq!(scan(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotated_wal_carries_base_seq() {
        let dir = scratch_dir("wal-rotate");
        let mut wal = Wal::create(&dir, 2, 17, false).unwrap();
        assert_eq!(wal.append(&record(0, 0), false).unwrap(), 17);
        assert_eq!(LogCursor::open(&dir).unwrap().header().base_seq, 17);
        assert_eq!(scan(&dir).unwrap()[0].seq, 17);
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
        let mut cursor = LogCursor::open(&dir).unwrap();
        assert_eq!(cursor.by_ref().map(Result::unwrap).count(), 2);
        assert_eq!(cursor.next_seq(), 2);
        // Over-truncation clamps to empty.
        assert_eq!(truncate_tail_records(&dir, 99).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An empty log in an old `framing`: what an older build's
    /// `Wal::create` left.
    fn create_old(dir: &Path, framing: Framing, n: usize) {
        let header = WalHeader {
            framing,
            n,
            base_seq: 0,
        };
        std::fs::write(dir.join(WAL_FILE), header.encode()).unwrap();
    }

    /// Creates an empty log in `framing` and opens it for appending.
    fn open_in(dir: &Path, framing: Framing, n: usize) -> Wal {
        match framing {
            Framing::CURRENT => drop(Wal::create(dir, n, 0, false).unwrap()),
            old => create_old(dir, old, n),
        }
        Wal::open(dir).unwrap()
    }

    /// Appends a record whose payload is `seq | body`, checksummed, so
    /// only the body's decoding can object to it.
    fn append_raw(dir: &Path, framing: Framing, seq: u64, body: &[u8]) {
        let mut payload = seq.to_be_bytes().to_vec();
        payload.extend_from_slice(body);
        let mut frame = vec![0; framing.overhead()];
        frame[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        framing.checksum().write(&payload, &mut frame[4..]);
        frame.extend_from_slice(&payload);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).unwrap();
    }

    /// Bytes `record` takes in a current file when stored in full.
    fn stored_len(record: &LogRecord) -> usize {
        RECORD_OVERHEAD + 8 + record.encoded_len()
    }

    /// Whether the record at `span` was stored in full.
    fn stored_in_full(rec: &ScannedRecord, framing: Framing) -> bool {
        rec.span.len() == framing.overhead() + 8 + rec.record.encoded_len()
    }

    /// A COMMIT from `from` of the version `(t, d)`, with placeholder
    /// signatures — the log stores whatever it was handed.
    fn commit_msg(from: u32, t: &[u64], d: &[Option<Digest>]) -> CommitMsg {
        CommitMsg {
            version: Version::new(
                TimestampVec::from_vec(t.to_vec()),
                DigestVec::from_vec(d.to_vec()),
            ),
            commit_sig: Signature::garbage(),
            proof_sig: Signature::Mac([from as u8; 32]),
        }
    }

    fn commit(from: u32, t: &[u64], d: &[Option<Digest>]) -> LogRecord {
        LogRecord::Commit {
            from: ClientId::new(from),
            msg: commit_msg(from, t, d),
        }
    }

    fn digest(label: u64) -> Option<Digest> {
        Some(faust_crypto::sha256(&label.to_be_bytes()))
    }

    #[test]
    fn new_files_are_current_and_a_reopened_v1_file_keeps_its_framing() {
        let dir = scratch_dir("wal-framing");
        let wal = Wal::create(&dir, 4, 0, false).unwrap();
        assert_eq!(wal.framing(), Framing::CURRENT);
        assert_eq!((WAL_VERSION, RECORD_OVERHEAD), (5, 12));
        assert_eq!(Framing::V1.overhead(), 36);
        assert_eq!(Framing::V2.overhead(), 12);
        drop(wal);

        for (framing, overhead) in [(Framing::V1, 36), (Framing::V2, 12)] {
            let mut wal = open_in(&dir, framing, 4);
            assert_eq!(wal.framing(), framing);
            for i in 0..3u32 {
                wal.append(&record(i, 0), false).unwrap();
            }
            // COMMITs that a current file would store as deltas stay
            // full: an old version holds tags 0 and 1 only.
            let d = [digest(1), None, None, None];
            wal.append(&commit(0, &[1, 0, 0, 0], &d), false).unwrap();
            wal.append(&commit(0, &[2, 0, 0, 0], &d), false).unwrap();
            drop(wal);
            assert_eq!(LogCursor::open(&dir).unwrap().header().framing, framing);
            let records = scan(&dir).unwrap();
            assert_eq!(records.len(), 5);
            for rec in &records {
                let payload = 8 + rec.record.encoded_len();
                assert_eq!(rec.span.len(), overhead + payload, "{framing:?}");
            }
            // The cursor walks the same framing.
            assert_eq!(LogCursor::open(&dir).unwrap().count(), 5);

            // The rollback tool rewrites the file in the version it
            // found, and the result keeps taking appends in it.
            assert_eq!(truncate_tail_records(&dir, 1).unwrap(), 4);
            let mut wal = Wal::open(&dir).unwrap();
            assert_eq!(wal.framing(), framing);
            assert_eq!(wal.append(&record(3, 0), false).unwrap(), 4);
            assert_eq!(scan(&dir).unwrap().len(), 5);
        }

        // A reopened v3 or v4 file takes every COMMIT in full: only the
        // current entry layout is ever written.
        for framing in [Framing::V3, Framing::V4] {
            let mut wal = open_in(&dir, framing, 4);
            let d = [digest(1), None, None, None];
            let piggybacked = LogRecord::Submit {
                from: ClientId::new(1),
                msg: SubmitMsg {
                    piggyback: Some(commit_msg(1, &[2, 0, 0, 0], &d)),
                    ..submit(1, 0)
                },
            };
            for r in [
                commit(0, &[1, 0, 0, 0], &d),
                piggybacked,
                commit(0, &[3, 0, 0, 0], &d),
            ] {
                wal.append(&r, false).unwrap();
            }
            drop(wal);
            let full: Vec<bool> = scan(&dir)
                .unwrap()
                .iter()
                .map(|r| stored_in_full(r, framing))
                .collect();
            assert_eq!(full, [true, true, true], "{framing:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_payload_with_matching_checksum_is_record_corrupt() {
        // A record whose checksum is *valid* but whose payload is not a
        // LogRecord — seq 2 followed by a bogus tag — in every framing.
        let dir = scratch_dir("wal-garbage");
        for framing in [
            Framing::V1,
            Framing::V2,
            Framing::V3,
            Framing::V4,
            Framing::V5,
        ] {
            let mut wal = open_in(&dir, framing, 4);
            wal.append(&record(0, 0), false).unwrap();
            wal.append(&record(1, 0), false).unwrap();
            drop(wal);
            append_raw(&dir, framing, 2, &[0xEE]); // no such record tag
            assert!(matches!(
                scan(&dir).unwrap_err(),
                StoreError::RecordCorrupt { seq: 2, .. }
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_commit_is_stored_against_the_last_commit_in_its_file() {
        let dir = scratch_dir("wal-delta");
        let n = 4;
        let mut wal = Wal::create(&dir, n, 0, false).unwrap();
        let base = [digest(1), digest(2), None, None];
        let one_more = [digest(1), digest(2), digest(3), None];
        let records = [
            // No COMMIT in the file yet: full.
            commit(0, &[1, 1, 0, 0], &base),
            record(1, 0),
            // One entry past the previous COMMIT: a delta of 45 bytes.
            commit(2, &[1, 1, 1, 0], &one_more),
            // A piggybacked COMMIT is stored against the one before it
            // too, and is the next one's base.
            LogRecord::Submit {
                from: ClientId::new(1),
                msg: SubmitMsg {
                    piggyback: Some(commit_msg(1, &[1, 2, 1, 0], &one_more)),
                    ..submit(1, 1)
                },
            },
            // Identical to the piggybacked one: a delta with no entry.
            commit(3, &[1, 2, 1, 0], &one_more),
            // Every entry changed, each a wide step from the one before:
            // the delta would not be smaller.
            commit(
                3,
                &[2, (1 << 62) + 3, 2, (1 << 62) + 1],
                &[digest(5), digest(6), digest(7), digest(8)],
            ),
            // A version of another arity is stored in full, and so is
            // the next one, whose base it is.
            commit(
                0,
                &[2, 3, 2, 1, 0],
                &[digest(5), digest(6), digest(7), digest(8), None],
            ),
            commit(
                0,
                &[3, 3, 2, 1],
                &[digest(9), digest(6), digest(7), digest(8)],
            ),
            // And an entry back to ⊥ is an ordinary change.
            commit(0, &[3, 3, 2, 0], &[digest(9), digest(6), digest(7), None]),
        ];
        for r in &records {
            wal.append(r, false).unwrap();
        }
        drop(wal);
        let contents = scan(&dir).unwrap();
        let scanned: Vec<&LogRecord> = contents.iter().map(|r| &r.record).collect();
        assert_eq!(scanned, records.iter().collect::<Vec<_>>());
        let full: Vec<bool> = contents
            .iter()
            .map(|r| stored_in_full(r, Framing::CURRENT))
            .collect();
        assert_eq!(
            full,
            [true, true, false, false, false, true, true, true, false]
        );
        // 12 B framing, 8 B seq, tag, from, count, one entry of 1 + 8 + 32
        // bytes and two 33-byte signatures.
        assert_eq!(contents[2].span.len(), 12 + 8 + 1 + 4 + 4 + 41 + 66);
        assert_eq!(contents[4].span.len(), 12 + 8 + 1 + 4 + 4 + 66);
        // The piggyback's option tag and full version (1 + 4 + 4 · 8 + 4 +
        // 3 · 33 + 1 bytes) became a count and one entry.
        assert_eq!(
            stored_len(&records[3]) - contents[3].span.len(),
            (1 + 4 + 32 + 4 + 99 + 1) - (4 + 41)
        );
        // Each delta body is the tag, the sender, the SUBMIT's fields up
        // to its piggyback option if it is one, then the wire's COMMIT
        // delta against the COMMIT before it, byte for byte.
        let file = std::fs::read(dir.join(WAL_FILE)).unwrap();
        for (at, before) in [(2, 0), (3, 2), (4, 3), (8, 7)] {
            let (tag, head) = match &records[at] {
                LogRecord::Commit { .. } => (COMMIT_DELTA_TAG, Vec::new()),
                LogRecord::Submit { msg, .. } => {
                    // The SUBMIT's own encoding, up to its piggyback.
                    let full = msg.encode();
                    let piggyback = msg.piggyback.encoded_len();
                    (SUBMIT_DELTA_TAG, full[..full.len() - piggyback].to_vec())
                }
            };
            let base = &records[before].commit().unwrap().version;
            let commit = records[at].commit().unwrap();
            let mut body = vec![tag];
            records[at].from().encode_into(&mut body);
            body.extend(head);
            body.extend(CommitDelta::against(base, commit).unwrap().encode());
            let span = &contents[at].span;
            assert_eq!(file[span.start + 12 + 8..span.end], body, "record {at}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_deltas_are_record_corrupt() {
        let dir = scratch_dir("wal-bad-delta");
        let n = 2;
        // A delta body: tag, from, then the wire's COMMIT delta.
        let delta = |entries: &[(u32, u64)]| {
            let mut body = vec![COMMIT_DELTA_TAG];
            0u32.encode_into(&mut body);
            body.extend(commit_delta(entries).encode());
            body
        };
        // The same delta piggybacked: tag, from, a SUBMIT's head, then
        // the delta.
        let piggybacked = |entries: &[(u32, u64)]| {
            let mut body = vec![SUBMIT_DELTA_TAG];
            0u32.encode_into(&mut body);
            submit(0, 0).encode_head_into(&mut body);
            body.extend_from_slice(&delta(entries)[1 + 4..]);
            body
        };
        // A delta whose one entry has an overlong head.
        let mut overlong = delta(&[(0, 2)]);
        overlong.splice(9..10, [0x81, 0]);
        let cases: [(&str, Option<LogRecord>, Vec<u8>, WireError); 9] = [
            ("no base", None, delta(&[(0, 1)]), WireError::BadTag(3)),
            (
                "no base under a SUBMIT",
                None,
                piggybacked(&[(0, 1)]),
                WireError::BadTag(4),
            ),
            (
                "truncated SUBMIT head",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                piggybacked(&[(0, 2)])[..30].to_vec(),
                WireError::Truncated,
            ),
            (
                "index past the arity under a SUBMIT",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                piggybacked(&[(2, 2)]),
                WireError::BadLength(2),
            ),
            (
                "more entries than the arity",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                delta(&[(0, 2), (1, 2), (2, 2)]),
                WireError::BadLength(3),
            ),
            (
                "index past the arity",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                delta(&[(2, 2)]),
                WireError::BadLength(2),
            ),
            (
                "an overlong varint",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                overlong,
                WireError::BadVarint,
            ),
            (
                "base of another arity",
                Some(commit(0, &[1, 0, 0], &[digest(1), None, None])),
                delta(&[(0, 2)]),
                WireError::BadLength(3),
            ),
            (
                "truncated entry",
                Some(commit(0, &[1, 0], &[digest(1), None])),
                delta(&[(0, 2)])[..20].to_vec(),
                WireError::Truncated,
            ),
        ];
        for (what, base, body, error) in cases {
            let mut wal = Wal::create(&dir, n, 0, false).unwrap();
            let seq = match &base {
                Some(base) => wal.append(base, false).unwrap() + 1,
                None => 0,
            };
            drop(wal);
            append_raw(&dir, Framing::CURRENT, seq, &body);
            match scan(&dir).unwrap_err() {
                StoreError::RecordCorrupt { seq: s, error: e } => {
                    assert_eq!((s, e), (seq, error), "{what}")
                }
                other => panic!("{what}: {other}"),
            }
        }
        // A well-formed delta in a file without that kind of delta is a
        // bad tag: none in version 2, no piggybacked one in version 3.
        for (framing, body, tag) in [
            (Framing::V2, delta(&[(0, 2)]), 3),
            (Framing::V2, piggybacked(&[(0, 2)]), 4),
            (Framing::V3, piggybacked(&[(0, 2)]), 4),
        ] {
            let mut wal = open_in(&dir, framing, n);
            wal.append(&commit(0, &[1, 0], &[digest(1), None]), false)
                .unwrap();
            drop(wal);
            append_raw(&dir, framing, 1, &body);
            match scan(&dir).unwrap_err() {
                StoreError::RecordCorrupt { seq: 1, error } => {
                    assert_eq!(error, WireError::BadTag(tag), "{framing:?}")
                }
                other => panic!("{framing:?}: {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The wire's COMMIT delta of `entries`, each with a digest, and
    /// placeholder signatures.
    fn commit_delta(entries: &[(u32, u64)]) -> CommitDelta {
        let entries: Vec<VersionEntry> = entries
            .iter()
            .map(|&(k, t)| VersionEntry {
                client: ClientId::new(k),
                timestamp: t,
                digest: digest(t),
            })
            .collect();
        CommitDelta {
            version: Delta::from_entries(&entries),
            commit_sig: Signature::garbage(),
            proof_sig: Signature::garbage(),
        }
    }

    /// A delta body as versions 3 and 4 wrote it, its entries in the
    /// fixed layout `k: u32 | V[k]: u64 | M[k]: Option<Digest>`: tag 3,
    /// or tag 4 behind `submit`'s head.
    fn fixed_body(submit: Option<&SubmitMsg>, entries: &[(u32, u64)]) -> Vec<u8> {
        let mut body = vec![match submit {
            None => COMMIT_DELTA_TAG,
            Some(_) => SUBMIT_DELTA_TAG,
        }];
        0u32.encode_into(&mut body);
        if let Some(submit) = submit {
            submit.encode_head_into(&mut body);
        }
        (entries.len() as u32).encode_into(&mut body);
        for &(k, t) in entries {
            k.encode_into(&mut body);
            t.encode_into(&mut body);
            digest(t).encode_into(&mut body);
        }
        Signature::garbage().encode_into(&mut body);
        Signature::garbage().encode_into(&mut body);
        body
    }

    #[test]
    fn older_files_read_their_deltas_in_the_fixed_layout() {
        let dir = scratch_dir("wal-fixed-delta");
        let n = 2;
        let first = commit(0, &[1, 0], &[digest(1), None]);
        let resolved = |t: u64| CommitMsg {
            commit_sig: Signature::garbage(),
            proof_sig: Signature::garbage(),
            ..commit_msg(0, &[1, t], &[digest(1), digest(t)])
        };
        let head = submit(0, 1);
        let piggybacked = LogRecord::Submit {
            from: ClientId::new(0),
            msg: SubmitMsg {
                piggyback: Some(resolved(3)),
                ..head.clone()
            },
        };
        let standalone = LogRecord::Commit {
            from: ClientId::new(0),
            msg: resolved(2),
        };
        for framing in [Framing::V3, Framing::V4] {
            let mut wal = open_in(&dir, framing, n);
            wal.append(&first, false).unwrap();
            drop(wal);
            append_raw(&dir, framing, 1, &fixed_body(None, &[(1, 2)]));
            let mut expected = vec![&first, &standalone];
            if framing == Framing::V4 {
                append_raw(&dir, framing, 2, &fixed_body(Some(&head), &[(1, 3)]));
                expected.push(&piggybacked);
            }
            let records = scan(&dir).unwrap();
            let records: Vec<&LogRecord> = records.iter().map(|r| &r.record).collect();
            assert_eq!(records, expected, "{framing:?}");
            // Indices must strictly increase in the fixed layout, and
            // stay below the arity.
            for (entries, k) in [(&[(1, 2), (1, 3)][..], 1), (&[(2, 2)], 2)] {
                let mut wal = open_in(&dir, framing, n);
                wal.append(&first, false).unwrap();
                drop(wal);
                append_raw(&dir, framing, 1, &fixed_body(None, entries));
                match scan(&dir).unwrap_err() {
                    StoreError::RecordCorrupt { seq: 1, error } => {
                        assert_eq!(error, WireError::BadLength(k), "{framing:?}")
                    }
                    other => panic!("{framing:?}: {other}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A seeded stream of records for `n` clients: SUBMITs with and
    /// without a piggybacked COMMIT, and standalone COMMITs whose
    /// versions move a few entries (often back to `⊥`), all of them, or
    /// — rarely — to another arity.
    fn arbitrary_records(rng: &mut faust_sim::SmallRng, n: usize, count: usize) -> Vec<LogRecord> {
        let mut t = vec![0u64; n];
        let mut d: Vec<Option<Digest>> = vec![None; n];
        let mut next_submit = submit(0, 0);
        (0..count)
            .map(|_| {
                let changes = match rng.gen_index(4) {
                    0 => n,
                    _ => 1 + rng.gen_index(2),
                };
                for _ in 0..changes {
                    let k = rng.gen_index(n);
                    t[k] += 1;
                    d[k] = if rng.gen_bool(0.1) {
                        None
                    } else {
                        digest(rng.next_u64())
                    };
                }
                let from = rng.gen_index(n) as u32;
                let msg = if rng.gen_bool(0.05) {
                    let (mut t, mut d) = (t.clone(), d.clone());
                    t.push(1);
                    d.push(None);
                    commit_msg(from, &t, &d)
                } else {
                    commit_msg(from, &t, &d)
                };
                let from = ClientId::new(from);
                if rng.gen_index(3) != 0 {
                    return LogRecord::Commit { from, msg };
                }
                next_submit.timestamp += 1;
                next_submit.piggyback = rng.gen_bool(0.5).then_some(msg);
                LogRecord::Submit {
                    from,
                    msg: next_submit.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn scanning_what_was_appended_gives_it_back() {
        // scan(append(rs)) == rs, across a rotation and a reopen: each
        // file starts without a base, and a reopened one recovers its own.
        let dir = scratch_dir("wal-property");
        for (case, n) in [1, 2, 5, 64].into_iter().enumerate() {
            let mut rng = faust_sim::SmallRng::seed_from_u64(0x3A1_0000 + case as u64);
            let records = arbitrary_records(&mut rng, n, 300);
            let (first, rest) = records.split_at(100);
            let (second, third) = rest.split_at(100);
            let mut wal = Wal::create(&dir, n, 0, false).unwrap();
            for r in first {
                wal.append(r, false).unwrap();
            }
            let mut scanned = scan(&dir).unwrap();
            // Rotation: a fresh file continues the numbering.
            let mut wal = Wal::create(&dir, n, 100, false).unwrap();
            for r in second {
                wal.append(r, false).unwrap();
            }
            drop(wal);
            let mut wal = Wal::open(&dir).unwrap();
            for r in third {
                wal.append(r, false).unwrap();
            }
            assert_eq!(LogCursor::open(&dir).unwrap().header().base_seq, 100);
            let second_file = scan(&dir).unwrap();
            // Even at n = 1 a one-entry delta (45 bytes) is shorter than
            // the full version (49).
            let deltas = second_file
                .iter()
                .filter(|r| !stored_in_full(r, Framing::CURRENT))
                .count();
            assert!(deltas > 10, "n = {n}: {deltas} deltas");
            scanned.extend(second_file);
            let got: Vec<(u64, &LogRecord)> = scanned.iter().map(|r| (r.seq, &r.record)).collect();
            let want: Vec<(u64, &LogRecord)> = (0..).zip(&records).collect();
            assert_eq!(got, want, "n = {n}");
            assert_eq!(LogCursor::open(&dir).unwrap().count(), 200);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_same_records_cost_24_bytes_less_each_in_v2() {
        // SUBMIT records: framed as in v2, which the current version keeps.
        let v1 = scratch_dir("wal-size-v1");
        let v2 = scratch_dir("wal-size-v2");
        create_old(&v1, Framing::V1, 4);
        let mut old = Wal::open(&v1).unwrap();
        let mut new = Wal::create(&v2, 4, 0, false).unwrap();
        for i in 0..4u32 {
            old.append(&record(i, 2), false).unwrap();
            new.append(&record(i, 2), false).unwrap();
        }
        let len = |wal: &Wal| std::fs::metadata(wal.path()).unwrap().len();
        assert_eq!(len(&old) - len(&new), 4 * 24);
        std::fs::remove_dir_all(&v1).ok();
        std::fs::remove_dir_all(&v2).ok();
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
        let cursor = LogCursor::open(&dir).unwrap();
        let base_seq = cursor.header().base_seq;
        assert!(base_seq > 0, "rotation happened");
        let seen: Vec<(u64, Vec<u8>)> = cursor
            .map(|r| r.map(|rec| (rec.seq, rec.record.encode())))
            .collect::<Result<_, _>>()
            .unwrap();
        // What recovery replays from the log: the records from base_seq
        // up to the server's next sequence number, applied on top of the
        // snapshot.
        let recovered = PersistentServer::recover(&dir, 2, StoreConfig::default()).unwrap();
        let seqs: Vec<u64> = seen.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (base_seq..recovered.next_seq()).collect::<Vec<_>>());
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
        let err = LogCursor::open(&dir).unwrap_err();
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
            LogCursor::open(&dir).unwrap_err(),
            StoreError::BadMagic { file: "wal" }
        ));

        // Unsupported version: anything past the current one, and 0.
        for version in [WAL_VERSION + 1, 99, 0] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&version.to_be_bytes());
            std::fs::write(&path, &bad).unwrap();
            match LogCursor::open(&dir).unwrap_err() {
                StoreError::UnsupportedVersion {
                    file: "wal",
                    version: v,
                } => {
                    assert_eq!(v, version)
                }
                other => panic!("expected UnsupportedVersion, got {other}"),
            }
        }

        // Truncated header.
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            LogCursor::open(&dir).unwrap_err(),
            StoreError::TruncatedHeader { file: "wal" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
