//! The `FAUSTHIS` on-disk session-history container.
//!
//! A session history is everything an auditor needs to re-derive the
//! server's behaviour offline: the base state the log starts from, the
//! accepted protocol messages in schedule order (the WAL records), the
//! final commit chain the exporter claims, and optionally the client-side
//! view of the run. The container is *self-authenticating at the
//! integrity level* — every byte is covered by a checksum, so accidental
//! corruption is reported with the exact failing offset — while
//! *authenticity* rests on the protocol signatures carried inside the
//! records (see `docs/audit.md` for the threat model: the container
//! itself is untrusted input).
//!
//! ## Layout
//!
//! ```text
//! "FAUSTHIS" | version: u32 | manifest_len: u32 | sha256(manifest) | manifest
//! [base-state section]      (present iff manifest says so)
//! [records section]
//! [client-history section]  (present iff manifest says so)
//! ```
//!
//! This module composes two framings `faust-store` owns and parses
//! neither itself. The first line is a [`Sealed`] file ([`HISTORY`]), the
//! header `snapshot.bin` and `FAUSTSES` share, whose payload is the
//! manifest; the sections follow it. The manifest describes each section
//! by length and SHA-256 digest and carries the claimed final commit
//! chain. The records section is a version 1 WAL's records
//! (`len | sha256(payload) | payload`, payload = `seq ‖ LogRecord`),
//! framed by [`Framing::frame`] and read by the WAL's [`RecordReader`], so
//! a flipped bit in one record is pinned to that record's offset rather
//! than to the section as a whole.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use faust_crypto::{sha256, Digest, SigScheme, Signature};
use faust_store::codec::{decode_state, encode_state, SverLayout};
use faust_store::file::{replace, Checksum, Sealed};
use faust_store::log::{Framing, RecordReader, WalHeader};
use faust_store::{LogRecord, StoreError};
use faust_types::{History, SignedVersion, Sink, Wire, WireError};
use faust_ustor::ServerState;

/// The history file's sealed header: one version, SHA-256 over the
/// manifest.
pub const HISTORY: Sealed<()> = Sealed {
    magic: b"FAUSTHIS",
    file: "history",
    versions: &[(1, Checksum::Sha256, ())],
};

/// Which section of the container an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The Wire-encoded [`ServerState`] the log starts from.
    BaseState,
    /// The framed [`LogRecord`] stream.
    Records,
    /// The Wire-encoded client-side [`History`].
    ClientHistory,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::BaseState => write!(f, "base-state"),
            Section::Records => write!(f, "records"),
            Section::ClientHistory => write!(f, "client-history"),
        }
    }
}

/// Typed rejection of a malformed history file. Every variant that can
/// point at bytes carries the absolute file offset where parsing failed,
/// so `faust audit` can report exactly which region is damaged.
#[derive(Debug)]
pub enum HistoryFileError {
    /// The file could not be read ([`StoreError::Io`]), or its sealed
    /// header and manifest failed [`Sealed::open`]'s checks: truncated
    /// header, bad magic, unsupported version, a manifest cut short, or a
    /// manifest checksum mismatch, each naming file `"history"`.
    Sealed(StoreError),
    /// The manifest bytes do not decode as a manifest.
    ManifestCorrupt {
        /// Underlying decode error.
        error: WireError,
    },
    /// A cross-field size constraint inside the manifest is violated
    /// (e.g. the claimed chain does not have one entry per client).
    DimensionMismatch {
        /// Which constraint failed.
        what: &'static str,
        /// Expected count.
        expected: u64,
        /// Count found.
        found: u64,
    },
    /// The file ends before a section the manifest describes.
    SectionTruncated {
        /// The truncated section.
        section: Section,
        /// Offset at which more bytes were expected.
        offset: usize,
    },
    /// A section's bytes do not match the digest in the manifest.
    SectionChecksum {
        /// The damaged section.
        section: Section,
        /// Absolute offset of the section's first byte.
        offset: usize,
    },
    /// A record of the records section failed the WAL record reader's
    /// checks: torn, implausibly long, checksum mismatch, undecodable, or
    /// not numbered consecutively from `base_seq`.
    Record {
        /// Absolute offset of the damaged record's frame.
        offset: usize,
        /// What the record reader found.
        error: StoreError,
    },
    /// The records section holds a different number of records than the
    /// manifest declares.
    RecordCountMismatch {
        /// Count declared by the manifest.
        expected: u64,
        /// Records actually present.
        found: u64,
    },
    /// The base-state section does not decode as a [`ServerState`].
    StateCorrupt {
        /// Underlying decode error.
        error: WireError,
    },
    /// The client-history section does not decode as a [`History`].
    HistoryCorrupt {
        /// Underlying decode error.
        error: WireError,
    },
    /// The manifest names an unknown signature scheme.
    BadScheme {
        /// The unrecognised scheme tag.
        tag: u8,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes {
        /// Offset of the first unexpected byte.
        offset: usize,
    },
}

impl fmt::Display for HistoryFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryFileError::Sealed(error) => write!(f, "{error}"),
            HistoryFileError::ManifestCorrupt { error } => {
                write!(f, "manifest does not decode: {error:?}")
            }
            HistoryFileError::DimensionMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected}, found {found}"),
            HistoryFileError::SectionTruncated { section, offset } => {
                write!(
                    f,
                    "file ends inside the {section} section (offset {offset})"
                )
            }
            HistoryFileError::SectionChecksum { section, offset } => write!(
                f,
                "{section} section checksum mismatch (section at offset {offset})"
            ),
            HistoryFileError::Record { offset, error } => {
                write!(f, "record at offset {offset}: {error}")
            }
            HistoryFileError::RecordCountMismatch { expected, found } => write!(
                f,
                "manifest declares {expected} records but the section holds {found}"
            ),
            HistoryFileError::StateCorrupt { error } => {
                write!(f, "base state does not decode: {error:?}")
            }
            HistoryFileError::HistoryCorrupt { error } => {
                write!(f, "client history does not decode: {error:?}")
            }
            HistoryFileError::BadScheme { tag } => {
                write!(f, "unknown signature scheme tag {tag}")
            }
            HistoryFileError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the last section (offset {offset})")
            }
        }
    }
}

impl std::error::Error for HistoryFileError {}

/// Length + digest of one section, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SectionDesc {
    len: u32,
    digest: Digest,
}

impl Wire for SectionDesc {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.len.encode_into(out);
        self.digest.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SectionDesc {
            len: u32::decode_from(input)?,
            digest: Digest::decode_from(input)?,
        })
    }
}

/// The checksummed manifest binding the sections together.
struct Manifest {
    n: u32,
    scheme: u8,
    base_seq: u64,
    record_count: u64,
    base_state: Option<SectionDesc>,
    records: SectionDesc,
    client_history: Option<SectionDesc>,
    claimed_chain: Vec<SignedVersion>,
    claimed_proofs: Vec<Option<Signature>>,
}

impl Wire for Manifest {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.n.encode_into(out);
        self.scheme.encode_into(out);
        self.base_seq.encode_into(out);
        self.record_count.encode_into(out);
        self.base_state.encode_into(out);
        self.records.encode_into(out);
        self.client_history.encode_into(out);
        self.claimed_chain.encode_into(out);
        self.claimed_proofs.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Manifest {
            n: u32::decode_from(input)?,
            scheme: u8::decode_from(input)?,
            base_seq: u64::decode_from(input)?,
            record_count: u64::decode_from(input)?,
            base_state: Option::<SectionDesc>::decode_from(input)?,
            records: SectionDesc::decode_from(input)?,
            client_history: Option::<SectionDesc>::decode_from(input)?,
            claimed_chain: Vec::<SignedVersion>::decode_from(input)?,
            claimed_proofs: Vec::<Option<Signature>>::decode_from(input)?,
        })
    }
}

fn scheme_tag(scheme: SigScheme) -> u8 {
    match scheme {
        SigScheme::Hmac => 0,
        SigScheme::Ed25519 => 1,
    }
}

fn scheme_from_tag(tag: u8) -> Option<SigScheme> {
    match tag {
        0 => Some(SigScheme::Hmac),
        1 => Some(SigScheme::Ed25519),
        _ => None,
    }
}

/// A parsed session history: one server session's worth of evidence,
/// ready for [`crate::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionHistory {
    /// Number of clients the session is for.
    pub n: usize,
    /// Signature scheme the session's keys use.
    pub scheme: SigScheme,
    /// Sequence number of the first record; records before it are folded
    /// into [`SessionHistory::base_state`].
    pub base_seq: u64,
    /// Server state the records apply on top of (`None` = fresh server).
    pub base_state: Option<ServerState>,
    /// The accepted protocol messages in schedule order, with their
    /// global sequence numbers (consecutive from `base_seq`).
    pub records: Vec<(u64, LogRecord)>,
    /// The client-side view of the run, if the exporter had one.
    pub client_history: Option<History>,
    /// The exporter's claim of the final `SVER` vector; the auditor
    /// replays the records and rejects the file if they disagree.
    pub claimed_chain: Vec<SignedVersion>,
    /// The exporter's claim of the final PROOF-signature vector.
    pub claimed_proofs: Vec<Option<Signature>>,
}

impl SessionHistory {
    /// Serializes the history into the `FAUSTHIS` container format.
    pub fn encode(&self) -> Vec<u8> {
        let base_bytes = self.base_state.as_ref().map(|state| {
            let mut out = Vec::new();
            encode_state(state, SverLayout::Full, &mut out);
            out
        });
        let mut records_bytes = Vec::new();
        for (seq, record) in &self.records {
            Framing::V1.frame(*seq, &mut records_bytes, |out| record.encode_into(out));
        }
        let history_bytes = self.client_history.as_ref().map(|history| history.encode());

        let describe = |bytes: &Vec<u8>| SectionDesc {
            len: bytes.len() as u32,
            digest: sha256(bytes),
        };
        let manifest = Manifest {
            n: self.n as u32,
            scheme: scheme_tag(self.scheme),
            base_seq: self.base_seq,
            record_count: self.records.len() as u64,
            base_state: base_bytes.as_ref().map(describe),
            records: describe(&records_bytes),
            client_history: history_bytes.as_ref().map(describe),
            claimed_chain: self.claimed_chain.clone(),
            claimed_proofs: self.claimed_proofs.clone(),
        };
        let mut out = HISTORY.seal_with(1, |(), out| manifest.encode_into(out));
        for section in [base_bytes, Some(records_bytes), history_bytes]
            .iter()
            .flatten()
        {
            out.extend_from_slice(section);
        }
        out
    }

    /// Parses a `FAUSTHIS` container, rejecting any malformed input with
    /// a typed error pointing at the failing offset. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, HistoryFileError> {
        let ((), manifest_bytes, sections) =
            HISTORY.open(bytes).map_err(HistoryFileError::Sealed)?;
        let manifest = Manifest::decode(manifest_bytes)
            .map_err(|error| HistoryFileError::ManifestCorrupt { error })?;
        let mut pos = bytes.len() - sections.len();

        let scheme = scheme_from_tag(manifest.scheme).ok_or(HistoryFileError::BadScheme {
            tag: manifest.scheme,
        })?;
        let n = manifest.n as u64;
        if manifest.claimed_chain.len() as u64 != n {
            return Err(HistoryFileError::DimensionMismatch {
                what: "claimed chain entries per client",
                expected: n,
                found: manifest.claimed_chain.len() as u64,
            });
        }
        if manifest.claimed_proofs.len() as u64 != n {
            return Err(HistoryFileError::DimensionMismatch {
                what: "claimed proof entries per client",
                expected: n,
                found: manifest.claimed_proofs.len() as u64,
            });
        }

        // Sections: slice out by declared length, verify digests.
        let mut take_section =
            |desc: &SectionDesc, section: Section| -> Result<(usize, &[u8]), HistoryFileError> {
                let start = pos;
                let end = start
                    .checked_add(desc.len as usize)
                    .filter(|&end| end <= bytes.len())
                    .ok_or(HistoryFileError::SectionTruncated {
                        section,
                        offset: bytes.len(),
                    })?;
                pos = end;
                Ok((start, &bytes[start..end]))
            };
        let base_slice = match &manifest.base_state {
            Some(desc) => Some((desc, take_section(desc, Section::BaseState)?)),
            None => None,
        };
        let records_slice = (
            &manifest.records,
            take_section(&manifest.records, Section::Records)?,
        );
        let history_slice = match &manifest.client_history {
            Some(desc) => Some((desc, take_section(desc, Section::ClientHistory)?)),
            None => None,
        };
        if pos != bytes.len() {
            return Err(HistoryFileError::TrailingBytes { offset: pos });
        }

        // Base state.
        let base_state = match base_slice {
            Some((desc, (offset, slice))) => {
                if sha256(slice) != desc.digest {
                    return Err(HistoryFileError::SectionChecksum {
                        section: Section::BaseState,
                        offset,
                    });
                }
                let mut input = slice;
                let state = decode_state(&mut input, SverLayout::Full)
                    .and_then(|state| match input.len() {
                        0 => Ok(state),
                        extra => Err(WireError::TrailingBytes(extra)),
                    })
                    .map_err(|error| HistoryFileError::StateCorrupt { error })?;
                if state.mem.len() as u64 != n {
                    return Err(HistoryFileError::DimensionMismatch {
                        what: "base state registers per client",
                        expected: n,
                        found: state.mem.len() as u64,
                    });
                }
                Some(state)
            }
            None => None,
        };

        // Records: per-record framing first, so damage pins to one
        // record; the section digest is checked afterwards as a belt
        // against framing-consistent corruption.
        let (records_offset, records_bytes) = records_slice.1;
        let header = WalHeader {
            framing: Framing::V1,
            n: manifest.n as usize,
            base_seq: manifest.base_seq,
        };
        let mut reader = RecordReader::new(records_bytes, header, records_offset);
        let mut records = Vec::new();
        loop {
            match reader.next_record() {
                Ok(Some(scanned)) => records.push((scanned.seq, scanned.record)),
                Ok(None) => break,
                Err(error) => {
                    let offset = reader.pos();
                    return Err(HistoryFileError::Record { offset, error });
                }
            }
        }
        if records.len() as u64 != manifest.record_count {
            return Err(HistoryFileError::RecordCountMismatch {
                expected: manifest.record_count,
                found: records.len() as u64,
            });
        }
        if sha256(records_bytes) != manifest.records.digest {
            return Err(HistoryFileError::SectionChecksum {
                section: Section::Records,
                offset: records_offset,
            });
        }

        // Client history.
        let client_history = match history_slice {
            Some((desc, (offset, slice))) => {
                if sha256(slice) != desc.digest {
                    return Err(HistoryFileError::SectionChecksum {
                        section: Section::ClientHistory,
                        offset,
                    });
                }
                let history = History::decode(slice)
                    .map_err(|error| HistoryFileError::HistoryCorrupt { error })?;
                Some(history)
            }
            None => None,
        };

        Ok(SessionHistory {
            n: manifest.n as usize,
            scheme,
            base_seq: manifest.base_seq,
            base_state,
            records,
            client_history,
            claimed_chain: manifest.claimed_chain,
            claimed_proofs: manifest.claimed_proofs,
        })
    }

    /// Writes the encoded container to `path` atomically and durably
    /// ([`faust_store::file::replace`]: temp file in the same directory,
    /// fsync, rename, directory fsync).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let bytes = self.encode();
        replace(path, true, |file| file.write_all(&bytes))?;
        Ok(())
    }

    /// Reads and parses a container from `path`.
    ///
    /// # Errors
    ///
    /// [`SessionHistory::decode`]'s, and a file that cannot be read as
    /// [`HistoryFileError::Sealed`] of [`StoreError::Io`].
    pub fn read_from(path: &Path) -> Result<Self, HistoryFileError> {
        let bytes = fs::read(path).map_err(|e| HistoryFileError::Sealed(e.into()))?;
        SessionHistory::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_and_section_sizes_are_exact() {
        let section = |label: u8| SectionDesc {
            len: 1000 + label as u32,
            digest: sha256(&[label]),
        };
        for n in [1usize, 3, 64] {
            let manifest = Manifest {
                n: n as u32,
                scheme: scheme_tag(SigScheme::Ed25519),
                base_seq: 17,
                record_count: 99,
                base_state: (n > 1).then(|| section(1)),
                records: section(2),
                client_history: (n > 3).then(|| section(3)),
                claimed_chain: vec![SignedVersion::initial(n); n],
                claimed_proofs: (0..n)
                    .map(|k| (k % 2 == 0).then(Signature::garbage))
                    .collect(),
            };
            assert_eq!(manifest.encoded_len(), manifest.encode().len());
            assert_eq!(
                manifest.records.encoded_len(),
                manifest.records.encode().len()
            );
        }
    }

    #[test]
    fn a_base_state_of_a_few_bytes_claiming_2_pow_24_clients_is_a_typed_error() {
        // The section digest is a plain SHA-256 anyone can recompute, so
        // the base state is untrusted input: six bytes claiming the
        // largest client count the codec takes must fail on the missing
        // entries, not reserve room for 2²⁴ of them first.
        let mut base = Vec::new();
        (1u32 << 24).encode_into(&mut base);
        base.extend_from_slice(&[0, 0]);
        let section = |bytes: &[u8]| SectionDesc {
            len: bytes.len() as u32,
            digest: sha256(bytes),
        };
        let manifest = Manifest {
            n: 1,
            scheme: scheme_tag(SigScheme::Hmac),
            base_seq: 0,
            record_count: 0,
            base_state: Some(section(&base)),
            records: section(&[]),
            client_history: None,
            claimed_chain: vec![SignedVersion::initial(1)],
            claimed_proofs: vec![None],
        }
        .encode();
        let mut file = HISTORY.seal(1, &manifest);
        file.extend_from_slice(&base);
        assert!(matches!(
            SessionHistory::decode(&file),
            Err(HistoryFileError::StateCorrupt {
                error: WireError::Truncated
            })
        ));
    }
}
