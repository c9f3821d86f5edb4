//! Offline audit for the FAUST reproduction: signed session histories
//! and a certifier that proves fork-linearizability or pinpoints the
//! divergence.
//!
//! The online protocol (`faust-ustor`, `faust-core`) detects server
//! misbehaviour *while running*. This crate adds the complementary
//! offline story: a server session — the WAL records, the state they
//! apply on top of, the final commit chain, and optionally the
//! client-observed history — is exported into a single
//! self-describing `FAUSTHIS` file, and `faust audit` replays that file
//! with nothing but the clients' verification keys. The auditor is a
//! second, independent oracle: it shares no code path with the online
//! fail-aware machinery, so agreement between the two is strong evidence
//! both are right.
//!
//! * [`SessionHistory`] / [`mod@format`] — the container: a sealed,
//!   checksummed manifest binding checksummed sections, records in the
//!   WAL's framing — both framings `faust-store`'s, read by its readers;
//!   typed, offset-precise rejection of damaged files
//!   ([`HistoryFileError`]).
//! * [`export_store_dir`] / [`export_records`] / [`export`] — building
//!   containers from a `faust-store` directory (via the read-only
//!   `LogCursor`) — what `faust export-history`, `faust audit DIR` and
//!   every simulated run export — or from an in-memory record stream.
//! * [`audit`] / [`replay`] — the certifier. Verdicts are typed:
//!   [`AuditVerdict::Certified`] carries the certified scope,
//!   [`AuditVerdict::Diverged`] carries the first divergent version and
//!   a [`Divergence`] with the evidence — for forks, the two signed
//!   incomparable versions that convict the server to any third party.
//! * [`report_to_json`] — the CI artifact format.
//!
//! The threat model — what the auditor can and cannot prove, and why the
//! container's own checksums are *integrity* only — is documented in
//! `docs/audit.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod format;
pub mod json;
pub mod replay;

pub use export::{export_records, export_store_dir, ExportError};
pub use format::{HistoryFileError, Section, SessionHistory, HISTORY};
pub use json::report_to_json;
pub use replay::{audit, AuditError, AuditReport, AuditVerdict, Divergence, SigKind};
