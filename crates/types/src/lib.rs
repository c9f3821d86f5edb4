//! Protocol data model for the FAUST / USTOR reproduction.
//!
//! This crate defines every value that crosses a protocol boundary:
//!
//! * [`ids`] — client indices and operation timestamps. In the paper's SWMR
//!   register model, register `X_i` is owned by client `C_i`, so registers
//!   are also identified by [`ids::ClientId`].
//! * [`value`] — register values (opaque byte strings; the paper's domain
//!   `X ∪ {⊥}`).
//! * [`version`] — timestamp vectors, digest vectors, and *versions*
//!   `(V, M)` with the partial order `≼` of Definition 7.
//! * [`op`] — operation kinds, invocation tuples `(i, oc, j, σ)`, and the
//!   canonical byte strings that get signed (SUBMIT / DATA / COMMIT /
//!   PROOF).
//! * [`wire`] — the SUBMIT / REPLY / COMMIT messages of Algorithms 1–2 with
//!   an exact, hand-rolled binary encoding. Byte-accurate sizes feed the
//!   paper's `O(n)`-overhead experiment (E6 of the `experiments` binary
//!   in `faust-bench`).
//! * [`frame`] — length-prefixed stream framing over the wire encoding,
//!   with an incremental decoder; this is what the TCP transport in
//!   `faust-net` puts on the socket.
//! * [`history`] — invocation/response records of executions, consumed by
//!   the `faust-consistency` checkers.
//! * [`testutil`] — the mutation harness every crate's byte-level sweeps
//!   share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod history;
pub mod ids;
pub mod op;
pub mod testutil;
pub mod value;
pub mod version;
pub mod wire;

pub use frame::{FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use history::{History, OpId, OpOutcome, OpRecord};
pub use ids::{ClientId, Timestamp};
pub use op::{InvocationTuple, OpKind};
pub use value::Value;
pub use version::{DigestVec, SignedVersion, TimestampVec, Version, VersionCmp};
pub use wire::{
    decode_version_against, encode_version_against, AgainstOwn, CommitDelta, CommitMsg, Delta,
    LeftOut, Proofs, ReadReply, ReplyMsg, Sink, SubmitMsg, UstorMsg, VersionDelta, VersionEntry,
    Wire, WireError,
};
