//! Umbrella crate for the FAUST reproduction.
//!
//! Re-exports the full protocol stack. See the individual crates for
//! details; start with [`core`] for the fail-aware service and [`ustor`]
//! for the underlying storage protocol.
//!
//! # Architecture: engine — session — transport
//!
//! The server side is layered so that *what the server computes* is
//! independent of *how bytes reach it*:
//!
//! ```text
//!   ┌────────────────────────────────────────────────────────────┐
//!   │ ServerEngine (faust-ustor)                                 │
//!   │   · pure: enqueue (ClientId, UstorMsg) → process → poll    │
//!   │   · per-client Session state (counters, timestamps, x̄)     │
//!   │   · optional ingress verification of SUBMIT signatures,    │
//!   │     per-message or batched (HMAC: amortized key schedule;  │
//!   │     Ed25519: one multi-scalar batch equation) — sound in   │
//!   │     the paper's trust model with public-key registries     │
//!   │   · wraps any `Server`: the correct UstorServer or a       │
//!   │     Byzantine adversary                                    │
//!   └──────────────────────────▲─────────────────────────────────┘
//!                              │ ServerTransport (faust-net)
//!          ┌───────────────────┴──┬──────────────────────┐
//!          │                      │                      │
//!   QueueTransport         channel transport      ReactorTransport
//!   (deterministic sim     (std::sync::mpsc,      (unix: the socket server —
//!   adapter; the           engine and clients     length-prefixed frames, one
//!   discrete-event         on threads of one      event loop, many conns,
//!   simulator stays        process)               admission control —
//!   bit-reproducible)                             docs/networking.md)
//! ```
//!
//! One engine code path serves all three: the simulation drivers
//! ([`ustor::Driver`],
//! [`core::FaustDriver`]) pump it through the
//! queue transport inside virtual time, while [`ustor::spawn_engine`]
//! runs it on a thread behind a channel or a real TCP listener, with
//! live [`client::FaustHandle`] sessions on the other side. Client
//! threads hold a transport-independent [`net::ClientConn`].
//!
//! Messages are encoded by the hand-rolled, byte-exact codec in
//! [`types::wire`]; stream transports add the
//! length-prefixed framing of [`types::frame`].
//!
//! Below the engine sits a pluggable [`ustor::ServerBackend`]: the
//! volatile [`ustor::MemoryBackend`], or the crash-safe
//! [`store::PersistentBackend`] (append-only write-ahead log +
//! snapshots, `docs/persistence.md`), under which a restarted server
//! resumes mid-protocol invisibly to clients — and a rolled-back log is
//! detected by them as a violation.
//! The single-threaded many-connection reactor landed exactly this way — behind
//! `ServerTransport`/`ServerEngine`, without touching protocol code;
//! further scaling work follows the same seam (see ROADMAP.md).
//!
//! Orthogonal to the serving stack, [`audit`] adds the offline half of
//! fail-awareness: a store directory (or an in-memory record stream)
//! exports as a signed, self-authenticating `FAUSTHIS` session history,
//! and `faust audit` replays it after the fact — certifying
//! fork-linearizability or pinning the exact first divergent version
//! with a typed cause (`docs/audit.md`).

#![forbid(unsafe_code)]

/// The first-class fail-aware client API: live [`client::FaustHandle`]
/// sessions with pipelined operations and a typed [`client::Event`]
/// stream. (An alias for [`faust_core::handle`].)
pub use faust_core::handle as client;

pub use faust_audit as audit;
pub use faust_baseline as baseline;
pub use faust_consistency as consistency;
pub use faust_core as core;
pub use faust_crypto as crypto;
pub use faust_net as net;
pub use faust_sim as sim;
pub use faust_store as store;
pub use faust_types as types;
pub use faust_ustor as ustor;
