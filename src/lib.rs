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
//!   │   · optional ingress verification of each SUBMIT, with the │
//!   │     strict check clients run — sound in the paper's trust  │
//!   │     model with public-key registries                       │
//!   │   · wraps any `Server`: the correct UstorServer or a       │
//!   │     Byzantine adversary                                    │
//!   └──────────────▲──────────────────────────────▲──────────────┘
//!                  │ ServerEngine::round          │ serve loop over a
//!                  │ in virtual time              │ ServerTransport (faust-net)
//!          ┌───────┴─────────┐           ┌────────┴─────────┐
//!          │                 │           │                  │
//!    ustor::Driver   core::FaustDriver QueueTransport   ReactorTransport
//!    (scripted       (full FAUST       (in-process      (unix: the socket
//!    USTOR runs)     stack, fault      link of          server — frames,
//!                    plan, oracles)    faustbench)      one event loop,
//!                                                       admission control
//!                                                       — docs/networking.md)
//!                                                              ▲
//!                                                              │ framed TCP
//!                                                       net::ClientConn
//!                                                       (one socket per
//!                                                       client session)
//! ```
//!
//! One engine round ([`ustor::ServerEngine::round`]) serves all of them:
//! [`ustor::spawn_engine`] runs the [`ustor::serve`] loop on a thread
//! behind a TCP listener, with live [`client::FaustHandle`] sessions on
//! the other side, and the two simulators call the round from their
//! server nodes inside virtual time, no transport in between. The USTOR
//! simulation driver ([`ustor::Driver`]) is one loop over the
//! [`ustor::Protocol`] trait, so the lock-step baseline
//! ([`baseline::LsDriver`]) runs in it too, on its own server; the FAUST
//! simulator ([`core::FaustDriver`]) is a separate loop with ticks, the
//! offline channel and a fault plan. A live client session holds one
//! [`net::ClientConn`]: a framed TCP socket it reads on its own thread.
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
