//! USTOR — the weak fork-linearizable untrusted storage protocol of
//! *Fail-Aware Untrusted Storage* (Cachin, Keidar, Shraer; DSN 2009),
//! Algorithms 1 and 2.
//!
//! USTOR emulates `n` single-writer multi-reader registers on an untrusted
//! server. With a correct server every execution is linearizable and
//! wait-free; with a Byzantine server the protocol guarantees *weak
//! fork-linearizability*: views may fork, but each client's view preserves
//! causality, weak real-time order, and at-most-one-join — and any reply
//! inconsistent with those guarantees is detected and pinned on the server
//! ([`Fault`]).
//!
//! The protocol costs one round (SUBMIT → REPLY) per operation plus an
//! asynchronous COMMIT, with `O(n)`-bit message overhead.
//!
//! * [`UstorClient`] — the client state machine (Algorithm 1), sans-io.
//! * [`UstorServer`] — the correct server (Algorithm 2); the [`Server`]
//!   trait abstracts over correct and Byzantine implementations.
//! * [`adversary`] — Byzantine servers: split-brain forks, the Figure 3
//!   stale-read attack, reply tampering, and crash-silence.
//! * [`Driver`] — a deterministic simulation harness producing recorded
//!   histories for tests and experiments. It is one loop over the
//!   [`Protocol`] trait: [`Ustor`] here, the lock-step baseline in
//!   `faust-baseline`.
//!
//! # Invariants
//!
//! * Clients are sequential (one operation in flight) and halt forever on
//!   the first detected [`Fault`] — the paper's `output fail_i; halt`.
//! * All protocol code is scheme-agnostic: signatures come from
//!   `faust-crypto` behind the `Signer`/`Verifier` traits, and the same
//!   stack runs over HMAC or Ed25519 keys
//!   ([`Driver::new_with_scheme`]). Server-side ingress verification
//!   ([`ServerEngine::with_verification`]) is *sound* only with a public-key
//!   registry — see `docs/trust-model.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use faust_sim::SimConfig;
//! use faust_types::{ClientId, Value};
//! use faust_ustor::{Driver, UstorServer, WorkloadOp};
//!
//! let mut driver = Driver::new(2, Box::new(UstorServer::new(2)), SimConfig::default(), b"seed");
//! driver.push_op(ClientId::new(0), WorkloadOp::Write(Value::from("hello")));
//! driver.push_op(ClientId::new(1), WorkloadOp::Read(ClientId::new(0)));
//! let result = driver.run();
//! assert_eq!(result.incomplete_ops, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod client;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod reply_cache;
pub mod server;

pub use client::{
    BeginError, CommitMode, OpCompletion, PendingOpState, UstorClient, UstorClientState,
};
pub use driver::{random_workloads, Driver, Protocol, RunResult, Ustor, WorkloadOp};
pub use engine::{serve, spawn_engine, EngineStats, ServerEngine, Session};
pub use fault::{CrashRestartServer, Fault, RestartHook};
pub use reply_cache::ReplyCache;
pub use server::{
    admits, MemEntry, MemoryBackend, Server, ServerBackend, ServerState, SessionResume, UstorServer,
};
