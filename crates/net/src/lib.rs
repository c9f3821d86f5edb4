//! Transport layer for the USTOR server engine.
//!
//! The protocol state machines in `faust-ustor` are sans-io; this crate
//! defines how `(client, message)` pairs physically reach the server-side
//! engine and how replies travel back. One trait, three implementations:
//!
//! * [`queue`] — a deterministic, single-threaded queue pair. The USTOR
//!   and lock-step simulation drivers use it: the simulator delivers a
//!   message, pushes it into the queue transport, lets the engine drain
//!   it, and forwards the outputs back into virtual time. No threads, no
//!   syscalls, bit-for-bit reproducible. (The FAUST simulator needs no
//!   transport: its server node calls the engine's serve round directly.)
//! * [`channel`] — in-process `std::sync::mpsc` channels, for clients
//!   and the engine on threads of one process.
//! * [`reactor`] (unix) — the one socket server: length-prefixed frames
//!   ([`faust_types::frame`]) over TCP on a single readiness-driven event
//!   loop with explicit admission control (bounded ingress queues,
//!   connection/memory caps with shed-on-accept, slow-consumer
//!   excision): connections ≫ threads.
//!
//! The client side mirrors the server side: [`ClientTransport`] is the
//! trait a client session drives, and [`ClientConn`] implements it for
//! both the channel transport and TCP ([`tcp::connect`]) — `faust-core`'s
//! `FaustHandle` is written once and runs over either unchanged.
//!
//! # Invariants
//!
//! * Transports move `(ClientId, UstorMsg)` pairs verbatim: no
//!   reordering within one client's stream, no inspection — signatures
//!   and their verification are the business of `faust-crypto` and the
//!   engine's ingress policy, never the transport's.
//! * Sends are best-effort (a departed client's replies are dropped);
//!   receives surface closure as [`Incoming::Closed`] exactly once all
//!   clients are gone.
//!
//! # Example
//!
//! The deterministic queue pair, standing where the simulator would:
//!
//! ```
//! use faust_net::{Incoming, QueueTransport, ServerTransport};
//! use faust_types::{ClientId, UstorMsg, Version, CommitMsg};
//! use faust_crypto::Signature;
//!
//! let commit = CommitMsg {
//!     version: Version::initial(2),
//!     commit_sig: Signature::garbage(),
//!     proof_sig: Signature::garbage(),
//! };
//! let mut t = QueueTransport::new();
//! t.push_incoming(ClientId::new(0), UstorMsg::Commit(commit.clone()));
//! // The engine side drains it...
//! let Incoming::Msg(from, _msg) = t.recv() else { panic!("queued above") };
//! assert_eq!(from, ClientId::new(0));
//! // ...and can address replies back at clients.
//! t.send(ClientId::new(0), UstorMsg::Commit(commit));
//! assert_eq!(t.drain_outgoing().count(), 1);
//! ```

// `deny` rather than `forbid`: the reactor's raw epoll/poll syscall shim
// (`reactor::sys`) is the crate's one audited `allow(unsafe_code)` scope.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod chaos;
pub mod conn;
pub mod dial;
pub mod queue;
#[cfg(unix)]
pub mod reactor;
pub mod tcp;

pub use channel::ChannelServerTransport;
pub use chaos::{KillSwitch, KillableTransport};
pub use conn::{ClientConn, ClientTransport, ConnSender, TransportClosed};
pub use dial::{ChannelDialer, ClientDialer, TcpDialer};
pub use queue::QueueTransport;
#[cfg(unix)]
pub use reactor::{DisconnectReason, ReactorConfig, ReactorStats, ReactorTransport, MAX_CLIENTS};

use faust_types::{ClientId, UstorMsg};
use std::time::Instant;

/// One receive attempt on a server-side transport.
#[derive(Debug)]
pub enum Incoming {
    /// A message from a client.
    Msg(ClientId, UstorMsg),
    /// Nothing available right now (only returned by non-blocking
    /// transports such as [`QueueTransport`]); the caller should return
    /// control to whatever schedules deliveries.
    Idle,
    /// A [`ServerTransport::recv_deadline`] call reached its deadline
    /// with no traffic. The caller should run its due work (a durability
    /// flush) and come back; the transport is still open.
    TimedOut,
    /// The transport is finished: every client connection has ended.
    Closed,
}

/// Server side of a transport: a source of client messages and a sink for
/// client-addressed replies.
///
/// Blocking implementations ([`channel`], [`reactor`]) park in
/// [`ServerTransport::recv`] until traffic arrives and never return
/// [`Incoming::Idle`]; the deterministic [`queue`] implementation returns
/// `Idle` when drained. Sends are best-effort: a message to a departed
/// client is silently dropped, exactly as a real server cannot force a
/// client to stay connected.
pub trait ServerTransport {
    /// Receives the next client message, `Idle`, or `Closed`.
    fn recv(&mut self) -> Incoming;

    /// Receives like [`ServerTransport::recv`], but returns
    /// [`Incoming::TimedOut`] once `deadline` passes with nothing to
    /// deliver — how a serve loop honours a group-commit flush deadline
    /// without stranding held replies behind a blocking receive.
    ///
    /// The default simply delegates to `recv`, which is correct for
    /// non-blocking transports (they return [`Incoming::Idle`] instead
    /// of parking); blocking transports override it with a real timed
    /// wait.
    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        let _ = deadline;
        self.recv()
    }

    /// Non-blocking receive: a message if one is already available,
    /// otherwise `Idle` (or `Closed`). Engine loops use this to gather a
    /// whole batch of already-arrived traffic before processing.
    fn try_recv(&mut self) -> Incoming;

    /// Sends `msg` to client `to` (best-effort).
    fn send(&mut self, to: ClientId, msg: UstorMsg);

    /// Sends a whole batch of messages to client `to` (best-effort),
    /// preserving their order.
    ///
    /// The default loops over [`ServerTransport::send`]; transports with
    /// per-message syscall cost override it to coalesce the batch into
    /// one write — the reactor encodes every frame into the client's
    /// egress buffer and issues one socket write per client per batch.
    fn send_batch(&mut self, to: ClientId, msgs: Vec<UstorMsg>) {
        for msg in msgs {
            self.send(to, msg);
        }
    }
}
