//! FAUST — the Fail-Aware Untrusted STorage service of Cachin, Keidar,
//! and Shraer (DSN 2009), layered on the USTOR protocol.
//!
//! A *fail-aware untrusted service* (Definition 5) extends a shared
//! functionality with timestamps on responses and two asynchronous
//! notifications:
//!
//! * `stable_i(W)` — a **stability cut**: all operations of client `C_i`
//!   with timestamps `≤ W[j]` are guaranteed to be in a common view with
//!   client `C_j`; operations stable w.r.t. *all* clients are
//!   linearizable.
//! * `fail_i` — **accurate failure detection**: emitted only when the
//!   server demonstrably violated its specification (forked views,
//!   tampered data, forged history).
//!
//! With a correct server the service is linearizable and wait-free;
//! causal consistency holds always; every inconsistency is eventually
//! either resolved into stability or detected as a failure
//! (completeness), using dummy reads through the server and PROBE /
//! VERSION / FAILURE messages on an offline client-to-client channel.
//!
//! * [`FaustClient`] — the sans-io protocol state machine.
//! * [`OfflineMsg`] — the signed offline messages.
//! * [`FaustDriver`] — deterministic whole-system simulation (clients +
//!   server + both channels) in virtual time: the fault simulator's loop
//!   ([`sim`]), which scripted runs drive with no faults. Used by the
//!   tests, examples, and the experiment harness.
//! * [`FaustHandle`] — the live client session: the same stack under
//!   real concurrency, over one framed TCP connection.
//!
//! # Example
//!
//! ```
//! use faust_core::{FaustDriver, FaustDriverConfig};
//! use faust_types::{ClientId, Value};
//! use faust_ustor::{UstorServer, WorkloadOp};
//!
//! let mut driver = FaustDriver::new(
//!     3,
//!     Box::new(UstorServer::new(3)),
//!     FaustDriverConfig::default(),
//!     b"quickstart",
//! );
//! driver.push_op(ClientId::new(0), WorkloadOp::Write(Value::from("hello")));
//! driver.push_op(ClientId::new(1), WorkloadOp::Read(ClientId::new(0)));
//! let result = driver.run_until(5_000);
//! assert!(result.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod handle;
pub mod offline;
pub mod persist;
pub mod sim;

pub use client::{Actions, FaustClient, FaustClientState, FaustConfig, UserOp};
pub use events::{FailReason, FaustCompletion, Notification, StabilityCut};
pub use handle::{
    offline_mesh, DisconnectCause, Event, FaustHandle, HandleConfig, HandleStats, OfflineLink,
    OpTicket, ReconnectPolicy, SessionCore, SessionOutput, SessionState, WaitError,
};
pub use offline::OfflineMsg;
pub use persist::{checkpoint_session, load_session, save_session};
pub use sim::{
    check_determinism, check_oracles, gen_scenario, investigate, run_and_check, run_sim, CrashSpec,
    FaultClause, FaultPlan, FaustDriver, FaustDriverConfig, ResolutionTally, SimFailure,
    SimRunReport, SimScenario, WalTamper,
};

/// Scripted [`FaustDriver`] runs: stability, detection and determinism.
#[cfg(test)]
mod driver {
    mod determinism_tests;
    mod tests;
}
