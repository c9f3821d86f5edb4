//! Fork-linearizable lock-step storage — the baseline the FAUST paper
//! argues against.
//!
//! The paper's key impossibility observation (Section 1, with proofs in
//! the companion papers [4, 5]) is that **no fork-linearizable storage
//! protocol can be wait-free** even when the server is correct: a reader
//! must wait for a concurrent writer. This crate implements the classic
//! protocol structure that achieves fork-linearizability — a SUNDR-style
//! *lock-step* protocol in which every operation observes and signs one
//! globally agreed state, serialized by a server-side lock — precisely to
//! exhibit that cost:
//!
//! * concurrent operations queue behind the lock ([`LockStepServer`]),
//! * a client that crashes while holding the lock wedges every other
//!   client forever ([`Driver::crash_at`](faust_ustor::Driver::crash_at)
//!   demonstrates this), and
//! * throughput degrades linearly with concurrency, while USTOR's
//!   wait-free pipeline is unaffected (experiment E7).
//!
//! The protocol runs in the same simulation loop as USTOR:
//! [`LockStep`] implements [`faust_ustor::Protocol`], and [`LsDriver`] is
//! [`faust_ustor::Driver`] over it, so both protocols take one script.
//!
//! # Example
//!
//! The same script against both protocols, with the writer crashing
//! while its operation is in flight:
//!
//! ```
//! use faust_baseline::{LockStepServer, LsDriver};
//! use faust_crypto::KeySet;
//! use faust_sim::{DelayModel, SimConfig};
//! use faust_types::{ClientId, Value};
//! use faust_ustor::{Driver, UstorServer, WorkloadOp};
//!
//! let sim = SimConfig { link_delay: DelayModel::Fixed(10), ..SimConfig::default() };
//! let script = [
//!     vec![WorkloadOp::Write(Value::from("v1"))],
//!     vec![WorkloadOp::Pause(5), WorkloadOp::Read(ClientId::new(0))],
//! ];
//! let mut ustor = Driver::new(2, Box::new(UstorServer::new(2)), sim, b"doc");
//! let keys = KeySet::generate(2, b"doc");
//! let mut lockstep = LsDriver::with_keys(LockStepServer::new(2), sim, &keys);
//! for (i, steps) in script.iter().enumerate() {
//!     ustor.push_ops(ClientId::new(i as u32), steps.clone());
//!     lockstep.push_ops(ClientId::new(i as u32), steps.clone());
//! }
//! // The writer dies after the server answered it, before its answer lands.
//! ustor.crash_at(ClientId::new(0), 15);
//! lockstep.crash_at(ClientId::new(0), 15);
//! assert_eq!(ustor.run().completions[1].len(), 1); // wait-free
//! assert_eq!(lockstep.run().completions[1].len(), 0); // wedged
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod protocol;

pub use driver::{LockStep, LsDriver, LsMsg};
pub use protocol::{
    LockStepClient, LockStepServer, LsCommit, LsCompletion, LsFault, LsGrant, LsSubmit, SignedState,
};
