//! Histories of executions: invocation/response records consumed by the
//! consistency checkers in `faust-consistency`.
//!
//! A [`History`] is the paper's "sequence of invocations and responses of
//! `F` occurring in an execution", represented as one [`OpRecord`] per
//! operation with invocation and (optional) response times. Real-time
//! precedence `o <_σ o'` (operation `o` completes before `o'` is invoked)
//! is derived from those times.

use crate::ids::{ClientId, Timestamp};
use crate::op::OpKind;
use crate::value::Value;
use crate::wire::{Sink, Wire, WireError};
use std::fmt;

/// Unique identifier of an operation within a [`History`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The outcome of an operation, if it completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// Still pending (no matching response in the history).
    Pending,
    /// A write completed (`OK`).
    WriteOk,
    /// A read completed, returning a value (`None` = the initial `⊥`).
    ReadReturned(Option<Value>),
}

/// One operation of a history: a register read or write with its
/// invocation/response events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Unique id within the history.
    pub id: OpId,
    /// The invoking client.
    pub client: ClientId,
    /// Read or write.
    pub kind: OpKind,
    /// Target register (for writes, always the client's own register).
    pub register: ClientId,
    /// The written value (writes only).
    pub written: Option<Value>,
    /// Outcome (response event), if any.
    pub outcome: OpOutcome,
    /// Time of the invocation event.
    pub invoked_at: u64,
    /// Time of the response event, if completed.
    pub responded_at: Option<u64>,
    /// The USTOR timestamp returned with the response, when the recording
    /// layer knows it (used by stability experiments).
    pub timestamp: Option<Timestamp>,
}

impl OpRecord {
    /// Whether the operation completed.
    pub fn is_complete(&self) -> bool {
        !matches!(self.outcome, OpOutcome::Pending)
    }

    /// The value this operation wrote, if it is a write.
    pub fn written_value(&self) -> Option<&Value> {
        self.written.as_ref()
    }

    /// The value a completed read returned (`Some(None)` = read returned
    /// `⊥`; `None` = not a completed read).
    pub fn read_result(&self) -> Option<Option<&Value>> {
        match &self.outcome {
            OpOutcome::ReadReturned(v) => Some(v.as_ref()),
            _ => None,
        }
    }
}

/// A recorded execution history.
///
/// # Example
///
/// ```
/// use faust_types::history::History;
/// use faust_types::{ClientId, Value};
///
/// let mut h = History::new();
/// let w = h.begin_write(ClientId::new(0), Value::from("x"), 0);
/// h.complete_write(w, 1, None);
/// let r = h.begin_read(ClientId::new(1), ClientId::new(0), 2);
/// h.complete_read(r, 3, Some(Value::from("x")), None);
/// assert!(h.precedes(w, r));
/// assert_eq!(h.complete_ops().count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    ops: Vec<OpRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records a write invocation; returns the new operation's id.
    pub fn begin_write(&mut self, client: ClientId, value: Value, time: u64) -> OpId {
        let id = OpId(self.ops.len() as u64);
        self.ops.push(OpRecord {
            id,
            client,
            kind: OpKind::Write,
            register: client,
            written: Some(value),
            outcome: OpOutcome::Pending,
            invoked_at: time,
            responded_at: None,
            timestamp: None,
        });
        id
    }

    /// Records a read invocation; returns the new operation's id.
    pub fn begin_read(&mut self, client: ClientId, register: ClientId, time: u64) -> OpId {
        let id = OpId(self.ops.len() as u64);
        self.ops.push(OpRecord {
            id,
            client,
            kind: OpKind::Read,
            register,
            written: None,
            outcome: OpOutcome::Pending,
            invoked_at: time,
            responded_at: None,
            timestamp: None,
        });
        id
    }

    /// Records the response of a write.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or not a pending write.
    pub fn complete_write(&mut self, id: OpId, time: u64, timestamp: Option<Timestamp>) {
        let op = &mut self.ops[id.0 as usize];
        assert_eq!(op.kind, OpKind::Write, "{id} is not a write");
        assert!(
            matches!(op.outcome, OpOutcome::Pending),
            "{id} already complete"
        );
        op.outcome = OpOutcome::WriteOk;
        op.responded_at = Some(time);
        op.timestamp = timestamp;
    }

    /// Records the response of a read.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or not a pending read.
    pub fn complete_read(
        &mut self,
        id: OpId,
        time: u64,
        value: Option<Value>,
        timestamp: Option<Timestamp>,
    ) {
        let op = &mut self.ops[id.0 as usize];
        assert_eq!(op.kind, OpKind::Read, "{id} is not a read");
        assert!(
            matches!(op.outcome, OpOutcome::Pending),
            "{id} already complete"
        );
        op.outcome = OpOutcome::ReadReturned(value);
        op.responded_at = Some(time);
        op.timestamp = timestamp;
    }

    /// All operations, in invocation order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Looks up an operation by id.
    pub fn op(&self, id: OpId) -> Option<&OpRecord> {
        self.ops.get(id.0 as usize)
    }

    /// The completed operations (`complete(σ)` in the paper).
    pub fn complete_ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// The subsequence of operations invoked by `client` (`σ|C_i`).
    pub fn client_ops(&self, client: ClientId) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(move |o| o.client == client)
    }

    /// Real-time precedence: `a` completed before `b` was invoked.
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown.
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        let (a, b) = (&self.ops[a.0 as usize], &self.ops[b.0 as usize]);
        match a.responded_at {
            Some(ra) => ra < b.invoked_at,
            None => false,
        }
    }

    /// Whether two operations are concurrent (neither precedes the other).
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Checks well-formedness: per client, operations alternate invocation
    /// and response, i.e. no client invokes a new operation while another
    /// of its operations is pending, and response times are consistent.
    pub fn is_well_formed(&self) -> bool {
        let clients: std::collections::BTreeSet<ClientId> =
            self.ops.iter().map(|o| o.client).collect();
        for c in clients {
            let mut ops: Vec<&OpRecord> = self.client_ops(c).collect();
            ops.sort_by_key(|o| o.invoked_at);
            for pair in ops.windows(2) {
                let (prev, next) = (pair[0], pair[1]);
                match prev.responded_at {
                    None => return false, // invoked next while prev pending forever
                    Some(r) if r > next.invoked_at => return false,
                    _ => {}
                }
            }
        }
        self.ops
            .iter()
            .all(|o| o.responded_at.is_none_or(|r| r >= o.invoked_at))
    }

    /// Checks the paper's standing assumption that all written values are
    /// unique.
    pub fn written_values_unique(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.ops
            .iter()
            .filter_map(|o| o.written.as_ref())
            .all(|v| seen.insert(v.clone()))
    }
}

impl Wire for OpId {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.0.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(OpId(u64::decode_from(input)?))
    }
}

impl Wire for OpOutcome {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            OpOutcome::Pending => out.push(0),
            OpOutcome::WriteOk => out.push(1),
            OpOutcome::ReadReturned(v) => {
                out.push(2);
                v.encode_into(out);
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(OpOutcome::Pending),
            1 => Ok(OpOutcome::WriteOk),
            2 => Ok(OpOutcome::ReadReturned(Option::<Value>::decode_from(
                input,
            )?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for OpRecord {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.id.encode_into(out);
        self.client.encode_into(out);
        self.kind.encode_into(out);
        self.register.encode_into(out);
        self.written.encode_into(out);
        self.outcome.encode_into(out);
        self.invoked_at.encode_into(out);
        self.responded_at.encode_into(out);
        self.timestamp.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(OpRecord {
            id: OpId::decode_from(input)?,
            client: ClientId::decode_from(input)?,
            kind: OpKind::decode_from(input)?,
            register: ClientId::decode_from(input)?,
            written: Option::<Value>::decode_from(input)?,
            outcome: OpOutcome::decode_from(input)?,
            invoked_at: u64::decode_from(input)?,
            responded_at: Option::<u64>::decode_from(input)?,
            timestamp: Option::<Timestamp>::decode_from(input)?,
        })
    }
}

impl Wire for History {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.ops.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let ops = Vec::<OpRecord>::decode_from(input)?;
        // Ids are positional everywhere else in this module; a decoded
        // history must agree or `op()`/`precedes()` lookups would lie.
        for (i, op) in ops.iter().enumerate() {
            if op.id.0 != i as u64 {
                return Err(WireError::BadLength(op.id.0));
            }
        }
        Ok(History { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    #[test]
    fn precedence_and_concurrency() {
        let mut h = History::new();
        let a = h.begin_write(c(0), Value::from("a"), 0);
        h.complete_write(a, 5, None);
        let b = h.begin_read(c(1), c(0), 10);
        h.complete_read(b, 12, Some(Value::from("a")), None);
        let d = h.begin_read(c(2), c(0), 11);
        h.complete_read(d, 20, Some(Value::from("a")), None);

        assert!(h.precedes(a, b));
        assert!(!h.precedes(b, a));
        assert!(h.concurrent(b, d));
        assert!(!h.concurrent(a, d));
    }

    #[test]
    fn pending_ops_do_not_precede() {
        let mut h = History::new();
        let a = h.begin_write(c(0), Value::from("a"), 0);
        let b = h.begin_read(c(1), c(0), 100);
        assert!(!h.precedes(a, b));
        assert!(h.concurrent(a, b));
        assert_eq!(h.complete_ops().count(), 0);
    }

    #[test]
    fn well_formedness_detects_overlap() {
        let mut h = History::new();
        let a = h.begin_write(c(0), Value::from("a"), 0);
        h.complete_write(a, 10, None);
        // Same client invokes at t=5, before the previous response at t=10.
        let _b = h.begin_read(c(0), c(0), 5);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_accepts_sequential_client() {
        let mut h = History::new();
        let a = h.begin_write(c(0), Value::from("a"), 0);
        h.complete_write(a, 1, None);
        let b = h.begin_read(c(0), c(1), 2);
        h.complete_read(b, 3, None, None);
        // A pending *last* op is fine.
        let _p = h.begin_read(c(0), c(1), 4);
        assert!(h.is_well_formed());
    }

    #[test]
    fn uniqueness_check() {
        let mut h = History::new();
        let a = h.begin_write(c(0), Value::from("same"), 0);
        h.complete_write(a, 1, None);
        assert!(h.written_values_unique());
        let _b = h.begin_write(c(1), Value::from("same"), 2);
        assert!(!h.written_values_unique());
    }

    #[test]
    fn client_subhistory() {
        let mut h = History::new();
        h.begin_write(c(0), Value::from("a"), 0);
        h.begin_write(c(1), Value::from("b"), 0);
        h.begin_write(c(0), Value::from("c"), 5);
        assert_eq!(h.client_ops(c(0)).count(), 2);
        assert_eq!(h.client_ops(c(1)).count(), 1);
    }

    #[test]
    fn wire_roundtrip() {
        let mut h = History::new();
        let w = h.begin_write(c(0), Value::from("x"), 0);
        h.complete_write(w, 5, Some(3));
        let r = h.begin_read(c(1), c(0), 6);
        h.complete_read(r, 9, Some(Value::from("x")), Some(1));
        let _pending = h.begin_read(c(2), c(0), 10);
        let none_read = h.begin_read(c(1), c(2), 11);
        h.complete_read(none_read, 12, None, None);

        let bytes = h.encode();
        let back = History::decode(&bytes).unwrap();
        assert_eq!(back, h);

        // Non-positional ids are rejected, truncation is structured.
        let mut forged = h.clone();
        forged.ops[0].id = OpId(7);
        assert!(History::decode(&forged.encode()).is_err());
        assert_eq!(
            History::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn read_result_accessor() {
        let mut h = History::new();
        let r = h.begin_read(c(0), c(1), 0);
        h.complete_read(r, 1, None, None);
        assert_eq!(h.op(r).unwrap().read_result(), Some(None));
    }
}
