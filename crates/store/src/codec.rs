//! Binary encodings for persisted values, built entirely from the
//! [`Wire`] codecs of `faust-types` — the on-disk format reuses the
//! byte-exact message encodings the protocol already ships, so a
//! *scanned* record is the message the server acknowledged. (The log may
//! store a COMMIT as a delta against the previous one in its file; that
//! form is private to `crate::log`, which resolves it while scanning.)

use faust_crypto::sig::Signature;
use faust_types::{ClientId, CommitMsg, Sink, SubmitMsg, Timestamp, Value, Wire, WireError};
use faust_ustor::{MemEntry, Server, ServerState};

/// One logged state mutation: an inbound protocol message, replayable
/// against any [`Server`].
///
/// Logging *inputs* rather than state deltas covers every mutation with
/// one record: a SUBMIT updates `MEM` and appends to the schedule `L`
/// (and may carry a piggybacked COMMIT), a COMMIT advances `SVER` and
/// prunes `L`. The server is deterministic, so replaying the accepted
/// inputs in order rebuilds bit-identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// `⟨SUBMIT, …⟩` accepted from `from`.
    Submit {
        /// The submitting client.
        from: ClientId,
        /// The message, exactly as received.
        msg: SubmitMsg,
    },
    /// `⟨COMMIT, …⟩` accepted from `from`.
    Commit {
        /// The committing client.
        from: ClientId,
        /// The message, exactly as received.
        msg: CommitMsg,
    },
}

impl LogRecord {
    /// Applies this record to `server`, returning the replies it
    /// produces — the live write path (log first, then apply the very
    /// record that was logged, no copies).
    pub fn apply(self, server: &mut dyn Server) -> Vec<(ClientId, faust_types::ReplyMsg)> {
        match self {
            LogRecord::Submit { from, msg } => server.on_submit(from, msg),
            LogRecord::Commit { from, msg } => server.on_commit(from, msg),
        }
    }

    /// Replays this record against `server`, discarding the replies (the
    /// original replies were delivered before the crash; recovery only
    /// rebuilds state).
    pub fn replay(self, server: &mut dyn Server) {
        self.apply(server);
    }

    /// The client the logged message came from.
    pub fn from(&self) -> ClientId {
        match self {
            LogRecord::Submit { from, .. } | LogRecord::Commit { from, .. } => *from,
        }
    }

    /// The timestamp of the logged SUBMIT, if this record holds one —
    /// what recovery tags the rebuilt reply with so a restarted engine
    /// can answer a resent SUBMIT from its duplicate cache.
    pub fn submit_timestamp(&self) -> Option<Timestamp> {
        match self {
            LogRecord::Submit { msg, .. } => Some(msg.timestamp),
            LogRecord::Commit { .. } => None,
        }
    }

    /// The COMMIT this record carries, standalone or piggybacked on a
    /// SUBMIT — what recovery prunes the sender's duplicate cache by.
    pub fn commit(&self) -> Option<&CommitMsg> {
        match self {
            LogRecord::Submit { msg, .. } => msg.piggyback.as_ref(),
            LogRecord::Commit { msg, .. } => Some(msg),
        }
    }
}

impl Wire for LogRecord {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            LogRecord::Submit { from, msg } => {
                out.push(0);
                from.encode_into(out);
                msg.encode_into(out);
            }
            LogRecord::Commit { from, msg } => {
                out.push(1);
                from.encode_into(out);
                msg.encode_into(out);
            }
        }
    }

    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(LogRecord::Submit {
                from: ClientId::decode_from(input)?,
                msg: SubmitMsg::decode_from(input)?,
            }),
            1 => Ok(LogRecord::Commit {
                from: ClientId::decode_from(input)?,
                msg: CommitMsg::decode_from(input)?,
            }),
            // Do not reuse tag 2: logs of the retired multi-log layout
            // hold it, and they must stay refused, not misread. Tag 3 is
            // the log's COMMIT delta, which only `crate::log` decodes.
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Encodes a [`MemEntry`] (helper for the snapshot payload; `MemEntry`
/// lives in `faust-ustor`, which does not know about persistence).
fn encode_mem_entry(entry: &MemEntry, out: &mut Vec<u8>) {
    entry.timestamp.encode_into(out);
    entry.value.encode_into(out);
    entry.data_sig.encode_into(out);
}

fn decode_mem_entry(input: &mut &[u8]) -> Result<MemEntry, WireError> {
    Ok(MemEntry {
        timestamp: Timestamp::decode_from(input)?,
        value: Option::<Value>::decode_from(input)?,
        data_sig: Option::<Signature>::decode_from(input)?,
    })
}

/// Encodes a full [`ServerState`] (the snapshot payload body).
pub fn encode_state(state: &ServerState, out: &mut Vec<u8>) {
    (state.mem.len() as u32).encode_into(out);
    for entry in &state.mem {
        encode_mem_entry(entry, out);
    }
    state.sver.encode_into(out);
    state.proofs.encode_into(out);
    state.last_committer.encode_into(out);
    state.pending.encode_into(out);
}

/// Decodes a [`ServerState`] and validates its internal arity (all
/// per-client vectors must agree and the last committer must be in
/// range), so [`faust_ustor::UstorServer::from_state`] cannot panic on
/// hostile input.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, malformed fields, or arity
/// mismatch (reported as [`WireError::BadLength`]).
pub fn decode_state(input: &mut &[u8]) -> Result<ServerState, WireError> {
    let n = u32::decode_from(input)? as usize;
    // n = 0 is rejected outright: no deployment has zero clients, and a
    // zero-client state would defeat the last-committer range check
    // below (every ClientId would be out of range, including the one
    // `UstorServer::new` starts with).
    if n == 0 || n as u64 > (1 << 24) {
        return Err(WireError::BadLength(n as u64));
    }
    // `n` is the input's claim: reserve no more entries than there are
    // bytes left (each entry takes at least one), as `decode_len` does.
    let mut mem = Vec::with_capacity(n.min(input.len()));
    for _ in 0..n {
        mem.push(decode_mem_entry(input)?);
    }
    let state = ServerState {
        mem,
        sver: Wire::decode_from(input)?,
        proofs: Wire::decode_from(input)?,
        last_committer: ClientId::decode_from(input)?,
        pending: Wire::decode_from(input)?,
    };
    if state.sver.len() != n || state.proofs.len() != n {
        return Err(WireError::BadLength(state.sver.len() as u64));
    }
    if state.last_committer.index() >= n {
        return Err(WireError::BadLength(state.last_committer.index() as u64));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sig::KeySet;
    use faust_ustor::{UstorClient, UstorServer};

    fn client(n: usize, i: u32) -> UstorClient {
        let keys = KeySet::generate(n, b"store-codec");
        UstorClient::new(
            ClientId::new(i),
            n,
            keys.keypair(i).unwrap().clone(),
            keys.registry(),
        )
    }

    #[test]
    fn log_record_roundtrips() {
        let mut c0 = client(2, 0);
        let submit = c0.begin_write(Value::from("payload")).unwrap();
        let rec = LogRecord::Submit {
            from: ClientId::new(0),
            msg: submit.clone(),
        };
        assert_eq!(LogRecord::decode(&rec.encode()), Ok(rec));

        // A commit record too, via a real protocol step.
        let mut server = UstorServer::new(2);
        let (_, reply) = server.on_submit(ClientId::new(0), submit).pop().unwrap();
        let (commit, _) = c0.handle_reply(reply).unwrap();
        let rec = LogRecord::Commit {
            from: ClientId::new(0),
            msg: commit.unwrap(),
        };
        assert_eq!(rec.from(), ClientId::new(0));
        assert_eq!(LogRecord::decode(&rec.encode()), Ok(rec));
    }

    #[test]
    fn retired_routed_tag_is_a_bad_tag() {
        // The retired routed record: tag 2, a u64 position, then a
        // whole record. It is refused at its tag, whatever follows.
        let mut c0 = client(2, 0);
        let inner = LogRecord::Submit {
            from: ClientId::new(0),
            msg: c0.begin_write(Value::from("routed")).unwrap(),
        };
        let mut bytes = vec![2];
        41u64.encode_into(&mut bytes);
        inner.encode_into(&mut bytes);
        assert_eq!(LogRecord::decode(&bytes), Err(WireError::BadTag(2)));
    }

    #[test]
    fn log_record_rejects_bad_tag_and_truncation() {
        assert_eq!(LogRecord::decode(&[9]), Err(WireError::BadTag(9)));
        let mut c0 = client(1, 0);
        let rec = LogRecord::Submit {
            from: ClientId::new(0),
            msg: c0.begin_write(Value::from("v")).unwrap(),
        };
        let bytes = rec.encode();
        assert!(LogRecord::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn replay_matches_direct_application() {
        let mut c0 = client(2, 0);
        let submit = c0.begin_write(Value::from("x")).unwrap();
        let mut direct = UstorServer::new(2);
        direct.on_submit(ClientId::new(0), submit.clone());

        let mut replayed = UstorServer::new(2);
        LogRecord::Submit {
            from: ClientId::new(0),
            msg: submit,
        }
        .replay(&mut replayed);
        assert_eq!(direct, replayed);
    }

    #[test]
    fn state_roundtrips_mid_protocol() {
        let n = 2;
        let mut c0 = client(n, 0);
        let mut server = UstorServer::new(n);
        let submit = c0.begin_write(Value::from("v1")).unwrap();
        let (_, reply) = server.on_submit(ClientId::new(0), submit).pop().unwrap();
        let (commit, _) = c0.handle_reply(reply).unwrap();
        server.on_commit(ClientId::new(0), commit.unwrap());
        // Leave one op pending so `L` is non-empty.
        let submit = c0.begin_read(ClientId::new(0)).unwrap();
        server.on_submit(ClientId::new(0), submit);

        let state = server.export_state();
        let mut bytes = Vec::new();
        encode_state(&state, &mut bytes);
        let mut input = bytes.as_slice();
        let decoded = decode_state(&mut input).expect("roundtrip");
        assert!(input.is_empty(), "full consumption");
        assert_eq!(decoded, state);
        assert_eq!(UstorServer::from_state(decoded), server);
    }

    #[test]
    fn state_decode_rejects_arity_mismatch() {
        let state = UstorServer::new(2).export_state();
        let mut bytes = Vec::new();
        encode_state(&state, &mut bytes);
        // Claim 3 clients while the vectors hold 2.
        bytes[3] = 3;
        let mut input = bytes.as_slice();
        assert!(decode_state(&mut input).is_err());
    }
}
