//! Binary encodings for persisted values, built entirely from the
//! [`Wire`] codecs of `faust-types` — the on-disk format reuses the
//! byte-exact message encodings the protocol already ships, so a
//! *scanned* record is the message the server acknowledged. (The log may
//! store a COMMIT, standalone or piggybacked, as a delta against the
//! previous one in its file; that form is private to `crate::log`, which
//! resolves it while scanning.)

use faust_crypto::sig::Signature;
use faust_types::{
    decode_version_against, encode_version_against, ClientId, CommitMsg, EntryLayout,
    SignedVersion, Sink, SubmitMsg, Timestamp, Value, Version, Wire, WireError,
};
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
            // hold it, and they must stay refused, not misread. Tags 3
            // and 4 are the log's COMMIT deltas, standalone and
            // piggybacked, which only `crate::log` decodes.
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

/// How a [`ServerState`] encoding lays out `SVER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SverLayout {
    /// `n: u32`, then each signed version in full, in client order: the
    /// body of snapshots v1 and v3 and of `FAUSTHIS`'s base state.
    Full,
    /// A ≼-chain: `n` entries `k: u32 | SVER[k].version | SVER[k].sig`
    /// in ascending `(Σ V, k)` order, each version after the first
    /// written against the one before it by [`encode_version_against`],
    /// a delta's entries in the layout given: snapshot v6's
    /// [`EntryLayout::Compact`], the only one written, or snapshot v5's
    /// [`EntryLayout::Fixed`], read only. Versions committed one after
    /// another differ in about one entry, so an honest server's `SVER`
    /// shrinks from `O(n²)` to `O(n)` bytes.
    Chain(EntryLayout),
}

/// Encodes a full [`ServerState`] — `MEM`, `SVER` laid out as `layout`
/// says, `P`, `c`, `L`.
pub fn encode_state(state: &ServerState, layout: SverLayout, out: &mut Vec<u8>) {
    (state.mem.len() as u32).encode_into(out);
    for entry in &state.mem {
        encode_mem_entry(entry, out);
    }
    match layout {
        SverLayout::Full => state.sver.encode_into(out),
        SverLayout::Chain(entries) => {
            assert_eq!(entries, EntryLayout::Compact, "a chain is written compact");
            encode_sver_chain(&state.sver, out)
        }
    }
    state.proofs.encode_into(out);
    state.last_committer.encode_into(out);
    state.pending.encode_into(out);
}

/// Writes `sver` as a [`SverLayout::Chain`] of compact entries.
fn encode_sver_chain(sver: &[SignedVersion], out: &mut Vec<u8>) {
    let mut order: Vec<usize> = (0..sver.len()).collect();
    // Σ V grows along ≼, so this order puts each version next to the
    // one it most likely extends; `k` breaks ties deterministically.
    order.sort_by_cached_key(|&k| {
        let sum: u128 = sver[k]
            .version
            .v()
            .as_slice()
            .iter()
            .map(|&t| u128::from(t))
            .sum();
        (sum, k)
    });
    let mut base: Option<&Version> = None;
    for k in order {
        let SignedVersion { version, sig } = &sver[k];
        (k as u32).encode_into(out);
        match base {
            None => version.encode_into(out),
            Some(base) => encode_version_against(version, base, out),
        }
        sig.encode_into(out);
        base = Some(version);
    }
}

/// Reads `n` entries of a [`SverLayout::Chain`] whose deltas lay their
/// entries out as `layout` says back into client order.
///
/// The caller has already decoded `n` `MEM` entries from the same input,
/// so `n` is backed by bytes that were there and the `n` slots reserved
/// here are no claim's to size.
fn decode_sver_chain(
    input: &mut &[u8],
    n: usize,
    layout: EntryLayout,
) -> Result<Vec<SignedVersion>, WireError> {
    let mut slots: Vec<Option<SignedVersion>> = vec![None; n];
    let mut prev: Option<usize> = None;
    for _ in 0..n {
        let k = u32::decode_from(input)? as usize;
        if k >= n || slots[k].is_some() {
            return Err(WireError::BadLength(k as u64));
        }
        // The first entry has no base: a delta there reads as a full
        // version whose length prefix has bit 31 set, a `BadLength`.
        let version = match prev.and_then(|p| slots[p].as_ref()) {
            None => Version::decode_from(input)?,
            Some(base) => decode_version_against(input, &base.version, layout)?,
        };
        let sig = Option::<Signature>::decode_from(input)?;
        slots[k] = Some(SignedVersion { version, sig });
        prev = Some(k);
    }
    // `n` distinct indices below `n` fill every slot.
    Ok(slots.into_iter().flatten().collect())
}

/// Decodes a [`ServerState`] written by [`encode_state`] with the same
/// `layout` and validates its internal arity (all per-client vectors
/// must agree and the last committer must be in range), so
/// [`faust_ustor::UstorServer::from_state`] cannot panic on hostile
/// input.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, malformed fields, arity
/// mismatch, or a chain entry whose index is out of range or repeated
/// (the last three reported as [`WireError::BadLength`]).
pub fn decode_state(input: &mut &[u8], layout: SverLayout) -> Result<ServerState, WireError> {
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
    let sver = match layout {
        SverLayout::Full => Wire::decode_from(input)?,
        SverLayout::Chain(entries) => decode_sver_chain(input, n, entries)?,
    };
    let state = ServerState {
        mem,
        sver,
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
        encode_state(&state, SverLayout::Full, &mut bytes);
        let mut input = bytes.as_slice();
        let decoded = decode_state(&mut input, SverLayout::Full).expect("roundtrip");
        assert!(input.is_empty(), "full consumption");
        assert_eq!(decoded, state);
        assert_eq!(UstorServer::from_state(decoded), server);
    }

    #[test]
    fn state_decode_rejects_arity_mismatch() {
        let state = UstorServer::new(2).export_state();
        let mut bytes = Vec::new();
        encode_state(&state, SverLayout::Full, &mut bytes);
        // Claim 3 clients while the vectors hold 2.
        bytes[3] = 3;
        let mut input = bytes.as_slice();
        assert!(decode_state(&mut input, SverLayout::Full).is_err());
    }
}
