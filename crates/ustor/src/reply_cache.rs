//! [`ReplyCache`]: the per-session duplicate-reply cache of the
//! [`ServerEngine`](crate::ServerEngine), and the one rule that bounds it.
//!
//! A client that lost a reply with its connection resends the SUBMIT;
//! the engine answers it from this cache byte-identically instead of
//! re-running it. A correct client only ever resends SUBMITs it has not
//! committed — it sends the COMMIT of an operation after processing that
//! operation's reply — so a COMMIT whose own entry is `t` acknowledges
//! every reply with timestamp `≤ t`. An acknowledged reply is never
//! answered again, except the newest: it is the frontier evidence a client
//! resuming from stale state is answered with (its content cannot validate
//! against the stale operation, which surfaces as `StaleClientState` at
//! the client instead of a silent hang).
//!
//! Acknowledged replies leave the cache one per reply that enters it:
//! [`ReplyCache::push`] evicts the oldest one before cloning the new one
//! in, so the allocator reuses what was just freed (evicting a whole
//! acknowledged window at once cost `pipelined-group` 0.1–0.2 µs per
//! operation in the engine). The cache therefore never holds more replies
//! than the client once had unacknowledged: one for a lockstep client,
//! `d` for a client pipelining `d` operations. [`REPLY_CACHE_CAP`] only
//! bounds a client that never commits. Crash recovery (`faust-store`)
//! applies the same three operations in the same order, but only to the
//! log records behind the last snapshot: a recovered cache holds what the
//! live one held *if no snapshot was taken since the replies it held were
//! released*. A reply whose SUBMIT a snapshot absorbed is lost, and its
//! resend goes unanswered (ROADMAP item 1; the `#[ignore]`d
//! `a_resent_submit_whose_record_a_snapshot_absorbed_gets_its_original_reply`
//! in `crates/store/tests/recovery.rs` pins the contract).
//!
//! The cache is also the base of a delta COMMIT
//! ([`CommitDelta`](faust_types::CommitDelta)): a client sends one right
//! after the REPLY it answers, on the connection that REPLY came in on,
//! so that REPLY is still here — unacknowledged until the COMMIT itself
//! arrives. The engine finds it with [`ReplyCache::get`], by exact
//! timestamp only, never through [`ReplyCache::lookup`]'s fallback.

use faust_types::{ClientId, CommitMsg, ReplyMsg, Timestamp};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Cap on cached replies per session. It binds only for a client that
/// never commits. Must exceed any client's pipeline depth so a whole
/// resend window after a reconnect hits the cache exactly.
pub const REPLY_CACHE_CAP: usize = 32;

/// Released replies of one session, oldest first, each tagged with the
/// SUBMIT timestamp it answered (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReplyCache {
    /// Strictly increasing timestamps: a session accepts each SUBMIT
    /// timestamp once, and replies are released FIFO per client. The
    /// acknowledged ones form a prefix.
    replies: VecDeque<(Timestamp, ReplyMsg)>,
    /// The highest timestamp a COMMIT has acknowledged.
    committed: Timestamp,
}

impl ReplyCache {
    /// The timestamp a COMMIT from `from` acknowledges: its own entry
    /// `V[from]` (0 for a malformed version without one).
    #[inline]
    pub fn acknowledged(from: ClientId, commit: &CommitMsg) -> Timestamp {
        commit
            .version
            .v()
            .as_slice()
            .get(from.index())
            .copied()
            .unwrap_or(0)
    }

    /// Caches the reply to the SUBMIT with timestamp `ts`, newer than any
    /// cached one, after evicting the oldest reply if it is acknowledged
    /// or the cache is full. A borrowed reply is cloned only then.
    // Inlined so recovery (another crate, once per record) moves an owned
    // reply straight into the ring instead of copying it through a call.
    #[inline]
    pub fn push(&mut self, ts: Timestamp, reply: Cow<'_, ReplyMsg>) {
        let oldest_acknowledged = self
            .replies
            .front()
            .is_some_and(|(cached, _)| *cached <= self.committed);
        if oldest_acknowledged || self.replies.len() == REPLY_CACHE_CAP {
            self.replies.pop_front();
        }
        self.replies.push_back((ts, reply.into_owned()));
    }

    /// Records that a COMMIT acknowledged every reply with timestamp
    /// `≤ t`.
    #[inline]
    pub fn committed(&mut self, t: Timestamp) {
        self.committed = self.committed.max(t);
    }

    /// The reply to the SUBMIT with timestamp `ts` if cached and not
    /// acknowledged, else the newest reply (frontier evidence); `None`
    /// only when empty.
    pub fn lookup(&self, ts: Timestamp) -> Option<&ReplyMsg> {
        let hit = if ts > self.committed {
            self.replies.iter().find(|(cached, _)| *cached == ts)
        } else {
            None
        };
        hit.or(self.replies.back()).map(|(_, reply)| reply)
    }

    /// The reply to the SUBMIT with timestamp `ts`, acknowledged or not,
    /// if it is still cached: what a delta COMMIT for `ts` resolves
    /// against. Exact match only — [`ReplyCache::lookup`]'s frontier
    /// fallback would hand a delta a base it was not taken against.
    pub fn get(&self, ts: Timestamp) -> Option<&ReplyMsg> {
        let at = self
            .replies
            .binary_search_by_key(&ts, |(cached, _)| *cached);
        at.ok().map(|at| &self.replies[at].1)
    }

    /// The highest timestamp a COMMIT has acknowledged (0 before the
    /// first).
    pub fn last_acknowledged(&self) -> Timestamp {
        self.committed
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether no reply is cached.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// The cached replies' timestamps, oldest first.
    pub fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.replies.iter().map(|(ts, _)| *ts)
    }
}

/// Pushes each reply in order — how an engine adopts the replies
/// recovery rebuilt.
impl FromIterator<(Timestamp, ReplyMsg)> for ReplyCache {
    fn from_iter<I: IntoIterator<Item = (Timestamp, ReplyMsg)>>(iter: I) -> Self {
        let mut cache = ReplyCache::default();
        for (ts, reply) in iter {
            cache.push(ts, Cow::Owned(reply));
        }
        cache
    }
}

/// The cached replies, oldest first.
impl IntoIterator for ReplyCache {
    type Item = (Timestamp, ReplyMsg);
    type IntoIter = std::collections::vec_deque::IntoIter<(Timestamp, ReplyMsg)>;

    fn into_iter(self) -> Self::IntoIter {
        self.replies.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, UstorServer};
    use faust_crypto::sig::KeySet;
    use faust_types::Value;

    /// Distinct, genuine replies for timestamps 1..=count.
    fn replies(count: u64) -> Vec<ReplyMsg> {
        let keys = KeySet::generate(1, b"reply-cache");
        let mut client = crate::UstorClient::new(
            ClientId::new(0),
            1,
            keys.keypair(0).unwrap().clone(),
            keys.registry(),
        );
        let mut server = UstorServer::new(1);
        (0..count)
            .map(|k| {
                let submit = client.begin_write(Value::unique(0, k)).unwrap();
                let (_, reply) = server.on_submit(ClientId::new(0), submit).pop().unwrap();
                let (commit, _) = client.handle_reply(reply.clone()).unwrap();
                server.on_commit(ClientId::new(0), commit.unwrap());
                reply
            })
            .collect()
    }

    fn stamps(cache: &ReplyCache) -> Vec<Timestamp> {
        cache.timestamps().collect()
    }

    #[test]
    fn an_acknowledged_reply_is_answered_only_as_the_newest() {
        let rs = replies(4);
        let mut c: ReplyCache = (1..=4).zip(rs[..4].iter().cloned()).collect();
        c.committed(2);
        assert_eq!(c.lookup(3), Some(&rs[2]));
        assert_eq!(c.lookup(2), Some(&rs[3]), "acknowledged: the newest");
        c.committed(9);
        assert_eq!(c.lookup(4), Some(&rs[3]), "the newest survives any commit");
        assert!(ReplyCache::default().lookup(1).is_none());
    }

    #[test]
    fn each_push_evicts_one_acknowledged_reply() {
        let rs = replies(6);
        let mut c: ReplyCache = (1..=3).zip(rs[..3].iter().cloned()).collect();
        c.committed(2);
        c.push(4, Cow::Borrowed(&rs[3]));
        assert_eq!(stamps(&c), [2, 3, 4]);
        c.push(5, Cow::Borrowed(&rs[4]));
        assert_eq!(stamps(&c), [3, 4, 5]);
        c.push(6, Cow::Borrowed(&rs[5]));
        assert_eq!(stamps(&c), [3, 4, 5, 6], "an unacknowledged reply stays");
        assert_eq!(c.lookup(3), Some(&rs[2]));
    }

    #[test]
    fn acknowledged_reads_the_senders_own_entry() {
        let mut version = faust_types::Version::initial(3);
        version.v_mut().set(ClientId::new(1), 7);
        let commit = CommitMsg {
            version,
            commit_sig: faust_crypto::Signature::garbage(),
            proof_sig: faust_crypto::Signature::garbage(),
        };
        assert_eq!(ReplyCache::acknowledged(ClientId::new(1), &commit), 7);
        assert_eq!(ReplyCache::acknowledged(ClientId::new(0), &commit), 0);
        assert_eq!(ReplyCache::acknowledged(ClientId::new(9), &commit), 0);
    }
}
