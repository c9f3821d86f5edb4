//! Persistent client sessions: saving a [`SessionState`] to — and
//! restoring it from — the `FAUSTSES` session file, the sealed container
//! [`faust_store::session::SESSION`]:
//!
//! ```text
//!   "FAUSTSES" | version: u32 = 1 | payload_len: u32 | sha256(payload): 32 B | payload
//! ```
//!
//! The payload is the [`SessionState`] wire encoding. Saves go through
//! `faust-store`'s crash-safe replace (temp file, fsync, rename, directory
//! fsync), so a crash mid-save leaves the previous session file
//! untouched; loads validate magic, version, length and digest before
//! decoding a single byte of payload.
//!
//! The file holds the session's *resumable* state only: protocol
//! version vectors, the resend window (signed-but-unacknowledged
//! SUBMITs plus the latest COMMIT), queued work, and ticket
//! bookkeeping. Keys are never
//! written; the caller re-supplies the keypair and registry when
//! restoring (see [`SessionCore::from_state`]).
//!
//! # Staleness
//!
//! The container's checksum catches a *corrupt* file, not an *old* one.
//! A session file restored after the client ran further operations is
//! internally consistent but rolled back — resuming from it would
//! re-issue timestamps the server has already answered. Only the
//! protocol can tell: the restored client is created with its stale
//! guard armed, so the first mismatch against the live server surfaces
//! as an [`crate::Event::Violation`] with
//! [`faust_ustor::Fault::StaleClientState`] rather than being
//! misattributed to server misbehavior. Embeddings should call
//! [`SessionCore::probe_resume`] right after connecting so a stale file
//! is flagged immediately, not on the next user operation.

use crate::handle::{SessionCore, SessionState};
use faust_store::session::SESSION;
use faust_store::StoreError;
use faust_types::Wire;
use std::path::Path;

/// Saves `state` to the session file at `path` (atomic write: temp file,
/// fsync, rename, directory fsync). Overwrites any previous session file
/// at that path.
///
/// # Errors
///
/// Propagates file-system errors; a failed save never disturbs an
/// existing session file.
pub fn save_session(path: &Path, state: &SessionState) -> Result<(), StoreError> {
    SESSION.write(path, true, |(), out| state.encode_into(out))
}

/// Loads and fully validates the session file at `path`; `Ok(None)` if
/// no file exists.
///
/// # Errors
///
/// Structured [`StoreError`]s naming `"session"`: a bad magic, unknown
/// version, truncated header, [`StoreError::Checksum`] for a digest
/// mismatch, and [`StoreError::Corrupt`] for a truncated or undecodable
/// payload. A file that validates but holds rolled-back state loads
/// *successfully* — that staleness is detected by the protocol after
/// resuming (see the module docs).
pub fn load_session(path: &Path) -> Result<Option<SessionState>, StoreError> {
    let Some(((), payload)) = SESSION.read(path)? else {
        return Ok(None);
    };
    SessionState::decode(&payload)
        .map(Some)
        .map_err(|error| StoreError::Corrupt {
            file: SESSION.file,
            error,
        })
}

/// Convenience for embeddings: exports `core`'s state at protocol time
/// `now` and saves it to `path`. Returns `false` (writing nothing) when
/// the session has halted on a violation — a failed session must not be
/// resumed, and a pre-failure file left in place would itself be stale.
///
/// # Errors
///
/// Propagates [`save_session`] errors.
pub fn checkpoint_session(path: &Path, core: &SessionCore, now: u64) -> Result<bool, StoreError> {
    match core.export_state(now) {
        Some(state) => {
            save_session(path, &state)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FaustClient, FaustConfig, UserOp};
    use crate::events::FailReason;
    use crate::handle::Event;
    use faust_crypto::sig::KeySet;
    use faust_store::testutil::{mutations, scratch_dir};
    use faust_types::{ClientId, CommitDelta, CommitMsg, ReplyMsg, UstorMsg, Value, WireError};
    use faust_ustor::{CommitMode, Fault, Server, ServerEngine, UstorServer};

    fn keys(n: usize) -> KeySet {
        KeySet::generate(n, b"persist-tests")
    }

    fn fresh_core(keys: &KeySet, i: u32, n: usize) -> SessionCore {
        SessionCore::new(FaustClient::new(
            ClientId::new(i),
            n,
            keys.keypair(i).unwrap().clone(),
            keys.registry(),
            FaustConfig {
                dummy_reads: false,
                ..FaustConfig::default()
            },
        ))
    }

    /// Feeds `msgs` to the server and pumps every reply back into the
    /// core until quiescent.
    fn pump(server: &mut UstorServer, core: &mut SessionCore, msgs: Vec<UstorMsg>, now: u64) {
        let mut queue = msgs;
        while let Some(msg) = queue.first().cloned() {
            queue.remove(0);
            let replies = match msg {
                UstorMsg::Submit(m) => server.on_submit(core.id(), m),
                UstorMsg::Commit(m) => server.on_commit(core.id(), m),
                UstorMsg::Reply(_) | UstorMsg::CommitDelta(_) => unreachable!(),
            };
            for (_, reply) in replies {
                // A bare server takes full COMMITs: expand a delta
                // against the REPLY it answers, as the engine does.
                let base = reply.commit_version.version.clone();
                let out = core.handle_reply(reply, now).to_server;
                queue.extend(out.into_iter().map(|msg| match msg {
                    UstorMsg::CommitDelta(d) => UstorMsg::Commit(d.resolve(&base).unwrap()),
                    msg => msg,
                }));
            }
        }
    }

    /// Saves a session file whose resend window is `window`, with the
    /// rest of a genuine session's state.
    fn crafted_window(
        label: &str,
        window: Vec<UstorMsg>,
    ) -> Result<Option<SessionState>, StoreError> {
        let dir = scratch_dir(label);
        let path = dir.join("c0.session");
        let keys = keys(2);
        let core = fresh_core(&keys, 0, 2);
        let mut state = core.export_state(1).expect("healthy");
        state.resend_window = window;
        save_session(&path, &state).unwrap();
        let loaded = load_session(&path);
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    /// A genuine REPLY and the COMMIT it led to, full and as a delta.
    fn reply_and_commits() -> (ReplyMsg, CommitMsg, CommitDelta) {
        let keys = keys(2);
        let mut server = UstorServer::new(2);
        let mut core = fresh_core(&keys, 0, 2);
        let (_, out) = core.submit(UserOp::Write(Value::from("one")), 1);
        let [UstorMsg::Submit(submit)] = &out.to_server[..] else {
            panic!("one SUBMIT");
        };
        let (_, reply) = server.on_submit(core.id(), submit.clone()).pop().unwrap();
        let out = core.handle_reply(reply.clone(), 1);
        let [UstorMsg::CommitDelta(delta)] = &out.to_server[..] else {
            panic!("one delta COMMIT: {:?}", out.to_server);
        };
        let [UstorMsg::Commit(commit)] = &core.resend_messages()[..] else {
            panic!("the window keeps the full COMMIT");
        };
        (reply, commit.clone(), delta.clone())
    }

    #[test]
    fn a_session_file_holding_a_reply_in_its_window_is_corrupt() {
        let (reply, commit, _) = reply_and_commits();
        let window = vec![UstorMsg::Commit(commit), UstorMsg::Reply(reply)];
        assert!(matches!(
            crafted_window("persist-window-reply", window),
            Err(StoreError::Corrupt {
                file: "session",
                error: WireError::BadTag(1)
            })
        ));
    }

    #[test]
    fn a_session_file_holding_a_delta_commit_is_corrupt() {
        let (_, _, delta) = reply_and_commits();
        let window = vec![UstorMsg::CommitDelta(delta)];
        assert!(matches!(
            crafted_window("persist-window-delta", window),
            Err(StoreError::Corrupt {
                file: "session",
                error: WireError::BadTag(3)
            })
        ));
    }

    #[test]
    fn a_session_file_holding_two_standalone_commits_is_corrupt() {
        let (_, commit, _) = reply_and_commits();
        let window = vec![UstorMsg::Commit(commit.clone()), UstorMsg::Commit(commit)];
        assert!(matches!(
            crafted_window("persist-window-commits", window),
            Err(StoreError::Corrupt {
                file: "session",
                error: WireError::BadTag(2)
            })
        ));
        // One is what a session keeps, and loads.
        let (_, commit, _) = reply_and_commits();
        let loaded = crafted_window("persist-window-commit", vec![UstorMsg::Commit(commit)]);
        assert!(matches!(loaded, Ok(Some(_))));
    }

    /// Saves, at `path`, a depth-4 pipelined session with two SUBMITs
    /// and a COMMIT in its resend window.
    fn pipelined_session(path: &Path) -> SessionState {
        let keys = keys(2);
        let mut server = UstorServer::new(2);
        let config = FaustConfig {
            dummy_reads: false,
            pipeline: 4,
            ..FaustConfig::default()
        };
        let keypair = keys.keypair(0).unwrap().clone();
        let proto = FaustClient::new(ClientId::new(0), 2, keypair, keys.registry(), config);
        let mut core = SessionCore::new(proto);
        let (_, out) = core.submit(UserOp::Write(Value::from("one")), 1);
        pump(&mut server, &mut core, out.to_server, 1);
        core.submit(UserOp::Write(Value::from("two")), 2);
        core.submit(UserOp::Read(ClientId::new(1)), 2);
        let state = core.export_state(2).expect("healthy");
        assert_eq!(state.resend_window.len(), 3);
        save_session(path, &state).unwrap();
        state
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_session_file_is_typed() {
        let dir = scratch_dir("persist-sweep");
        let path = dir.join("c0.session");
        let pristine = pipelined_session(&path);
        let good = std::fs::read(&path).unwrap();
        // magic 0..8 | version 8..12 | payload_len 12..16 | sha256 16..48
        let header = 16 + 32;
        for (at, bad) in mutations(&good) {
            std::fs::write(&path, &bad).unwrap();
            let cut = bad.len() < good.len();
            let err = load_session(&path).expect_err("SHA-256 covers every payload byte");
            let expected = match (&err, cut) {
                (StoreError::TruncatedHeader { file: "session" }, true) => at < header,
                (
                    StoreError::Corrupt {
                        file: "session",
                        error: WireError::Truncated,
                    },
                    true,
                ) => at >= header,
                (StoreError::BadMagic { file: "session" }, false) => at < 8,
                (
                    StoreError::UnsupportedVersion {
                        file: "session", ..
                    },
                    false,
                ) => (8..12).contains(&at),
                (
                    StoreError::Corrupt {
                        file: "session",
                        error: WireError::Truncated | WireError::TrailingBytes(_),
                    },
                    false,
                ) => (12..16).contains(&at),
                (StoreError::Checksum { file: "session" }, false) => at >= 16,
                _ => false,
            };
            assert!(expected, "damage at {at} (cut: {cut}): {err:?}");
        }

        // Re-sealed under a recomputed digest, every payload mutant
        // reaches the decoder: a typed error, or a state that is not the
        // pristine one.
        let payload = pristine.encode();
        assert_eq!(good[header..], payload[..]);
        let mut loaded = 0;
        for (at, bad) in mutations(&payload) {
            std::fs::write(&path, SESSION.seal(1, &bad)).unwrap();
            let cut = bad.len() < payload.len();
            match load_session(&path) {
                Err(StoreError::Corrupt {
                    file: "session", ..
                }) => {}
                Ok(Some(state)) if !cut => {
                    assert_ne!(state, pristine, "flip at {at} went unnoticed");
                    loaded += 1;
                }
                other => panic!("damage at {at} (cut: {cut}): {other:?}"),
            }
        }
        assert!(loaded > 0, "flips in signatures and values load");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_roundtrips_through_disk_and_completes_inflight_ops() {
        let dir = scratch_dir("persist-roundtrip");
        let path = dir.join("c0.session");
        let keys = keys(2);
        let mut server = UstorServer::new(2);
        let mut core = fresh_core(&keys, 0, 2);

        // One completed op, then one in flight (unacked) at save time.
        let (_, out) = core.submit(UserOp::Write(Value::from("first")), 1);
        pump(&mut server, &mut core, out.to_server, 1);
        let (t2, out) = core.submit(UserOp::Write(Value::from("second")), 2);
        assert_eq!(out.to_server.len(), 1, "second SUBMIT signed and sent");
        assert_eq!(core.unacked_submits(), 1);

        assert!(checkpoint_session(&path, &core, 2).unwrap());
        drop(core); // "process exit": the reply was never delivered

        // Restore in a fresh process and replay the resend window, as a
        // reconnect would.
        let state = load_session(&path).unwrap().expect("file exists");
        let (mut core, clock) =
            SessionCore::from_state(keys.keypair(0).unwrap().clone(), keys.registry(), state);
        assert_eq!(clock, 2, "resume the protocol clock where we left off");
        assert_eq!(core.unacked_submits(), 1, "resend window survived");
        let resend = core.resend_messages();
        pump(&mut server, &mut core, resend, 3);

        // The in-flight op completed under its original ticket; the
        // server served the replay from its duplicate cache or live path
        // — either way exactly once.
        let events = core.take_events();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, Event::Completed { ticket, .. } if *ticket == t2)),
            "restored ticket completes: {events:?}"
        );
        assert!(core.failure().is_none());

        // The next op uses the next timestamp — no gap, no reuse.
        let (_, out) = core.submit(UserOp::Write(Value::from("third")), 4);
        pump(&mut server, &mut core, out.to_server, 4);
        assert!(core.failure().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rolled_back_session_file_flags_stale_client_state() {
        let dir = scratch_dir("persist-stale");
        let path = dir.join("c0.session");
        let keys = keys(2);
        let mut server = UstorServer::new(2);
        let mut core = fresh_core(&keys, 0, 2);

        // Save while idle at timestamp 1...
        let (_, out) = core.submit(UserOp::Write(Value::from("old")), 1);
        pump(&mut server, &mut core, out.to_server, 1);
        assert!(checkpoint_session(&path, &core, 1).unwrap());

        // ...then keep working: the server moves past the saved state.
        for t in 2..5 {
            let (_, out) = core.submit(UserOp::Write(Value::from("newer")), t);
            pump(&mut server, &mut core, out.to_server, t);
        }
        assert!(core.failure().is_none());
        drop(core);

        // Restore the rolled-back file; the resume probe re-issues an
        // already-used timestamp and the mismatch is blamed on the
        // snapshot, not the server.
        let state = load_session(&path).unwrap().expect("file exists");
        let (mut core, clock) =
            SessionCore::from_state(keys.keypair(0).unwrap().clone(), keys.registry(), state);
        let out = core.probe_resume(clock + 1);
        assert_eq!(out.to_server.len(), 1, "probe read issued");
        pump(&mut server, &mut core, out.to_server, clock + 1);
        assert!(
            matches!(
                core.failure(),
                Some(FailReason::Ustor(Fault::StaleClientState))
            ),
            "expected StaleClientState, got {:?}",
            core.failure()
        );
        let events = core.take_events();
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                Event::Violation {
                    reason: FailReason::Ustor(Fault::StaleClientState)
                }
            )),
            "violation event delivered: {events:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// [`pump`] through a real [`ServerEngine`] — the duplicate-reply
    /// cache included — instead of a bare server; returns the replies as
    /// the engine sent them.
    fn pump_engine(
        engine: &mut ServerEngine,
        core: &mut SessionCore,
        msgs: Vec<UstorMsg>,
        now: u64,
    ) -> Vec<ReplyMsg> {
        let (mut queue, mut replies) = (msgs, Vec::new());
        while !queue.is_empty() {
            for msg in queue.drain(..) {
                engine.enqueue(core.id(), msg);
            }
            engine.process_all();
            while let Some((_, batch)) = engine.poll_output_batch() {
                for msg in batch {
                    let UstorMsg::Reply(reply) = msg else {
                        unreachable!("the engine sends only replies")
                    };
                    replies.push(reply.clone());
                    queue.extend(core.handle_reply(reply, now).to_server);
                }
            }
        }
        replies
    }

    #[test]
    fn resending_a_committed_operation_through_the_engine_flags_stale_client_state() {
        let dir = scratch_dir("persist-stale-engine");
        let path = dir.join("c0.session");
        let keys = keys(2);
        let mut engine = ServerEngine::new(2, Box::new(UstorServer::new(2)));
        let mut core = fresh_core(&keys, 0, 2);
        let c0 = core.id();

        // Saved with op 2 in flight...
        let (_, out) = core.submit(UserOp::Write(Value::from("first")), 1);
        pump_engine(&mut engine, &mut core, out.to_server, 1);
        let (_, out) = core.submit(UserOp::Write(Value::from("second")), 2);
        assert!(checkpoint_session(&path, &core, 2).unwrap());
        // ...which then completes and commits, and so does op 3: the
        // engine keeps only op 3's reply.
        pump_engine(&mut engine, &mut core, out.to_server, 2);
        let (_, out) = core.submit(UserOp::Write(Value::from("third")), 3);
        pump_engine(&mut engine, &mut core, out.to_server, 3);
        assert!(core.failure().is_none());
        assert_eq!(
            engine
                .session(c0)
                .replies()
                .timestamps()
                .collect::<Vec<_>>(),
            [3]
        );
        drop(core);

        // The rolled-back session resends op 2. The cache no longer holds
        // its reply, so the engine answers with the newest one — frontier
        // evidence the restored client cannot validate.
        let state = load_session(&path).unwrap().expect("file exists");
        let (mut core, clock) =
            SessionCore::from_state(keys.keypair(0).unwrap().clone(), keys.registry(), state);
        let resend = core.resend_messages();
        pump_engine(&mut engine, &mut core, resend, clock + 1);
        assert_eq!(engine.stats().duplicates, 1);
        assert_eq!(
            engine.stats().submits,
            3,
            "the resend never reached the server"
        );
        assert!(
            matches!(
                core.failure(),
                Some(FailReason::Ustor(Fault::StaleClientState))
            ),
            "expected StaleClientState, got {:?}",
            core.failure()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_session_restored_with_commits_in_its_window_resumes_against_a_live_engine() {
        // Op 1 completes; its COMMIT — standalone, or piggybacked on op 2's
        // SUBMIT — and op 2 are saved, never sent. Replayed on a new
        // connection, the COMMIT is the base of op 2's reply, which names
        // it instead of repeating it: the restored session holds it.
        for (pipeline, commit_mode) in [(1, CommitMode::Immediate), (2, CommitMode::Piggyback)] {
            let dir = scratch_dir("persist-own-commit");
            let path = dir.join("c0.session");
            let keys = keys(2);
            let mut engine = ServerEngine::new(2, Box::new(UstorServer::new(2)));
            let c0 = ClientId::new(0);
            let mut core = SessionCore::new(FaustClient::new(
                c0,
                2,
                keys.keypair(0).unwrap().clone(),
                keys.registry(),
                FaustConfig {
                    dummy_reads: false,
                    pipeline,
                    commit_mode,
                    ..FaustConfig::default()
                },
            ));
            let replies = |engine: &mut ServerEngine, msgs: Vec<UstorMsg>| {
                msgs.into_iter().for_each(|msg| engine.enqueue(c0, msg));
                engine.process_all();
                let mut replies = Vec::new();
                while let Some((_, batch)) = engine.poll_output_batch() {
                    replies.extend(batch.into_iter().map(|msg| match msg {
                        UstorMsg::Reply(reply) => reply,
                        _ => unreachable!("the engine sends only replies"),
                    }));
                }
                replies
            };
            let (_, out) = core.submit(UserOp::Write(Value::from("one")), 1);
            for reply in replies(&mut engine, out.to_server) {
                core.handle_reply(reply, 1);
            }
            let (t2, _) = core.submit(UserOp::Write(Value::from("two")), 2);
            assert!(checkpoint_session(&path, &core, 2).unwrap());
            drop(core);

            let state = load_session(&path).unwrap().expect("file exists");
            let (mut core, clock) =
                SessionCore::from_state(keys.keypair(0).unwrap().clone(), keys.registry(), state);
            engine.connected(c0);
            let resend = core.resend_messages();
            let [reply] = &replies(&mut engine, resend)[..] else {
                panic!("op 2's reply");
            };
            let own = reply
                .left_out
                .commit
                .as_ref()
                .expect("sent against COMMIT 1");
            assert_eq!((own.base, own.is_marker()), (1, true), "{commit_mode:?}");
            let out = core.handle_reply(reply.clone(), clock + 1);
            assert!(core.failure().is_none(), "{:?}", core.failure());
            assert!(core.is_complete(t2));
            // And the session is fully live again.
            pump_engine(&mut engine, &mut core, out.to_server, clock + 1);
            let (t3, out) = core.submit(UserOp::Read(c0), clock + 2);
            pump_engine(&mut engine, &mut core, out.to_server, clock + 2);
            assert!(core.is_complete(t3) && core.failure().is_none());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_session_restored_mid_read_resumes_against_a_live_engine() {
        // C1 reads C0's register twice — the second REPLY names the value
        // of the first — and saves its session with a third read unsent.
        // Restored, it holds no value; on its new connection the engine
        // sends the resent read's value in full, and names it again only
        // after that. An engine that missed the reconnect names a value
        // the restored client does not hold: its resume guard reports it.
        let name = |replies: &[ReplyMsg]| -> Vec<Option<u64>> {
            replies.iter().map(|reply| reply.left_out.value).collect()
        };
        for reconnect in [true, false] {
            let dir = scratch_dir("persist-named-value");
            let path = dir.join("c1.session");
            let keys = keys(2);
            let mut engine = ServerEngine::new(2, Box::new(UstorServer::new(2)));
            let mut writer = fresh_core(&keys, 0, 2);
            let (_, out) = writer.submit(UserOp::Write(Value::from("x")), 1);
            pump_engine(&mut engine, &mut writer, out.to_server, 1);
            let mut core = fresh_core(&keys, 1, 2);
            let c0 = ClientId::new(0);
            for (now, expected) in [(2, None), (3, Some(1))] {
                let (_, out) = core.submit(UserOp::Read(c0), now);
                let replies = pump_engine(&mut engine, &mut core, out.to_server, now);
                assert_eq!(name(&replies), [expected]);
            }
            let (t3, _) = core.submit(UserOp::Read(c0), 4);
            assert!(checkpoint_session(&path, &core, 4).unwrap());
            drop(core);

            let state = load_session(&path).unwrap().expect("file exists");
            let (mut core, clock) =
                SessionCore::from_state(keys.keypair(1).unwrap().clone(), keys.registry(), state);
            if reconnect {
                engine.connected(core.id());
            }
            let resend = core.resend_messages();
            let replies = pump_engine(&mut engine, &mut core, resend, clock + 1);
            if !reconnect {
                assert_eq!(name(&replies), [Some(2)]);
                assert_eq!(
                    core.failure(),
                    Some(&FailReason::Ustor(Fault::StaleClientState))
                );
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            assert_eq!(name(&replies), [None], "in full on the new connection");
            assert!(core.failure().is_none(), "{:?}", core.failure());
            assert!(core.is_complete(t3));
            let (t4, out) = core.submit(UserOp::Read(c0), clock + 2);
            let replies = pump_engine(&mut engine, &mut core, out.to_server, clock + 2);
            assert_eq!(name(&replies), [Some(3)], "against the resent read");
            assert!(core.is_complete(t4) && core.failure().is_none());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn up_to_date_session_file_passes_the_resume_probe() {
        let dir = scratch_dir("persist-fresh");
        let path = dir.join("c0.session");
        let keys = keys(2);
        let mut server = UstorServer::new(2);
        let mut core = fresh_core(&keys, 0, 2);

        let (_, out) = core.submit(UserOp::Write(Value::from("v")), 1);
        pump(&mut server, &mut core, out.to_server, 1);
        assert!(checkpoint_session(&path, &core, 1).unwrap());
        drop(core);

        let state = load_session(&path).unwrap().expect("file exists");
        let (mut core, clock) =
            SessionCore::from_state(keys.keypair(0).unwrap().clone(), keys.registry(), state);
        let out = core.probe_resume(clock + 1);
        pump(&mut server, &mut core, out.to_server, clock + 1);
        assert!(core.failure().is_none(), "current state resumes cleanly");

        // And the session is fully live again.
        let (t, out) = core.submit(UserOp::Read(ClientId::new(0)), clock + 2);
        pump(&mut server, &mut core, out.to_server, clock + 2);
        assert!(core.is_complete(t));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halted_session_refuses_to_export() {
        let keys = keys(2);
        let mut core = fresh_core(&keys, 0, 2);
        // Forge a failure report to halt the session.
        let report = crate::offline::OfflineMsg::failure(keys.keypair(1).unwrap());
        let _ = core.handle_offline(report, 1);
        assert!(core.failure().is_some());
        assert!(
            core.export_state(1).is_none(),
            "failed sessions do not persist"
        );

        let dir = scratch_dir("persist-halted");
        let path = dir.join("c0.session");
        assert!(!checkpoint_session(&path, &core, 1).unwrap());
        assert!(!path.exists(), "nothing written for a halted session");
        std::fs::remove_dir_all(&dir).ok();
    }
}
