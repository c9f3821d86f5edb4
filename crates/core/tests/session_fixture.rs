//! `FAUSTSES` is frozen: `fixtures/v1.session` was written by a build
//! that predates the session file's move into `faust_core::persist`,
//! from [`script`]. This tree must load it to the state the script
//! exports, and the script, rerun, must write it again byte for byte.

use faust_core::UserOp;
use faust_core::{load_session, save_session, FaustClient, FaustConfig, SessionCore, SessionState};
use faust_crypto::sig::KeySet;
use faust_store::testutil::scratch_dir;
use faust_types::{ClientId, UstorMsg, Value};
use faust_ustor::{Server, UstorServer};
use std::path::Path;

/// Client 0 of 2, pipeline depth 4, HMAC keys from `session-fixture`:
/// three operations go out at once and the server answers all three,
/// but only the first two REPLYs reach the client; a fourth operation is
/// signed and never sent. The session is saved at time 4, its resend
/// window holding the two unanswered SUBMITs and the latest COMMIT.
fn script(path: &Path) -> SessionState {
    let keys = KeySet::generate(2, b"session-fixture");
    let config = FaustConfig {
        dummy_reads: false,
        pipeline: 4,
        ..FaustConfig::default()
    };
    let id = ClientId::new(0);
    let keypair = keys.keypair(0).unwrap().clone();
    let mut core = SessionCore::new(FaustClient::new(id, 2, keypair, keys.registry(), config));
    let mut server = UstorServer::new(2);
    let mut sent = Vec::new();
    for op in [
        UserOp::Write(Value::from("first")),
        UserOp::Write(Value::from("second")),
        UserOp::Read(ClientId::new(1)),
    ] {
        sent.extend(core.submit(op, 1).1.to_server);
    }
    let mut replies = Vec::new();
    for msg in sent {
        let UstorMsg::Submit(submit) = msg else {
            panic!("a SUBMIT: {msg:?}");
        };
        replies.extend(server.on_submit(id, submit));
    }
    assert_eq!(replies.len(), 3);
    for (_, reply) in replies.into_iter().take(2) {
        let base = reply.commit_version.version.clone();
        for msg in core.handle_reply(reply, 2).to_server {
            let commit = match msg {
                UstorMsg::CommitDelta(delta) => delta.resolve(&base).unwrap(),
                UstorMsg::Commit(commit) => commit,
                msg => panic!("a COMMIT: {msg:?}"),
            };
            server.on_commit(id, commit);
        }
    }
    let (_, out) = core.submit(UserOp::Write(Value::from("third")), 3);
    assert_eq!(out.to_server.len(), 1);
    let state = core.export_state(4).expect("healthy");
    save_session(path, &state).unwrap();
    state
}

#[test]
fn the_v1_session_fixture_loads_and_the_script_writes_it_byte_for_byte() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1.session");
    let dir = scratch_dir("session-fixture");
    let path = dir.join("c0.session");
    let state = script(&path);
    let submits = state
        .resend_window
        .iter()
        .filter(|msg| matches!(msg, UstorMsg::Submit(_)))
        .count();
    assert_eq!((state.resend_window.len(), submits), (3, 2), "a COMMIT too");
    assert_eq!(load_session(&fixture).unwrap(), Some(state));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&fixture).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
