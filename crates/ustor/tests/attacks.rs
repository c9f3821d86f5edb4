//! Attack suite: every Byzantine server behaviour either trips the exact
//! Algorithm 1 check it targets (failure-detection accuracy), or — for the
//! schedule-level forking attacks — passes undetected at the USTOR level,
//! as the paper's weak fork-linearizability guarantee permits.

use faust_crypto::sig::{KeySet, SigContext, Signature, Signer};
use faust_sim::SimConfig;
use faust_types::{ClientId, ReplyMsg, SignedVersion, Value};
use faust_ustor::adversary::{CrashServer, Fig3Server, SplitBrainServer, Tamper, TamperServer};
use faust_ustor::{Driver, Fault, Server, UstorClient, UstorServer, WorkloadOp};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn clients(n: usize, seed: &[u8]) -> Vec<UstorClient> {
    let keys = KeySet::generate(n, seed);
    (0..n)
        .map(|i| {
            UstorClient::new(
                c(i as u32),
                n,
                keys.keypair(i as u32).unwrap().clone(),
                keys.registry(),
            )
        })
        .collect()
}

/// Runs one synchronous operation: submit → reply → commit.
fn run_op<S: Server + ?Sized>(
    server: &mut S,
    client: &mut UstorClient,
    submit: faust_types::SubmitMsg,
) -> Result<faust_ustor::OpCompletion, Fault> {
    let id = client.id();
    let mut replies = server.on_submit(id, submit);
    assert!(replies.len() <= 1, "correct-path servers reply once");
    let (_, reply) = replies.pop().expect("server replied");
    let (commit, done) = client.handle_reply(reply)?;
    server.on_commit(id, commit.expect("immediate mode"));
    Ok(done)
}

/// Convenience: run a full write.
fn write<S: Server + ?Sized>(
    server: &mut S,
    client: &mut UstorClient,
    v: &str,
) -> Result<faust_ustor::OpCompletion, Fault> {
    let submit = client.begin_write(Value::from(v)).expect("idle");
    run_op(server, client, submit)
}

/// Convenience: run a full read.
fn read<S: Server + ?Sized>(
    server: &mut S,
    client: &mut UstorClient,
    register: ClientId,
) -> Result<faust_ustor::OpCompletion, Fault> {
    let submit = client.begin_read(register).expect("idle");
    run_op(server, client, submit)
}

// --- Figure 3: the stale-read attack ------------------------------------

#[test]
fn fig3_history_reproduced_and_undetected() {
    let mut cs = clients(2, b"fig3");
    let mut server = Fig3Server::new(2, c(0), c(1));

    // C0 completes write(X0, u).
    let w = write(&mut server, &mut cs[0], "u").expect("write succeeds");
    assert_eq!(w.timestamp, 1);

    // C1's first read — after the write completed — returns ⊥.
    let r1 = read(&mut server, &mut cs[1], c(0)).expect("no fault detectable");
    assert_eq!(r1.read_value, Some(None), "server hid the completed write");

    // C1's second read returns u.
    let r2 = read(&mut server, &mut cs[1], c(0)).expect("no fault detectable");
    assert_eq!(r2.read_value, Some(Some(Value::from("u"))));

    // Neither client detected anything: the attack is within weak
    // fork-linearizability.
    assert!(cs[0].fault().is_none());
    assert!(cs[1].fault().is_none());

    // But the committed versions of the two clients are incomparable —
    // the fork is visible the moment the clients compare versions
    // (exactly what FAUST's offline exchange does).
    assert!(!w.version.comparable(&r2.version));
}

#[test]
fn fig3_third_read_after_second_write_is_detected() {
    // Once C1 has joined one operation of C0, any further operation of C0
    // shown to C1 trips the proof check (at-most-one-join in action).
    let mut cs = clients(2, b"fig3b");
    let mut server = Fig3Server::new(2, c(0), c(1));

    write(&mut server, &mut cs[0], "u1").expect("ok");
    read(&mut server, &mut cs[1], c(0)).expect("ok"); // sees ⊥
    read(&mut server, &mut cs[1], c(0)).expect("ok"); // sees u1
    write(&mut server, &mut cs[0], "u2").expect("writer's world is fine");

    let err = read(&mut server, &mut cs[1], c(0)).expect_err("must detect");
    assert_eq!(err, Fault::MissingProofSignature);
}

// --- Split-brain forking --------------------------------------------------

#[test]
fn split_brain_views_diverge_without_detection() {
    let mut cs = clients(4, b"split");
    let mut server = SplitBrainServer::new(
        4,
        vec![vec![c(0), c(1)], vec![c(2), c(3)]],
        4, // fork after a common prefix of 4 submits
    );

    // Common prefix: everyone writes once.
    for i in 0..4 {
        write(&mut server, &mut cs[i], &format!("pre{i}")).expect("ok");
    }
    // Post-fork: group A sees A's writes, group B sees B's.
    write(&mut server, &mut cs[0], "a-new").expect("ok");
    write(&mut server, &mut cs[2], "b-new").expect("ok");

    let ra = read(&mut server, &mut cs[1], c(0)).expect("no fault");
    let rb = read(&mut server, &mut cs[3], c(0)).expect("no fault");
    assert_eq!(ra.read_value, Some(Some(Value::from("a-new"))));
    assert_eq!(
        rb.read_value,
        Some(Some(Value::from("pre0"))),
        "group B must not see the post-fork write"
    );

    // The forked versions are incomparable across groups.
    assert!(!ra.version.comparable(&rb.version));
    // Within a group they remain comparable.
    let ra2 = read(&mut server, &mut cs[0], c(1)).expect("no fault");
    assert!(ra.version.comparable(&ra2.version));
}

#[test]
fn split_brain_before_any_ops_forks_from_scratch() {
    let mut cs = clients(2, b"split0");
    let mut server = SplitBrainServer::new(2, vec![vec![c(0)], vec![c(1)]], 0);
    write(&mut server, &mut cs[0], "x").expect("ok");
    let r = read(&mut server, &mut cs[1], c(0)).expect("ok");
    assert_eq!(r.read_value, Some(None), "fork hides the write entirely");
}

// --- Tampering: every check fires ------------------------------------------

/// Builds a tamper scenario through the simulated driver and returns the
/// detected faults.
fn run_tamper(
    kind: Tamper,
    victim: u32,
    after: usize,
    script: Vec<(u32, WorkloadOp)>,
) -> Vec<(ClientId, Fault)> {
    let n = 3;
    let server = TamperServer::new(n, c(victim), after, kind);
    let mut driver = Driver::new(n, Box::new(server), SimConfig::default(), b"tamper");
    for (client, op) in script {
        driver.push_op(c(client), op);
    }
    driver.run().faults
}

#[test]
fn corrupt_commit_sig_detected() {
    // C0 writes (so a non-initial version exists), then C1 writes and gets
    // a tampered reply.
    let faults = run_tamper(
        Tamper::CorruptCommitSig,
        1,
        1,
        vec![
            (0, WorkloadOp::Write(Value::from("a"))),
            (1, WorkloadOp::Write(Value::from("b"))),
            (1, WorkloadOp::Write(Value::from("c"))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::BadCommitVersionSignature)),
        "got {faults:?}"
    );
}

#[test]
fn version_regression_detected() {
    // The victim has one committed op; the server then serves it the
    // initial version.
    let faults = run_tamper(
        Tamper::RegressToInitialVersion,
        1,
        2,
        vec![
            (1, WorkloadOp::Write(Value::from("b1"))),
            (0, WorkloadOp::Write(Value::from("a"))),
            (1, WorkloadOp::Write(Value::from("b2"))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::VersionRegression)),
        "got {faults:?}"
    );
}

#[test]
fn echoed_own_tuple_detected() {
    let faults = run_tamper(
        Tamper::EchoOwnTuple,
        0,
        0,
        vec![(0, WorkloadOp::Write(Value::from("a")))],
    );
    assert!(
        faults.contains(&(c(0), Fault::OwnOperationPending)),
        "got {faults:?}"
    );
}

#[test]
fn corrupt_read_value_detected() {
    let faults = run_tamper(
        Tamper::CorruptReadValue,
        1,
        1,
        vec![
            (0, WorkloadOp::Write(Value::from("real"))),
            (1, WorkloadOp::Read(c(0))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::BadDataSignature)),
        "got {faults:?}"
    );
}

#[test]
fn stale_read_value_detected() {
    // C0 writes twice; the tampered read serves the first MEM entry while
    // the presented version includes both writes.
    let faults = run_tamper(
        Tamper::StaleReadValue,
        1,
        2,
        vec![
            (0, WorkloadOp::Write(Value::from("v1"))),
            (0, WorkloadOp::Write(Value::from("v2"))),
            (1, WorkloadOp::Pause(50)), // let both writes commit first
            (1, WorkloadOp::Read(c(0))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::DataTimestampMismatch)),
        "got {faults:?}"
    );
}

#[test]
fn corrupt_writer_version_sig_detected() {
    let faults = run_tamper(
        Tamper::CorruptWriterSig,
        1,
        1,
        vec![
            (0, WorkloadOp::Write(Value::from("v"))),
            (1, WorkloadOp::Pause(50)), // the writer's version must be committed
            (1, WorkloadOp::Read(c(0))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::BadWriterCommitSignature)),
        "got {faults:?}"
    );
}

#[test]
fn ancient_writer_version_detected() {
    // C0 commits three writes; the read is served current data but C0's
    // first version (self entry 1 vs t_j = 3).
    let faults = run_tamper(
        Tamper::AncientWriterVersion,
        1,
        3,
        vec![
            (0, WorkloadOp::Write(Value::from("v1"))),
            (0, WorkloadOp::Write(Value::from("v2"))),
            (0, WorkloadOp::Write(Value::from("v3"))),
            (1, WorkloadOp::Pause(50)), // all three writes commit first
            (1, WorkloadOp::Read(c(0))),
        ],
    );
    assert!(
        faults.contains(&(c(1), Fault::WriterSelfEntryMismatch)),
        "got {faults:?}"
    );
}

// Pending-list tampering needs real concurrency, driven at message level.

#[test]
fn corrupt_pending_sig_detected() {
    let mut cs = clients(2, b"pend");
    let mut server = UstorServer::new(2);
    // C0 submits but does not commit yet → its tuple sits in L.
    let s0 = cs[0].begin_write(Value::from("w")).expect("idle");
    let _r0 = server.on_submit(c(0), s0);
    // C1 submits; its reply carries C0's tuple with a corrupted signature.
    let s1 = cs[1].begin_write(Value::from("x")).expect("idle");
    let mut r1 = server.on_submit(c(1), s1);
    let mut reply = r1.pop().expect("reply").1;
    reply.pending[0].sig = Signature::garbage();
    assert_eq!(cs[1].handle_reply(reply), Err(Fault::BadSubmitSignature));
}

#[test]
fn replayed_pending_tuple_detected() {
    // Replaying an old (already committed) tuple of C0 makes the expected
    // timestamp disagree with the replay's signature.
    let mut cs = clients(2, b"replay");
    let mut server = UstorServer::new(2);
    let s0 = cs[0].begin_write(Value::from("w1")).expect("idle");
    let old_tuple = s0.tuple.clone();
    run_op(&mut server, &mut cs[0], s0).expect("ok");

    let s1 = cs[1].begin_write(Value::from("x")).expect("idle");
    let mut r1 = server.on_submit(c(1), s1);
    let mut reply = r1.pop().expect("reply").1;
    reply.pending.push(old_tuple); // replay
    let err = cs[1].handle_reply(reply).expect_err("detects replay");
    // The proof check (line 41) fires: C0's digest entry is non-⊥, and a
    // correct server sends `P[0]` only while C0 has a tuple in `L` — so
    // the slot the replay needs is empty (`MissingProofSignature`); a
    // server sending every slot gets `BadProofSignature` there (the
    // PROOF covers the committed digest, not the replayed one) or the
    // submit signature check (line 43) on the stale timestamp, depending
    // on which view the replay lands in.
    assert!(
        matches!(
            err,
            Fault::MissingProofSignature | Fault::BadSubmitSignature | Fault::BadProofSignature
        ),
        "got {err:?}"
    );
}

#[test]
fn omitted_proof_detected() {
    let mut cs = clients(2, b"omit");
    let mut server = UstorServer::new(2);
    // C0 commits once, then submits again without committing.
    write(&mut server, &mut cs[0], "w1").expect("ok");
    let s0 = cs[0].begin_write(Value::from("w2")).expect("idle");
    let _ = server.on_submit(c(0), s0);
    // C1's reply lists C0's op as pending; drop P[0].
    let s1 = cs[1].begin_write(Value::from("x")).expect("idle");
    let mut r1 = server.on_submit(c(1), s1);
    let mut reply = r1.pop().expect("reply").1;
    reply.proofs.set(c(0), None);
    assert_eq!(cs[1].handle_reply(reply), Err(Fault::MissingProofSignature));
}

#[test]
fn corrupted_proof_detected() {
    let mut cs = clients(2, b"badproof");
    let mut server = UstorServer::new(2);
    write(&mut server, &mut cs[0], "w1").expect("ok");
    let s0 = cs[0].begin_write(Value::from("w2")).expect("idle");
    let _ = server.on_submit(c(0), s0);
    let s1 = cs[1].begin_write(Value::from("x")).expect("idle");
    let mut r1 = server.on_submit(c(1), s1);
    let mut reply = r1.pop().expect("reply").1;
    reply.proofs.set(c(0), Some(Signature::garbage()));
    assert_eq!(cs[1].handle_reply(reply), Err(Fault::BadProofSignature));
}

#[test]
fn own_timestamp_mismatch_detected() {
    // Line 36, second conjunct, needs a validly signed version whose entry
    // for the victim is too high. Forge it with the test's own keys
    // (something a real server cannot do — defense in depth).
    let keys = KeySet::generate(2, b"forge");
    let mut victim = UstorClient::new(c(0), 2, keys.keypair(0).unwrap().clone(), keys.registry());

    let mut fake = faust_types::Version::initial(2);
    fake.v_mut().set(c(0), 1); // claims the victim already did one op
    fake.m_mut().set(c(0), faust_crypto::sha256(b"fake digest"));
    let sig = keys
        .keypair(1)
        .unwrap()
        .sign(SigContext::Commit, &fake.signing_bytes());

    victim.begin_write(Value::from("w")).expect("idle");
    let reply = ReplyMsg {
        last_committer: c(1),
        commit_version: SignedVersion {
            version: fake,
            sig: Some(sig),
        },
        read: None,
        pending: vec![],
        proofs: vec![None, None].into(),
        left_out: Default::default(),
    };
    assert_eq!(victim.handle_reply(reply), Err(Fault::OwnTimestampMismatch));
}

#[test]
fn writer_version_ahead_detected() {
    // Forge (with test keys) a writer version that is NOT ≼ the reply's
    // commit version.
    let keys = KeySet::generate(2, b"ahead");
    let mut victim = UstorClient::new(c(1), 2, keys.keypair(1).unwrap().clone(), keys.registry());

    // Writer C0's fake version claims two ops; commit version claims one.
    let mut writer_v = faust_types::Version::initial(2);
    writer_v.v_mut().set(c(0), 2);
    writer_v.m_mut().set(c(0), faust_crypto::sha256(b"w2"));
    let writer_sig = keys
        .keypair(0)
        .unwrap()
        .sign(SigContext::Commit, &writer_v.signing_bytes());

    let mut commit_v = faust_types::Version::initial(2);
    commit_v.v_mut().set(c(0), 1);
    commit_v.m_mut().set(c(0), faust_crypto::sha256(b"w1"));
    let commit_sig = keys
        .keypair(0)
        .unwrap()
        .sign(SigContext::Commit, &commit_v.signing_bytes());

    victim.begin_read(c(0)).expect("idle");
    let reply = ReplyMsg {
        last_committer: c(0),
        commit_version: SignedVersion {
            version: commit_v,
            sig: Some(commit_sig),
        },
        read: Some(faust_types::ReadReply {
            writer_version: SignedVersion {
                version: writer_v,
                sig: Some(writer_sig),
            },
            mem_timestamp: 1,
            mem_value: Some(Value::from("v")),
            mem_data_sig: Some(Signature::garbage()),
        }),
        pending: vec![],
        proofs: vec![None, None].into(),
        left_out: Default::default(),
    };
    let err = victim.handle_reply(reply).expect_err("detects");
    // The garbage data signature (line 50) or the ahead version (line 51)
    // both prove misbehaviour; line 50 runs first in the algorithm.
    assert!(
        matches!(err, Fault::BadDataSignature | Fault::WriterVersionAhead),
        "got {err:?}"
    );
}

#[test]
fn fabricated_initial_register_value_detected() {
    // A server claiming t_j = 0 (never written) while attaching a value
    // must be caught even though line 50 is skipped for t_j = 0.
    let mut cs = clients(2, b"fab");
    let mut server = UstorServer::new(2);
    let s1 = cs[1].begin_read(c(0)).expect("idle");
    let mut r1 = server.on_submit(c(1), s1);
    let mut reply = r1.pop().expect("reply").1;
    let read = reply.read.as_mut().expect("read part");
    read.mem_value = Some(Value::from("fabricated"));
    assert_eq!(
        cs[1].handle_reply(reply),
        Err(Fault::MalformedReply("nonempty initial register"))
    );
}

// --- Crash-silent server ----------------------------------------------------

#[test]
fn mute_server_never_trips_a_check() {
    let n = 2;
    let server = CrashServer::new(n, 3);
    let mut driver = Driver::new(n, Box::new(server), SimConfig::default(), b"mute");
    driver.push_ops(
        c(0),
        vec![
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
            WorkloadOp::Write(Value::from("a3")),
        ],
    );
    driver.push_ops(
        c(1),
        vec![
            WorkloadOp::Write(Value::from("b1")),
            WorkloadOp::Write(Value::from("b2")),
        ],
    );
    let result = driver.run();
    // No USTOR check fires — silence is a pure liveness failure.
    assert!(!result.detected_fault());
    // But some operations never complete.
    assert!(result.incomplete_ops > 0);
}

#[test]
fn volatile_server_restart_is_detected_as_rollback() {
    // A server whose MEM/SVER live only in memory crashes after message 7
    // and "restarts" from the volatile MemoryBackend — i.e. from scratch.
    // The erased schedule is indistinguishable from a rollback attack,
    // and the first reply after the restart carries a rewound version
    // that some client pins as a protocol violation. This is exactly the
    // failure mode the persistent backend (`faust-store`) exists to
    // remove: with a complete log the same crash/restart is invisible
    // (proved in `faust-store/tests/attacks.rs`).
    let n = 2;
    let server = faust_ustor::CrashRestartServer::new(
        n,
        Box::new(faust_ustor::MemoryBackend),
        7, // mid-run: after C0's and C1's first ops committed
    )
    .expect("memory backend never fails");
    let mut driver = Driver::new(n, Box::new(server), SimConfig::default(), b"volatile");
    driver.push_ops(
        c(0),
        vec![
            WorkloadOp::Write(Value::from("a1")),
            WorkloadOp::Write(Value::from("a2")),
            WorkloadOp::Write(Value::from("a3")),
        ],
    );
    driver.push_ops(
        c(1),
        vec![
            WorkloadOp::Write(Value::from("b1")),
            WorkloadOp::Write(Value::from("b2")),
            WorkloadOp::Write(Value::from("b3")),
        ],
    );
    let result = driver.run();
    assert!(
        result.detected_fault(),
        "a restarted volatile server must be caught"
    );
    // Which check fires first depends on interleaving: a rewound version
    // (regression / own-timestamp) or the erased proof store — all three
    // are symptoms of the same lost-state rollback.
    assert!(
        result.faults.iter().any(|(_, f)| matches!(
            f,
            Fault::VersionRegression | Fault::OwnTimestampMismatch | Fault::MissingProofSignature
        )),
        "the rollback should trip a state-loss check, got {:?}",
        result.faults
    );
}

#[test]
fn tamper_server_reports_firing() {
    let mut server = TamperServer::new(2, c(0), 0, Tamper::EchoOwnTuple);
    let mut cs = clients(2, b"fired");
    let s = cs[0].begin_write(Value::from("x")).expect("idle");
    let _ = server.on_submit(c(0), s);
    assert!(server.has_fired());
}

// --- Trust model: what a verification-key-holding server can do -------------
//
// The paper assumes the untrusted server cannot produce any client's
// signatures. Whether handing the server the verifier registry preserves
// that depends on the scheme: Ed25519 registries hold public keys only,
// HMAC registries hold the signing secrets themselves. These tests make
// both sides of `docs/trust-model.md` executable.

mod trust_model {
    use super::c;
    use faust_crypto::sig::{KeySet, SigContext, Signature};
    use faust_types::op::{data_signing_bytes, submit_signing_bytes};
    use faust_types::{InvocationTuple, OpKind, SubmitMsg, UstorMsg, Value};
    use faust_ustor::{ServerEngine, UstorClient, UstorServer};

    /// A server armed with every client's *public* key still cannot get a
    /// forged SUBMIT past its own ingress verification — and `try_forge`,
    /// the API that makes HMAC forgery trivial, has nothing to offer.
    #[test]
    fn server_with_public_keys_cannot_forge_a_submit() {
        let n = 2;
        let keys = KeySet::generate_ed25519(n, b"pk-attack");
        let registry = keys.registry();
        assert!(registry.is_public(), "Ed25519 registry is public-only");
        assert!(
            registry.try_forge(0, SigContext::Submit, b"evil").is_none(),
            "public keys must not sign"
        );

        let mut engine =
            ServerEngine::new(n, Box::new(UstorServer::new(n))).with_verification(keys.registry());
        // One genuine operation gives the attacker real signatures to
        // replay.
        let mut honest =
            UstorClient::new(c(0), n, keys.keypair(0).unwrap().clone(), keys.registry());
        let genuine = honest.begin_write(Value::from("honest")).unwrap();
        engine.enqueue(c(0), UstorMsg::Submit(genuine.clone()));
        engine.process_all();
        assert_eq!(engine.stats().submits, 1);
        while engine.poll_output_batch().is_some() {}

        // Forgery 1: fresh content, garbage Ed25519-shaped signatures.
        let mut garbage = genuine.clone();
        garbage.timestamp = 2;
        garbage.value = Some(Value::from("evil"));
        garbage.tuple.sig = Signature::garbage_ed25519();
        garbage.data_sig = Signature::garbage_ed25519();
        // Forgery 2: replay the genuine SUBMIT-signature under a new
        // timestamp (the signature covers t, so it cannot transfer).
        let mut bumped = genuine.clone();
        bumped.timestamp = 2;
        // Forgery 3: keep the signatures, swap the written value (the
        // DATA-signature covers the value hash).
        let mut swapped = genuine.clone();
        swapped.value = Some(Value::from("evil"));

        for (label, forgery) in [
            ("garbage", garbage),
            ("bumped", bumped),
            ("swapped", swapped),
        ] {
            let rejected_before = engine.stats().rejected;
            engine.enqueue(c(0), UstorMsg::Submit(forgery));
            engine.process_all();
            assert_eq!(
                engine.stats().rejected,
                rejected_before + 1,
                "{label} must be rejected"
            );
        }
        assert_eq!(engine.stats().submits, 1);
        assert!(engine.poll_output_batch().is_none(), "no forged replies");
    }

    /// The contrast case the trust-model doc warns about: an HMAC
    /// registry holds the signing secrets, so a server given one can
    /// manufacture a SUBMIT that sails through its own ingress checks.
    #[test]
    fn hmac_registry_holder_forges_a_submit_by_contrast() {
        let n = 2;
        let keys = KeySet::generate(n, b"hmac-attack");
        let registry = keys.registry();
        assert!(!registry.is_public());

        let t = 1;
        let value = Value::from("poison");
        let value_hash = faust_crypto::sha256(value.as_bytes());
        let submit_sig = registry
            .try_forge(
                0,
                SigContext::Submit,
                &submit_signing_bytes(OpKind::Write, c(0), t),
            )
            .expect("HMAC registries can forge");
        let data_sig = registry
            .try_forge(
                0,
                SigContext::Data,
                &data_signing_bytes(t, Some(value_hash)),
            )
            .expect("HMAC registries can forge");
        let forged = SubmitMsg {
            timestamp: t,
            tuple: InvocationTuple {
                client: c(0),
                kind: OpKind::Write,
                register: c(0),
                sig: submit_sig,
            },
            value: Some(value),
            data_sig,
            piggyback: None,
        };

        let mut engine =
            ServerEngine::new(n, Box::new(UstorServer::new(n))).with_verification(keys.registry());
        engine.enqueue(c(0), UstorMsg::Submit(forged));
        engine.process_all();
        assert_eq!(
            engine.stats().submits,
            1,
            "the forgery passes HMAC ingress verification — that is the attack"
        );
        assert_eq!(engine.stats().rejected, 0);
    }

    /// The whole simulated USTOR stack — driver, engine, clients — runs
    /// unchanged over Ed25519 keys, and detection still works: a server
    /// that garbles a commit signature is caught by the reader.
    #[test]
    fn full_driver_runs_and_detects_over_ed25519() {
        use faust_sim::SimConfig;
        use faust_ustor::adversary::{Tamper, TamperServer};
        use faust_ustor::{Driver, WorkloadOp};

        // Correct server: everything completes, no faults.
        let mut driver = Driver::new_with_scheme(
            2,
            Box::new(UstorServer::new(2)),
            SimConfig::default(),
            b"ed25519-sim",
            faust_crypto::SigScheme::Ed25519,
        );
        driver.push_op(c(0), WorkloadOp::Write(Value::from("v1")));
        driver.push_op(c(1), WorkloadOp::Read(c(0)));
        let result = driver.run();
        assert!(!result.detected_fault(), "{:?}", result.faults);
        assert_eq!(result.incomplete_ops, 0);

        // Tampering server: the corrupted commit signature is detected
        // under Ed25519 exactly as under HMAC.
        let server = TamperServer::new(2, c(1), 1, Tamper::CorruptCommitSig);
        let mut driver = Driver::new_with_scheme(
            2,
            Box::new(server),
            SimConfig::default(),
            b"ed25519-tamper",
            faust_crypto::SigScheme::Ed25519,
        );
        driver.push_op(c(0), WorkloadOp::Write(Value::from("a")));
        driver.push_op(c(1), WorkloadOp::Write(Value::from("b")));
        driver.push_op(c(1), WorkloadOp::Write(Value::from("c")));
        let faults = driver.run().faults;
        assert!(!faults.is_empty(), "tampering must be detected");
    }
}
