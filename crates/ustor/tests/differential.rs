//! Differential oracle for the client's incremental reply check.
//!
//! [`UstorClient::handle_reply`] keeps positional state from the previous
//! reply (the verified fold steps, one located PROOF per slot) and only
//! re-runs Algorithm 1's checks on what is not byte-identical to something
//! already checked. A client rebuilt through `export_state`/`from_state`
//! has none of that state and verifies everything. Here every reply is
//! handled by both — the incremental client and a twin rebuilt immediately
//! before — and the `Result` must be the same at every step: the exact
//! [`Fault`] variant, or the COMMIT bytes and the completion.
//!
//! Property-style without an external framework: each case is generated
//! from a seeded [`SmallRng`], so a failure reproduces exactly by its
//! label.

use faust_crypto::sig::{KeySet, Signature};
use faust_sim::SmallRng;
use faust_types::{ClientId, CommitMsg, ReplyMsg, SignedVersion, SubmitMsg, Value};
use faust_ustor::adversary::{Fig3Server, SplitBrainServer, Tamper, TamperServer};
use faust_ustor::{CommitMode, Server, UstorClient, UstorServer};
use std::collections::VecDeque;

fn c(i: usize) -> ClientId {
    ClientId::new(i as u32)
}

/// A reply mutation a Byzantine server could apply, aimed at the state
/// the incremental client carries over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// One flipped signature byte in a surviving tuple.
    FlipSurvivingSig,
    /// Two verified tuples swapped.
    SwapVerified,
    /// A verified tuple re-presented one position later.
    RepresentLater,
    /// An older `P[k]` replayed after a newer one verified.
    ReplayOlderProof,
    /// `commit_version` rolled back so that the start digest matches no
    /// retained step.
    RollBackCommitVersion,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::FlipSurvivingSig,
    Mutation::SwapVerified,
    Mutation::RepresentLater,
    Mutation::ReplayOlderProof,
    Mutation::RollBackCommitVersion,
];

/// What one client has been shown so far — the raw material of a replay.
#[derive(Default)]
struct Seen {
    /// The previous reply's pending list (its tuples are the verified,
    /// possibly surviving ones).
    pending: Vec<faust_types::InvocationTuple>,
    /// Every distinct signature seen per PROOF slot, oldest first.
    proofs: Vec<Vec<Signature>>,
    /// Every `(c, SVER[c])` seen, oldest first.
    commit_versions: Vec<(ClientId, SignedVersion)>,
}

impl Seen {
    fn record(&mut self, reply: &ReplyMsg) {
        self.pending = reply.pending.clone();
        self.proofs.resize(reply.proofs.len(), Vec::new());
        for (seen, proof) in self.proofs.iter_mut().zip(&reply.proofs) {
            if let Some(p) = proof {
                if seen.last() != Some(p) {
                    seen.push(*p);
                }
            }
        }
        let head = (reply.last_committer, reply.commit_version.clone());
        if self.commit_versions.last() != Some(&head) {
            self.commit_versions.push(head);
        }
    }

    /// Positions in `reply.pending` of tuples the previous reply carried.
    fn surviving(&self, reply: &ReplyMsg) -> Vec<usize> {
        (0..reply.pending.len())
            .filter(|&p| self.pending.contains(&reply.pending[p]))
            .collect()
    }

    /// Applies `kind` to `reply`; `false` if there is nothing to apply it
    /// to yet.
    fn mutate(&self, kind: Mutation, reply: &mut ReplyMsg, rng: &mut SmallRng) -> bool {
        let surviving = self.surviving(reply);
        match kind {
            Mutation::FlipSurvivingSig => {
                let Some(&p) = surviving.get(rng.gen_index(surviving.len().max(1))) else {
                    return false;
                };
                let sig = &mut reply.pending[p].sig;
                let mut raw = sig.as_bytes().to_vec();
                let at = rng.gen_index(raw.len());
                raw[at] ^= 1 << rng.gen_index(8);
                *sig = match sig {
                    Signature::Mac(_) => Signature::Mac(raw.try_into().unwrap()),
                    Signature::Ed25519(_) => Signature::Ed25519(raw.try_into().unwrap()),
                };
            }
            Mutation::SwapVerified => {
                if surviving.len() < 2 {
                    return false;
                }
                let a = surviving[rng.gen_index(surviving.len())];
                let b = surviving[rng.gen_index(surviving.len())];
                if reply.pending[a] == reply.pending[b] {
                    return false;
                }
                reply.pending.swap(a, b);
            }
            Mutation::RepresentLater => {
                let Some(&p) = surviving.get(rng.gen_index(surviving.len().max(1))) else {
                    return false;
                };
                let again = reply.pending[p].clone();
                reply.pending.insert(p + 1, again);
            }
            Mutation::ReplayOlderProof => {
                let stale: Vec<usize> = (0..reply.proofs.len())
                    .filter(|&k| self.proofs.get(k).is_some_and(|seen| seen.len() >= 2))
                    .collect();
                if stale.is_empty() {
                    return false;
                }
                let k = stale[rng.gen_index(stale.len())];
                let older = &self.proofs[k][..self.proofs[k].len() - 1];
                let pick = older[rng.gen_index(older.len())];
                if reply.proofs[k] == Some(pick) {
                    return false;
                }
                reply.proofs[k] = Some(pick);
            }
            Mutation::RollBackCommitVersion => {
                // Old enough that every step since has left the client's
                // retained run.
                if self.commit_versions.len() < 4 {
                    return false;
                }
                let (who, old) = &self.commit_versions[rng.gen_index(2)];
                reply.last_committer = *who;
                reply.commit_version = old.clone();
            }
        }
        true
    }
}

/// A message queued towards the server (the client→server FIFO).
enum ToServer {
    Submit(SubmitMsg),
    Commit(CommitMsg),
}

/// What a case compared, so that the suite can show it was not vacuous.
#[derive(Debug, Default)]
struct Tally {
    replies: usize,
    accepted: usize,
    faults: usize,
    probes: [usize; MUTATIONS.len()],
    probe_faults: usize,
    probe_accepts: usize,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.replies += other.replies;
        self.accepted += other.accepted;
        self.faults += other.faults;
        for (a, b) in self.probes.iter_mut().zip(other.probes) {
            *a += b;
        }
        self.probe_faults += other.probe_faults;
        self.probe_accepts += other.probe_accepts;
    }
}

struct Case<'a> {
    label: &'a str,
    n: usize,
    depth: usize,
    mode: CommitMode,
    steps: usize,
    /// Probability that a reply is first shown mutated.
    mutate: f64,
}

/// Handles `reply` with `client` and with a twin rebuilt from its exported
/// state; both the results and the resulting protocol states must agree.
fn handle_both(
    client: &mut UstorClient,
    keys: &KeySet,
    reply: ReplyMsg,
    what: &str,
) -> Result<(Option<CommitMsg>, faust_ustor::OpCompletion), faust_ustor::Fault> {
    let id = client.id();
    let mut twin = UstorClient::from_state(
        keys.keypair(id.as_u32()).unwrap().clone(),
        keys.registry(),
        client.export_state(),
    );
    let want = twin.handle_reply(reply.clone());
    let got = client.handle_reply(reply);
    assert_eq!(got, want, "{what}: incremental (left) vs full (right)");
    assert_eq!(
        client.export_state(),
        twin.export_state(),
        "{what}: protocol state diverged"
    );
    got
}

fn run_case(case: &Case<'_>, server: &mut dyn Server, rng: &mut SmallRng) -> Tally {
    let Case { n, depth, mode, .. } = *case;
    let keys = KeySet::generate(n, b"differential");
    let mut cs: Vec<UstorClient> = (0..n)
        .map(|i| {
            let keypair = keys.keypair(i as u32).unwrap().clone();
            let mut client = UstorClient::new(c(i), n, keypair, keys.registry());
            client.set_pipeline(depth);
            client.set_commit_mode(mode);
            client
        })
        .collect();
    let mut to_server: Vec<VecDeque<ToServer>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut to_client: Vec<VecDeque<ReplyMsg>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut seen: Vec<Seen> = (0..n).map(|_| Seen::default()).collect();
    let mut seq = vec![0u64; n];
    let mut tally = Tally::default();

    for step in 0..case.steps {
        let i = rng.gen_index(n);
        let what = format!("{} step {step} client {i}", case.label);
        match rng.gen_index(8) {
            // Start an operation: the SUBMIT joins the client's FIFO.
            0..=2 => {
                if cs[i].is_busy() || cs[i].fault().is_some() {
                    continue;
                }
                seq[i] += 1;
                let submit = if rng.gen_index(4) != 0 {
                    cs[i].begin_write(Value::unique(i as u32, seq[i]))
                } else {
                    cs[i].begin_read(c(rng.gen_index(n)))
                };
                to_server[i].push_back(ToServer::Submit(submit.expect("not busy, not halted")));
            }
            // The server processes the head of the client's FIFO.
            3..=4 => {
                let replies = match to_server[i].pop_front() {
                    Some(ToServer::Submit(m)) => server.on_submit(c(i), m),
                    Some(ToServer::Commit(m)) => server.on_commit(c(i), m),
                    None => continue,
                };
                for (to, reply) in replies {
                    to_client[to.index()].push_back(reply);
                }
            }
            // An idle piggybacking client flushes its held COMMIT.
            5 => {
                if cs[i].in_flight() == 0 {
                    if let Some(commit) = cs[i].take_held_commit() {
                        to_server[i].push_back(ToServer::Commit(commit));
                    }
                }
            }
            // The client receives its next REPLY — possibly mutated first.
            _ => {
                if cs[i].fault().is_some() {
                    continue;
                }
                let Some(mut reply) = to_client[i].pop_front() else {
                    continue;
                };
                if rng.gen_bool(case.mutate) {
                    let which = rng.gen_index(MUTATIONS.len());
                    let kind = MUTATIONS[which];
                    let mut mutated = reply.clone();
                    if seen[i].mutate(kind, &mut mutated, rng) {
                        tally.probes[which] += 1;
                        let what = format!("{what} probe {kind:?}");
                        // A replayed PROOF changes no version, so the
                        // run can carry on from it and exercise what the
                        // slot state does next; every other mutation is
                        // shown to a copy of the client (fold state
                        // included) that is then discarded.
                        if kind == Mutation::ReplayOlderProof && depth > 1 {
                            reply = mutated;
                        } else {
                            let mut probe = cs[i].clone();
                            match handle_both(&mut probe, &keys, mutated, &what) {
                                Ok(_) => tally.probe_accepts += 1,
                                Err(_) => tally.probe_faults += 1,
                            }
                        }
                    }
                }
                seen[i].record(&reply);
                tally.replies += 1;
                match handle_both(&mut cs[i], &keys, reply, &what) {
                    Ok((commit, _)) => {
                        tally.accepted += 1;
                        if let Some(commit) = commit {
                            to_server[i].push_back(ToServer::Commit(commit));
                        }
                    }
                    Err(_) => tally.faults += 1,
                }
            }
        }
    }
    tally
}

const SHAPES: [(usize, usize); 9] = [
    (2, 1),
    (2, 4),
    (2, 16),
    (3, 1),
    (3, 4),
    (3, 16),
    (5, 1),
    (5, 4),
    (5, 16),
];
const MODES: [CommitMode; 2] = [CommitMode::Immediate, CommitMode::Piggyback];

#[test]
fn honest_server_incremental_and_full_checks_agree() {
    let mut total = Tally::default();
    for (shape, &(n, depth)) in SHAPES.iter().enumerate() {
        for mode in MODES {
            for seed in 0..3u64 {
                let label = format!("honest n={n} depth={depth} {mode:?} seed={seed}");
                let mut rng = SmallRng::seed_from_u64(0xD1FF_0000 + 100 * shape as u64 + seed);
                let case = Case {
                    label: &label,
                    n,
                    depth,
                    mode,
                    steps: 250 * n * depth.min(4),
                    mutate: 0.0,
                };
                let tally = run_case(&case, &mut UstorServer::new(n), &mut rng);
                assert_eq!(tally.faults, 0, "{label}: false positive");
                assert!(tally.accepted > 20, "{label}: {tally:?}");
                total.add(&tally);
            }
        }
    }
    eprintln!("honest: {total:?}");
    assert!(total.accepted > 5_000, "{total:?}");
}

#[test]
fn mutated_replies_get_the_same_verdict_from_both() {
    let mut total = Tally::default();
    for (shape, &(n, depth)) in SHAPES.iter().enumerate() {
        for mode in MODES {
            for seed in 0..4u64 {
                let label = format!("mutated n={n} depth={depth} {mode:?} seed={seed}");
                let mut rng = SmallRng::seed_from_u64(0xD1FF_1000 + 100 * shape as u64 + seed);
                let case = Case {
                    label: &label,
                    n,
                    depth,
                    mode,
                    steps: 250 * n * depth.min(4),
                    mutate: 0.3,
                };
                total.add(&run_case(&case, &mut UstorServer::new(n), &mut rng));
            }
        }
    }
    // Every mutation was applied many times, and the suite saw both
    // verdicts: detected (most) and — legitimately — tolerated (a stale
    // PROOF within the pipeline window).
    eprintln!("mutated: {total:?}");
    for (kind, count) in MUTATIONS.iter().zip(total.probes) {
        assert!(
            count >= 50,
            "{kind:?} applied only {count} times: {total:?}"
        );
    }
    assert!(total.probe_faults >= 500, "{total:?}");
    assert!(total.accepted >= 2_000, "{total:?}");
}

#[test]
fn byzantine_servers_get_the_same_verdict_from_both() {
    let tampers = [
        Tamper::CorruptCommitSig,
        Tamper::RegressToInitialVersion,
        Tamper::CorruptPendingSig,
        Tamper::EchoOwnTuple,
        Tamper::OmitProof,
        Tamper::CorruptProof,
        Tamper::CorruptReadValue,
        Tamper::StaleReadValue,
        Tamper::CorruptWriterSig,
        Tamper::AncientWriterVersion,
    ];
    let mut total = Tally::default();
    for (shape, &(n, depth)) in SHAPES.iter().enumerate() {
        for mode in MODES {
            let mut servers: Vec<(String, Box<dyn Server>)> = Vec::new();
            let (left, right) = (0..n).map(c).partition(|k| k.index() % 2 == 0);
            servers.push((
                "split-brain".into(),
                Box::new(SplitBrainServer::new(n, vec![left, right], 6 * n)),
            ));
            servers.push(("fig3".into(), Box::new(Fig3Server::new(n, c(0), c(1)))));
            for (t, kind) in tampers.iter().enumerate() {
                let server = TamperServer::new(n, c(t % n), 4 * n + t, *kind);
                servers.push((format!("{kind:?}"), Box::new(server)));
            }
            for (s, (name, mut server)) in servers.into_iter().enumerate() {
                let label = format!("{name} n={n} depth={depth} {mode:?}");
                let seed = 0xD1FF_2000 + 1000 * shape as u64 + s as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                let case = Case {
                    label: &label,
                    n,
                    depth,
                    mode,
                    steps: 150 * n * depth.min(4),
                    mutate: 0.05,
                };
                total.add(&run_case(&case, server.as_mut(), &mut rng));
            }
        }
    }
    eprintln!("byzantine: {total:?}");
    assert!(total.faults >= 50, "few attacks were detected: {total:?}");
    assert!(total.accepted >= 5_000, "{total:?}");
}
