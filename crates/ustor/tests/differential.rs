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
//!
//! A second comparison covers the server side. A correct server sends
//! `P[k]` only for clients `k` with a tuple in `L`, the only slots line 41
//! reads. Wherever an honest twin of the server can be fed the same
//! messages, a second fleet of clients is shown every reply with the
//! omitted slots put back from the twin's `export_state().proofs` — what
//! a server that sent every slot would have sent — and must reach the
//! same verdict.

use faust_crypto::sig::{KeySet, Signature};
use faust_sim::SmallRng;
use faust_types::{ClientId, CommitMsg, ReplyMsg, SignedVersion, SubmitMsg, Value};
use faust_ustor::adversary::{Fig3Server, SplitBrainServer, Tamper, TamperServer};
use faust_ustor::{CommitMode, Fault, OpCompletion, Server, UstorClient, UstorServer};
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
        for (seen, proof) in self.proofs.iter_mut().zip(reply.proofs.iter()) {
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
                let k = ClientId::new(k as u32);
                if reply.proofs.get(k) == Some(&pick) {
                    return false;
                }
                reply.proofs.set(k, Some(pick));
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

/// `P` slots a reply leaves out, indexed by client: `Some` where the
/// server omitted a signature it held.
type Omitted = Vec<Option<Signature>>;

/// The reply a server sending every `P` slot would have sent: `reply`
/// with each empty slot the server omitted put back.
fn unmask(reply: &ReplyMsg, omitted: &Omitted) -> ReplyMsg {
    let mut full = reply.clone();
    for (k, held) in omitted.iter().enumerate() {
        let k = ClientId::new(k as u32);
        if held.is_some() && full.proofs.get(k).is_none() {
            full.proofs.set(k, *held);
        }
    }
    full
}

/// An honest twin of the server under test, fed the same messages, and
/// the clients that are shown every reply with all of `P`.
struct FullProofs {
    twin: UstorServer,
    clients: Vec<UstorClient>,
}

impl FullProofs {
    /// Feeds the SUBMIT to the twin and returns the slots its reply —
    /// the honest one, whatever the server under test did to it — left
    /// out.
    fn on_submit(&mut self, from: ClientId, msg: SubmitMsg) -> Omitted {
        let (_, honest) = self.twin.on_submit(from, msg).pop().expect("one reply");
        let mut omitted = self.twin.export_state().proofs;
        for tuple in &honest.pending {
            omitted[tuple.client.index()] = None;
        }
        omitted
    }
}

type Handled = Result<(Option<CommitMsg>, OpCompletion), Fault>;

/// What a case compared, so that the suite can show it was not vacuous.
#[derive(Debug, Default)]
struct Tally {
    replies: usize,
    accepted: usize,
    faults: usize,
    probes: [usize; MUTATIONS.len()],
    probe_faults: usize,
    probe_accepts: usize,
    /// Verdicts compared against a client shown every `P` slot.
    full_p: usize,
    /// Of those, a forged own tuple caught at line 41 for want of the
    /// client's own PROOF, where the full reply reached line 43.
    shifted: usize,
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
        self.full_p += other.full_p;
        self.shifted += other.shifted;
    }

    /// Checks the verdict on a masked reply against the one on the same
    /// reply with every `P` slot: identical, or the one permitted shift.
    fn compare_full_p(&mut self, masked: &Handled, full: &Handled, what: &str) {
        self.full_p += 1;
        if masked == full {
            return;
        }
        assert_eq!(
            (masked, full),
            (
                &Err(Fault::MissingProofSignature),
                &Err(Fault::OwnOperationPending)
            ),
            "{what}: masked P (left) vs full P (right)"
        );
        self.shifted += 1;
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
fn handle_both(client: &mut UstorClient, keys: &KeySet, reply: ReplyMsg, what: &str) -> Handled {
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

/// Runs a case against `server`. With `honest_twin`, the server keeps a
/// correct server's state under whatever it does to its replies (the
/// honest server and every [`TamperServer`]), and each verdict is also
/// compared against one on the reply with every `P` slot.
fn run_case(
    case: &Case<'_>,
    server: &mut dyn Server,
    honest_twin: bool,
    rng: &mut SmallRng,
) -> Tally {
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
    let mut full = honest_twin.then(|| FullProofs {
        twin: UstorServer::new(n),
        clients: cs.clone(),
    });
    let mut to_server: Vec<VecDeque<ToServer>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut to_client: Vec<VecDeque<(ReplyMsg, Option<Omitted>)>> =
        (0..n).map(|_| VecDeque::new()).collect();
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
                let value = Value::unique(i as u32, seq[i]);
                let read = (rng.gen_index(4) == 0).then(|| c(rng.gen_index(n)));
                let begin = |client: &mut UstorClient| match read {
                    None => client.begin_write(value.clone()),
                    Some(j) => client.begin_read(j),
                };
                let submit = begin(&mut cs[i]).expect("not busy, not halted");
                if let Some(full) = &mut full {
                    assert_eq!(begin(&mut full.clients[i]), Ok(submit.clone()), "{what}");
                }
                to_server[i].push_back(ToServer::Submit(submit));
            }
            // The server processes the head of the client's FIFO.
            3..=4 => {
                let (replies, omitted) = match to_server[i].pop_front() {
                    Some(ToServer::Submit(m)) => {
                        let omitted = full.as_mut().map(|f| f.on_submit(c(i), m.clone()));
                        (server.on_submit(c(i), m), omitted)
                    }
                    Some(ToServer::Commit(m)) => {
                        if let Some(full) = &mut full {
                            full.twin.on_commit(c(i), m.clone());
                        }
                        (server.on_commit(c(i), m), None)
                    }
                    None => continue,
                };
                for (to, reply) in replies {
                    to_client[to.index()].push_back((reply, omitted.clone()));
                }
            }
            // An idle piggybacking client flushes its held COMMIT.
            5 => {
                if cs[i].in_flight() == 0 {
                    let held = cs[i].take_held_commit();
                    if let Some(full) = &mut full {
                        assert_eq!(full.clients[i].take_held_commit(), held, "{what}");
                    }
                    if let Some(commit) = held {
                        to_server[i].push_back(ToServer::Commit(commit));
                    }
                }
            }
            // The client receives its next REPLY — possibly mutated first.
            _ => {
                if cs[i].fault().is_some() {
                    continue;
                }
                let Some((mut reply, omitted)) = to_client[i].pop_front() else {
                    continue;
                };
                // The same client in the fleet shown every `P` slot.
                let mut full = full.as_mut().zip(omitted.as_ref());
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
                            let got = handle_both(&mut probe, &keys, mutated.clone(), &what);
                            if let Some((full, omitted)) = &full {
                                let mut probe = full.clients[i].clone();
                                let want = probe.handle_reply(unmask(&mutated, omitted));
                                tally.compare_full_p(&got, &want, &what);
                            }
                            match got {
                                Ok(_) => tally.probe_accepts += 1,
                                Err(_) => tally.probe_faults += 1,
                            }
                        }
                    }
                }
                seen[i].record(&reply);
                tally.replies += 1;
                let got = handle_both(&mut cs[i], &keys, reply.clone(), &what);
                if let Some((full, omitted)) = &mut full {
                    let want = full.clients[i].handle_reply(unmask(&reply, omitted));
                    tally.compare_full_p(&got, &want, &what);
                }
                match got {
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
                let tally = run_case(&case, &mut UstorServer::new(n), true, &mut rng);
                assert_eq!(tally.faults, 0, "{label}: false positive");
                assert!(tally.accepted > 20, "{label}: {tally:?}");
                total.add(&tally);
            }
        }
    }
    eprintln!("honest: {total:?}");
    assert!(total.accepted > 5_000, "{total:?}");
    assert_eq!((total.full_p, total.shifted), (total.replies, 0));
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
                total.add(&run_case(&case, &mut UstorServer::new(n), true, &mut rng));
            }
        }
    }
    // Every mutation was applied many times, and the suite saw both
    // verdicts: detected (most) and — legitimately — tolerated (a stale
    // PROOF within the pipeline window).
    eprintln!("mutated: {total:?}");
    assert_eq!(total.shifted, 0, "{total:?}");
    assert!(total.full_p >= total.replies, "{total:?}");
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
            // (name, server, whether an honest twin shares its state)
            let mut servers: Vec<(String, Box<dyn Server>, bool)> = Vec::new();
            let (left, right) = (0..n).map(c).partition(|k| k.index() % 2 == 0);
            servers.push((
                "split-brain".into(),
                Box::new(SplitBrainServer::new(n, vec![left, right], 6 * n)),
                false,
            ));
            servers.push((
                "fig3".into(),
                Box::new(Fig3Server::new(n, c(0), c(1))),
                false,
            ));
            for (t, kind) in tampers.iter().enumerate() {
                let server = TamperServer::new(n, c(t % n), 4 * n + t, *kind);
                servers.push((format!("{kind:?}"), Box::new(server), true));
            }
            for (s, (name, mut server, twin)) in servers.into_iter().enumerate() {
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
                let tally = run_case(&case, server.as_mut(), twin, &mut rng);
                // The one verdict a masked P may move: an echoed own
                // tuple of a client that has committed is caught at
                // line 41, for want of its own PROOF, not at line 43.
                if name != "EchoOwnTuple" {
                    assert_eq!(tally.shifted, 0, "{label}: {tally:?}");
                }
                total.add(&tally);
            }
        }
    }
    eprintln!("byzantine: {total:?}");
    assert!(total.faults >= 50, "few attacks were detected: {total:?}");
    assert!(total.accepted >= 5_000, "{total:?}");
    assert!(total.full_p >= 2_000, "{total:?}");
}
