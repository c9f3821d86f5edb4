//! E10 (part 2): end-to-end USTOR operation cost through the client and
//! server state machines (no network), as a function of the number of
//! clients `n` — plus the server engine's SUBMIT ingress-verification
//! cost, batched vs. per-message.

use faust_bench::timing::{bench, bench_quiet, report_speedup, section};
use faust_bench::{run_one_read, run_one_write, steady_state};
use faust_crypto::sig::{KeySet, SigContext, SigScheme, Signer, Verifier, VerifyItem};
use faust_types::{ClientId, Value};
use std::hint::black_box;

fn main() {
    section("ustor ops through client+server state machines");
    for n in [4usize, 16, 64] {
        // Persistent state: each iteration is one more operation in a
        // long-running execution (per-op cost is flat in history length —
        // vectors have fixed arity n).
        let (mut server, mut clients) = steady_state(n, 64);
        let mut seq = 0u64;
        bench(&format!("ustor_write_op/n{n}"), || {
            seq += 1;
            black_box(run_one_write(
                &mut server,
                &mut clients[0],
                Value::unique(0, seq),
            ));
        });
        let (mut server, mut clients) = steady_state(n, 64);
        bench(&format!("ustor_read_op/n{n}"), || {
            black_box(run_one_read(&mut server, &mut clients[1], ClientId::new(0)));
        });
    }

    section("sustained writes through one client (n=16)");
    let (mut server, mut clients) = steady_state(16, 64);
    let mut seq = 1_000u64;
    bench("ustor_sustained/write_chain_n16", || {
        seq += 1;
        black_box(run_one_write(
            &mut server,
            &mut clients[0],
            Value::unique(0, seq),
        ));
    });

    section("SUBMIT ingress verification: per-message vs batched");
    // A realistic ingress batch: SUBMIT + DATA signature per message,
    // many clients interleaved — what the engine verifies when a burst of
    // traffic is queued. Run over both schemes: HMAC is the benchmarking
    // fast path, Ed25519 the sound deployment (docs/trust-model.md); the
    // Ed25519 sizes are smaller because each verification is ~3 orders of
    // magnitude costlier, which is exactly why its batch equation matters
    // (and why only its speedup is asserted: HMAC keys hold their key
    // schedule prepared, so per-message and batched are the same work).
    let configs = [
        (SigScheme::Hmac, 4usize, 64usize),
        (SigScheme::Hmac, 16, 64),
        (SigScheme::Hmac, 16, 256),
        (SigScheme::Ed25519, 4, 16),
        (SigScheme::Ed25519, 16, 64),
    ];
    for (scheme, n, batch_size) in configs {
        let keys = KeySet::generate_with(scheme, n, b"bench-verify");
        let registry = keys.registry();
        let mut items: Vec<VerifyItem> = Vec::with_capacity(2 * batch_size);
        for k in 0..batch_size {
            let signer_idx = (k % n) as u32;
            let kp = keys.keypair(signer_idx).unwrap();
            let submit_bytes = faust_types::op::submit_signing_bytes(
                faust_types::OpKind::Write,
                ClientId::new(signer_idx),
                k as u64 + 1,
            );
            let data_bytes = faust_types::op::data_signing_bytes(
                k as u64 + 1,
                Some(faust_crypto::sha256(&k.to_be_bytes())),
            );
            items.push(VerifyItem {
                signer: signer_idx,
                context: SigContext::Submit,
                sig: kp.sign(SigContext::Submit, &submit_bytes),
                message: submit_bytes,
            });
            items.push(VerifyItem {
                signer: signer_idx,
                context: SigContext::Data,
                sig: kp.sign(SigContext::Data, &data_bytes),
                message: data_bytes,
            });
        }

        let per_message = bench_quiet(
            &format!("verify_per_message/{scheme:?}/n{n}_batch{batch_size}"),
            || {
                for item in &items {
                    assert!(registry.verify(
                        item.signer,
                        item.context,
                        black_box(&item.message),
                        &item.sig
                    ));
                }
            },
        );
        let batched = bench_quiet(
            &format!("verify_batched/{scheme:?}/n{n}_batch{batch_size}"),
            || {
                let verdicts = registry.verify_batch(black_box(&items));
                assert!(verdicts.iter().all(|&v| v));
            },
        );
        let speedup = report_speedup(&per_message, &batched);
        assert!(
            scheme == SigScheme::Hmac || speedup > 1.0,
            "batched {scheme:?} verification must beat per-message ({speedup:.2}x)"
        );
    }
}
