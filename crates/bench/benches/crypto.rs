//! E10 (part 1): raw cryptographic costs — hashing, MACs, signatures,
//! digest chains. These dominate USTOR's per-operation CPU cost.
//!
//! The signature sections compare the two schemes of
//! `docs/trust-model.md`: shared-key HMAC (fast, unsound ingress) vs
//! in-tree Ed25519 (public-key, sound ingress), per message and batched.

use faust_bench::timing::{bench, bench_quiet, bench_throughput, report_speedup, section};
use faust_crypto::chain::chain_extend;
use faust_crypto::hmac::{hmac_sha256, PreparedHmac};
use faust_crypto::sha256::sha256;
use faust_crypto::sha512::sha512;
use faust_crypto::sig::{KeySet, SigContext, SigScheme, Signer, Verifier, VerifyItem};
use std::hint::black_box;

fn main() {
    section("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xAB; size];
        bench_throughput(&format!("sha256/{size}B"), size, || {
            black_box(sha256(black_box(&data)));
        });
    }

    section("hmac_sha256");
    for size in [64usize, 1024] {
        let data = vec![0xCD; size];
        bench_throughput(&format!("hmac_sha256/{size}B"), size, || {
            black_box(hmac_sha256(b"bench key", black_box(&data)));
        });
    }
    let prepared = PreparedHmac::new(b"bench key");
    for size in [64usize, 1024] {
        let data = vec![0xCD; size];
        bench_throughput(&format!("hmac_sha256_prepared/{size}B"), size, || {
            black_box(prepared.mac(&[black_box(&data)]));
        });
    }

    section("sha512");
    for size in [64usize, 1024] {
        let data = vec![0xAB; size];
        bench_throughput(&format!("sha512/{size}B"), size, || {
            black_box(sha512(black_box(&data)));
        });
    }

    section("signatures (per message, both schemes)");
    let msg = vec![0xEF; 128];
    for (label, scheme) in [("hmac", SigScheme::Hmac), ("ed25519", SigScheme::Ed25519)] {
        let keys = KeySet::generate_with(scheme, 4, b"bench");
        let signer = keys.keypair(0).unwrap();
        let registry = keys.registry();
        let sig = signer.sign(SigContext::Commit, &msg);
        bench(&format!("{label}_sign_128B"), || {
            black_box(signer.sign(SigContext::Commit, black_box(&msg)));
        });
        bench(&format!("{label}_verify_128B"), || {
            black_box(registry.verify(0, SigContext::Commit, black_box(&msg), &sig));
        });
    }

    section("batched verification: per-message vs one batch call");
    // The server-engine ingress workload: many short messages from a few
    // signers. Ed25519 runs one multi-scalar batch equation that shares
    // all point doublings; HMAC keys hold their key schedule prepared, so
    // its two paths are one and only Ed25519's speedup is asserted.
    for (label, scheme) in [("hmac", SigScheme::Hmac), ("ed25519", SigScheme::Ed25519)] {
        for batch_size in [16usize, 64] {
            let n = 4;
            let keys = KeySet::generate_with(scheme, n, b"bench-batch");
            let registry = keys.registry();
            let items: Vec<VerifyItem> = (0..batch_size)
                .map(|k| {
                    let signer_idx = (k % n) as u32;
                    let message = format!("op {k} payload {batch_size}").into_bytes();
                    let sig = keys
                        .keypair(signer_idx)
                        .unwrap()
                        .sign(SigContext::Submit, &message);
                    VerifyItem {
                        signer: signer_idx,
                        context: SigContext::Submit,
                        message,
                        sig,
                    }
                })
                .collect();
            let per_message = bench_quiet(&format!("{label}_per_message/{batch_size}"), || {
                for item in &items {
                    assert!(registry.verify(
                        item.signer,
                        item.context,
                        black_box(&item.message),
                        &item.sig
                    ));
                }
            });
            let batched = bench_quiet(&format!("{label}_batched/{batch_size}"), || {
                let verdicts = registry.verify_batch(black_box(&items));
                assert!(verdicts.iter().all(|&v| v));
            });
            let speedup = report_speedup(&per_message, &batched);
            assert!(
                scheme == SigScheme::Hmac || speedup > 1.0,
                "{label} batched verification must beat per-message ({speedup:.2}x)"
            );
        }
    }

    section("digest chains");
    let d = chain_extend(None, 0);
    bench("chain_extend", || {
        black_box(chain_extend(black_box(Some(d)), black_box(3)));
    });
}
