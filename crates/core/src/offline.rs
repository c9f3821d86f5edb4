//! Offline client-to-client messages of the FAUST protocol (Section 6):
//! PROBE, VERSION, and FAILURE.
//!
//! These messages travel on the reliable offline channel, never through
//! the untrusted server. They are nevertheless signed (domain
//! [`SigContext::Offline`]) so that the channel needs no further
//! authentication assumptions; unverifiable messages are silently dropped
//! (they can only be noise — dropping preserves failure-detection
//! accuracy).

use faust_crypto::sig::{SigContext, Signature, Signer, Verifier};
use faust_types::wire::WireError;
use faust_types::{ClientId, Sink, Version, Wire};

/// An offline client-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfflineMsg {
    /// "Send me the maximal version you know."
    Probe {
        /// The probing client.
        from: ClientId,
        /// Signature over the message.
        sig: Signature,
    },
    /// The sender's maximal known version `VER_j[max_j]` (not necessarily
    /// committed by the sender itself).
    Version {
        /// The sending client.
        from: ClientId,
        /// The version being shared.
        version: Version,
        /// Signature over the message.
        sig: Signature,
    },
    /// The sender has proof of server misbehaviour; everyone should stop.
    Failure {
        /// The alerting client.
        from: ClientId,
        /// Signature over the message.
        sig: Signature,
    },
}

fn probe_bytes(from: ClientId) -> Vec<u8> {
    let mut out = b"faust-probe:".to_vec();
    out.extend_from_slice(&from.as_u32().to_be_bytes());
    out
}

fn version_bytes(from: ClientId, version: &Version) -> Vec<u8> {
    let mut out = b"faust-version:".to_vec();
    out.extend_from_slice(&from.as_u32().to_be_bytes());
    out.extend_from_slice(&version.signing_bytes());
    out
}

fn failure_bytes(from: ClientId) -> Vec<u8> {
    let mut out = b"faust-failure:".to_vec();
    out.extend_from_slice(&from.as_u32().to_be_bytes());
    out
}

impl OfflineMsg {
    /// Builds a signed PROBE.
    pub fn probe(signer: &impl Signer) -> Self {
        let from = ClientId::new(signer.signer_index());
        OfflineMsg::Probe {
            from,
            sig: signer.sign(SigContext::Offline, &probe_bytes(from)),
        }
    }

    /// Builds a signed VERSION.
    pub fn version(signer: &impl Signer, version: Version) -> Self {
        let from = ClientId::new(signer.signer_index());
        let sig = signer.sign(SigContext::Offline, &version_bytes(from, &version));
        OfflineMsg::Version { from, version, sig }
    }

    /// Builds a signed FAILURE.
    pub fn failure(signer: &impl Signer) -> Self {
        let from = ClientId::new(signer.signer_index());
        OfflineMsg::Failure {
            from,
            sig: signer.sign(SigContext::Offline, &failure_bytes(from)),
        }
    }

    /// The sending client.
    pub fn sender(&self) -> ClientId {
        match self {
            OfflineMsg::Probe { from, .. }
            | OfflineMsg::Version { from, .. }
            | OfflineMsg::Failure { from, .. } => *from,
        }
    }

    /// Verifies the message signature against its claimed sender.
    pub fn verify(&self, registry: &impl Verifier) -> bool {
        match self {
            OfflineMsg::Probe { from, sig } => {
                registry.verify(from.as_u32(), SigContext::Offline, &probe_bytes(*from), sig)
            }
            OfflineMsg::Version { from, version, sig } => registry.verify(
                from.as_u32(),
                SigContext::Offline,
                &version_bytes(*from, version),
                sig,
            ),
            OfflineMsg::Failure { from, sig } => registry.verify(
                from.as_u32(),
                SigContext::Offline,
                &failure_bytes(*from),
                sig,
            ),
        }
    }

    /// Exact wire size in bytes (tag + sender + signature + version
    /// payload if present).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Wire for OfflineMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            OfflineMsg::Probe { from, sig } => {
                out.push(0);
                from.encode_into(out);
                sig.encode_into(out);
            }
            OfflineMsg::Version { from, version, sig } => {
                out.push(1);
                from.encode_into(out);
                version.encode_into(out);
                sig.encode_into(out);
            }
            OfflineMsg::Failure { from, sig } => {
                out.push(2);
                from.encode_into(out);
                sig.encode_into(out);
            }
        }
    }

    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_from(input)? {
            0 => Ok(OfflineMsg::Probe {
                from: ClientId::decode_from(input)?,
                sig: Signature::decode_from(input)?,
            }),
            1 => Ok(OfflineMsg::Version {
                from: ClientId::decode_from(input)?,
                version: Version::decode_from(input)?,
                sig: Signature::decode_from(input)?,
            }),
            2 => Ok(OfflineMsg::Failure {
                from: ClientId::decode_from(input)?,
                sig: Signature::decode_from(input)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_crypto::sig::KeySet;

    #[test]
    fn messages_verify_under_their_sender() {
        let keys = KeySet::generate(2, b"offline");
        let reg = keys.registry();
        let signer = keys.keypair(0).unwrap();
        let msgs = [
            OfflineMsg::probe(signer),
            OfflineMsg::version(signer, Version::initial(2)),
            OfflineMsg::failure(signer),
        ];
        for m in &msgs {
            assert_eq!(m.sender(), ClientId::new(0));
            assert!(m.verify(&reg));
        }
    }

    #[test]
    fn spoofed_sender_rejected() {
        let keys = KeySet::generate(2, b"offline");
        let reg = keys.registry();
        let signer = keys.keypair(0).unwrap();
        let OfflineMsg::Probe { sig, .. } = OfflineMsg::probe(signer) else {
            unreachable!()
        };
        let spoofed = OfflineMsg::Probe {
            from: ClientId::new(1),
            sig,
        };
        assert!(!spoofed.verify(&reg));
    }

    #[test]
    fn tampered_version_rejected() {
        let keys = KeySet::generate(2, b"offline");
        let reg = keys.registry();
        let signer = keys.keypair(0).unwrap();
        let OfflineMsg::Version { from, sig, .. } =
            OfflineMsg::version(signer, Version::initial(2))
        else {
            unreachable!()
        };
        let mut other = Version::initial(2);
        other.v_mut().increment(ClientId::new(0));
        other
            .m_mut()
            .set(ClientId::new(0), faust_crypto::sha256(b"d"));
        let tampered = OfflineMsg::Version {
            from,
            version: other,
            sig,
        };
        assert!(!tampered.verify(&reg));
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use faust_crypto::sig::KeySet;
    use faust_types::wire::WireError;

    fn samples() -> Vec<OfflineMsg> {
        let keys = KeySet::generate(3, b"offline-wire");
        let signer = keys.keypair(1).unwrap();
        let mut version = Version::initial(3);
        version.v_mut().increment(ClientId::new(1));
        version
            .m_mut()
            .set(ClientId::new(1), faust_crypto::sha256(b"entry"));
        vec![
            OfflineMsg::probe(signer),
            OfflineMsg::version(signer, version),
            OfflineMsg::failure(signer),
        ]
    }

    #[test]
    fn offline_messages_roundtrip() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.size_bytes());
            assert_eq!(OfflineMsg::decode(&bytes), Ok(msg));
        }
    }

    #[test]
    fn truncated_and_bad_tag_rejected() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(OfflineMsg::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        assert_eq!(OfflineMsg::decode(&[9]), Err(WireError::BadTag(9)));
    }

    #[test]
    fn decoded_messages_still_verify() {
        let keys = KeySet::generate(3, b"offline-wire");
        let reg = keys.registry();
        for msg in samples() {
            let decoded = OfflineMsg::decode(&msg.encode()).unwrap();
            assert!(decoded.verify(&reg));
        }
    }

    /// Property-style: offline messages framed back to back survive the
    /// incremental stream decoder regardless of how the byte stream is
    /// chunked.
    #[test]
    fn framed_offline_streams_roundtrip_across_arbitrary_splits() {
        use faust_sim::SmallRng;
        use faust_types::frame::{frame_bytes, FrameDecoder};

        for case in 0u64..128 {
            let mut rng = SmallRng::seed_from_u64(0x000F_F1CE ^ case);
            let pool = samples();
            let msgs: Vec<OfflineMsg> = (0..1 + rng.gen_index(6))
                .map(|_| pool[rng.gen_index(pool.len())].clone())
                .collect();
            let mut stream = Vec::new();
            for m in &msgs {
                stream.extend_from_slice(&frame_bytes(m));
            }
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let chunk = 1 + rng.gen_index(13.min(stream.len() - pos));
                decoder.extend(&stream[pos..pos + chunk]);
                pos += chunk;
                while let Some(m) = decoder.next_frame::<OfflineMsg>().expect("valid stream") {
                    decoded.push(m);
                }
            }
            assert_eq!(decoded, msgs, "case {case}");
            assert_eq!(decoder.pending_bytes(), 0, "case {case}");
        }
    }
}
