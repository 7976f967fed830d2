//! Wrong-key harness for the encryption layers: whatever was sealed
//! under one key and opened under another must yield `Ok` (garbage
//! plaintext — the non-integrity layers cannot tell) or a typed error
//! (the hardened MAC), and must NEVER panic. This is exactly the state
//! a server is in mid password-guessing storm: every guess hands the
//! open path a mismatched key.
//!
//! On top of the open itself, whatever the open returns is pushed
//! through the post-decryption decoders (priv-part layouts, the safe
//! parser, EncApRepPart) — the real downstream consumers of wrong-key
//! garbage.

#![expect(
    clippy::panic,
    reason = "integration tests are outside the protocol panic scope"
)]

use kerberos::enclayer::EncLayer;
use kerberos::messages::EncApRepPart;
use kerberos::session::{decode_priv_draft3, decode_priv_hardened};
use kerberos::KrbError;
use krb_crypto::des::{DesKey, ScheduledKey};
use krb_crypto::rng::Drbg;
use krb_fuzz::classify::with_quiet_panics;
use kerberos::encoding::Codec;
use std::panic::{catch_unwind, AssertUnwindSafe};

const LAYERS: [EncLayer; 4] = [
    EncLayer::V4Pcbc,
    EncLayer::V5Cbc { confounder: false },
    EncLayer::V5Cbc { confounder: true },
    EncLayer::HardenedCbc,
];

fn layer_name(layer: EncLayer) -> &'static str {
    match layer {
        EncLayer::V4Pcbc => "v4-pcbc",
        EncLayer::V5Cbc { confounder: false } => "v5-cbc",
        EncLayer::V5Cbc { confounder: true } => "v5-cbc-confounder",
        EncLayer::HardenedCbc => "hardened-cbc",
    }
}

/// Runs `f`, demanding Ok-or-typed-error: a panic fails the test with a
/// labelled message.
fn must_not_panic<T>(label: &str, f: impl FnOnce() -> Result<T, KrbError>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.ok(),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            panic!("{label} panicked: {msg}");
        }
    }
}

/// Seal under key A, open under key B, for every layer pair, plaintext
/// shape, and IV: the open is total, and its output survives every
/// downstream decoder without a panic.
#[test]
fn wrong_key_open_is_total_across_all_layers() {
    let mut rng = Drbg::new(0x0bad_c0de);
    with_quiet_panics(|| {
        for seal_layer in LAYERS {
            for open_layer in LAYERS {
                for case in 0u64..48 {
                    let key_a = ScheduledKey::new(
                        DesKey::from_u64(0x0123_4567_89ab_cdef ^ case.wrapping_mul(0x9e37)).with_odd_parity(),
                    );
                    let key_b = ScheduledKey::new(
                        DesKey::from_u64(0xfedc_ba98_7654_3210 ^ case.wrapping_mul(0x85eb)).with_odd_parity(),
                    );
                    let len = (case as usize * 7) % 96;
                    let pt: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(case as u8)).collect();
                    let iv = case.wrapping_mul(0x1234_5678_9abc_def1);

                    let label = format!(
                        "seal {} / open {} / case {case}",
                        layer_name(seal_layer),
                        layer_name(open_layer)
                    );
                    let Some(ct) =
                        must_not_panic(&format!("{label} (seal)"), || {
                            seal_layer.seal_with(&key_a, iv, &pt, &mut rng)
                        })
                    else {
                        continue;
                    };

                    // The mismatched open: wrong key, possibly wrong
                    // layer, possibly wrong IV.
                    let opened = must_not_panic(&format!("{label} (open)"), || {
                        open_layer.open_with(&key_b, iv ^ 0xff, &ct)
                    });

                    // Hardened integrity MUST reject a wrong-key open.
                    if open_layer == EncLayer::HardenedCbc && seal_layer == EncLayer::HardenedCbc {
                        assert!(
                            opened.is_none(),
                            "{label}: hardened MAC accepted a wrong-key open"
                        );
                    }

                    // Whatever came out is what the session layer and
                    // app server would decode next: all paths total.
                    if let Some(garbage) = opened {
                        must_not_panic(&format!("{label} (draft3)"), || {
                            decode_priv_draft3(&garbage)
                        });
                        must_not_panic(&format!("{label} (hardened part)"), || {
                            decode_priv_hardened(&garbage)
                        });
                        for codec in [Codec::Legacy, Codec::Typed, Codec::Wire] {
                            must_not_panic(&format!("{label} (ap-rep-part)"), || {
                                EncApRepPart::decode(codec, &garbage)
                            });
                        }
                    }
                }
            }
        }
    });
}

/// Same-key sanity: every layer round-trips under the right key, so the
/// wrong-key test above is exercising real seals.
#[test]
fn right_key_roundtrips_all_layers() {
    let mut rng = Drbg::new(0x600d_c0de);
    for layer in LAYERS {
        let key = ScheduledKey::new(DesKey::from_u64(0x2468_ACE0_1357_9BDF).with_odd_parity());
        let pt = b"the quick brown fox".to_vec();
        let ct = layer.seal_with(&key, 7, &pt, &mut rng).expect("seal");
        let got = layer.open_with(&key, 7, &ct).expect("open");
        match layer {
            // V5's data-first layout leaves padding for the application
            // framing to strip; the layer returns block-aligned bytes.
            EncLayer::V5Cbc { .. } => {
                assert!(got.starts_with(&pt), "layer {}", layer_name(layer));
                assert!(got.len().is_multiple_of(8), "layer {}", layer_name(layer));
            }
            _ => assert_eq!(got, pt, "layer {}", layer_name(layer)),
        }
    }
}
