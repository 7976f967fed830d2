//! Decode-rejection goldens: a directory of malformed frames, each
//! pinned byte-for-byte together with the exact typed error its decoder
//! must report. Any drift in either the bytes or the diagnostic is a
//! test failure.
//!
//! Regenerate after an intentional codec change with:
//!
//! ```text
//! KRB_GOLDEN_BLESS=1 cargo test -p kerberos --test decode_rejection_golden
//! ```

#![expect(
    clippy::panic,
    clippy::unwrap_used,
    reason = "integration tests are outside the protocol panic scope"
)]

use kerberos::authenticator::Authenticator;
use kerberos::encoding::Codec;
use kerberos::flags::{KdcOptions, TicketFlags};
use kerberos::messages::{AsReq, PaData};
use kerberos::principal::Principal;
use kerberos::ticket::Ticket;
use krb_crypto::des::DesKey;
use std::fs;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/rejects")
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::new();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            s.push('\n');
        }
        s.push_str(&format!("{b:02x}"));
    }
    s.push('\n');
    s
}

fn from_hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex");
    let nib = |b: u8| match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        _ => panic!("bad hex digit {:?}", b as char),
    };
    digits.chunks(2).map(|p| nib(p[0]) << 4 | nib(p[1])).collect()
}

/// One malformed frame plus the decoder it is fed to.
struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    error: String,
}

/// Builds every case deterministically from canonical encodings with a
/// surgical corruption each — so the fixtures regenerate identically.
fn cases() -> Vec<Case> {
    let client = Principal::user("pat", "ATHENA.MIT.EDU");
    let req = AsReq {
        service: Principal::tgs("ATHENA.MIT.EDU"),
        client: client.clone(),
        nonce: 0xfeed_f00d,
        lifetime_us: 28_800_000_000,
        addr: 0x0a00_0001,
        options: KdcOptions(0),
        padata: vec![PaData::EncTimestamp(vec![7; 8])],
    };
    let ticket = Ticket {
        flags: TicketFlags::empty().with(TicketFlags::INITIAL),
        client: client.clone(),
        service: Principal::service("files", "fileserver", "ATHENA.MIT.EDU"),
        addr: Some(0x0a00_0001),
        auth_time: 1_000_000,
        start_time: 1_000_000,
        end_time: 301_000_000,
        session_key: DesKey::from_u64(0x1122_3344_5566_7788),
        transited: vec![],
    };

    let mut out = Vec::new();
    let mut push = |name: &'static str, bytes: Vec<u8>, codec: Codec, is_auth: bool| {
        let error = if is_auth {
            Authenticator::decode(codec, &bytes).unwrap_err().to_string()
        } else {
            AsReq::decode(codec, &bytes).unwrap_err().to_string()
        };
        out.push(Case { name, bytes, error });
    };

    // Wire envelope corruptions: frame is [kind][magic][version][tag][len u32][body].
    let wire = req.encode(Codec::Wire);
    let mut b = wire.clone();
    b[1] = 0x00;
    push("wire--as-req--bad-magic", b, Codec::Wire, false);
    let mut b = wire.clone();
    b[2] = 0x04;
    push("wire--as-req--bad-version", b, Codec::Wire, false);
    let mut b = wire.clone();
    b[3] = 0x7f;
    push("wire--as-req--unknown-msg-type", b, Codec::Wire, false);
    let mut b = wire.clone();
    b[4..8].copy_from_slice(&0xffff_ffffu32.to_be_bytes());
    push("wire--as-req--overlong-length", b, Codec::Wire, false);
    let mut b = wire.clone();
    b.truncate(6);
    push("wire--as-req--truncated-header", b, Codec::Wire, false);
    // A ticket fed to the authenticator decoder: known tag, wrong type.
    push(
        "wire--authenticator--cross-type-ticket",
        ticket.encode(Codec::Wire),
        Codec::Wire,
        true,
    );
    // Truncated mid-padata: cut the last 4 bytes of the body (inside the
    // pa-data blob), keeping the envelope length honest.
    let mut b = wire.clone();
    let cut = b.len() - 4;
    b.truncate(cut);
    let body_len = (b.len() - 8) as u32;
    b[4..8].copy_from_slice(&body_len.to_be_bytes());
    push("wire--as-req--truncated-padata", b, Codec::Wire, false);

    // Typed envelope corruption.
    let typed = req.encode(Codec::Typed);
    let mut b = typed.clone();
    b[1] = 0x00;
    push("typed--as-req--bad-magic", b, Codec::Typed, false);

    // Legacy has no envelope; truncation lands in a field.
    let legacy = req.encode(Codec::Legacy);
    let mut b = legacy;
    b.truncate(4);
    push("legacy--as-req--truncated-client", b, Codec::Legacy, false);

    out
}

#[test]
fn malformed_frames_map_to_pinned_typed_errors() {
    let dir = fixture_dir();
    let cases = cases();
    if std::env::var_os("KRB_GOLDEN_BLESS").is_some() {
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for c in &cases {
            fs::write(dir.join(format!("{}.hex", c.name)), to_hex(&c.bytes)).unwrap();
            fs::write(dir.join(format!("{}.txt", c.name)), format!("{}\n", c.error)).unwrap();
        }
        return;
    }
    let mut seen = 0;
    for c in &cases {
        let hex = fs::read_to_string(dir.join(format!("{}.hex", c.name)))
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", c.name));
        assert_eq!(from_hex(&hex), c.bytes, "frame bytes drifted for {}", c.name);
        let golden = fs::read_to_string(dir.join(format!("{}.txt", c.name))).unwrap();
        assert_eq!(golden.trim_end(), c.error, "diagnostic drifted for {}", c.name);
        seen += 1;
    }
    // No stale fixture files either.
    let on_disk = fs::read_dir(&dir).unwrap().count();
    assert_eq!(on_disk, seen * 2, "stale files in {}", dir.display());
}

/// The diagnostics themselves are meaningful: each names the failing
/// layer (envelope field or message field) and a position.
#[test]
fn rejection_diagnostics_name_field_and_position() {
    let by_name: std::collections::BTreeMap<&str, String> =
        cases().into_iter().map(|c| (c.name, c.error)).collect();
    assert_eq!(by_name["wire--as-req--bad-magic"], "bad wire envelope: magic at byte 0 (found 0x00)");
    assert_eq!(
        by_name["wire--as-req--bad-version"],
        "bad wire envelope: version at byte 1 (found 0x04)"
    );
    assert_eq!(
        by_name["wire--as-req--unknown-msg-type"],
        "bad wire envelope: msg-type at byte 2 (found 0x7f)"
    );
    assert_eq!(by_name["wire--as-req--overlong-length"], "bad wire envelope: length at byte 3");
    assert!(by_name["wire--authenticator--cross-type-ticket"].contains("wrong message type"));
    assert!(
        by_name["wire--as-req--truncated-padata"].contains("in field 'padata'"),
        "{}",
        by_name["wire--as-req--truncated-padata"]
    );
    assert!(
        by_name["legacy--as-req--truncated-client"].contains("in field 'client'"),
        "{}",
        by_name["legacy--as-req--truncated-client"]
    );
}
