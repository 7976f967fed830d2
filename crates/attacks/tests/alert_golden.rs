//! Golden alert streams for the defender's loop: the default krb-ids
//! rule set attached online to pinned E1 cells, with the resulting
//! `ids.alert` events exported as JSONL.
//!
//! - A1/V4 (stolen-authenticator replay) pins the `replay` detector.
//! - A2/V5-draft3 (blind spoof), A7/V5-draft3 (chosen-plaintext
//!   splice) and A12/V4 (credential-cache theft) pin the `cut-paste`
//!   detector's verdicts and alert text: window counts, `#seq`
//!   evidence and detail strings.
//! - Every alert stream must match its checked-in golden byte for
//!   byte. Re-bless after an intentional rule/engine change with
//!   `KRB_TRACE_BLESS=1 cargo test -p attacks --test alert_golden`.
//! - Same-seed runs must produce byte-identical alert streams even
//!   under an environment fault plan: detection is a pure function of
//!   the (deterministic) wire, never of polling cadence or wall time.

use attacks::blind_spoof::BlindSpoof;
use attacks::chosen_plaintext::ChosenPlaintextSplice;
use attacks::env::{with_env_hook, with_fault_profile, with_trace_capture, FaultProfile};
use attacks::host_theft::CredCacheTheft;
use attacks::replay::StolenAuthenticatorReplay;
use attacks::Attack;
use kerberos::ProtocolConfig;
use krb_ids::{default_engine, Engine};
use krb_trace::{to_jsonl, Event, EventKind, Tracer};
use simnet::LinkFaults;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::rc::Rc;

/// Seed of the pinned cells — the same seed the E1 matrix golden uses.
const SEED: u64 = 0xE1;

/// One pinned E1 cell and the detectors its alert stream must carry.
struct Cell {
    attack: &'static dyn Attack,
    config: fn() -> ProtocolConfig,
    golden: &'static str,
    detectors: &'static [&'static str],
}

const CELLS: [Cell; 4] = [
    Cell {
        attack: &StolenAuthenticatorReplay,
        config: ProtocolConfig::v4,
        golden: "alerts_a1_v4.jsonl",
        detectors: &["replay"],
    },
    Cell {
        attack: &BlindSpoof,
        config: ProtocolConfig::v5_draft3,
        golden: "alerts_a2_v5-draft3.jsonl",
        detectors: &["cut-paste"],
    },
    Cell {
        attack: &ChosenPlaintextSplice,
        config: ProtocolConfig::v5_draft3,
        golden: "alerts_a7_v5-draft3.jsonl",
        detectors: &["cut-paste", "replay"],
    },
    Cell {
        attack: &CredCacheTheft,
        config: ProtocolConfig::v4,
        golden: "alerts_a12_v4.jsonl",
        detectors: &["cut-paste"],
    },
];

/// Runs `cell` with a default engine riding the trace, polls it, and
/// returns only the alert events it emitted back into the trace.
fn alert_stream(cell: &Cell, profile: Option<FaultProfile>) -> Vec<Event> {
    let run = || {
        let engines: Rc<RefCell<Vec<Engine>>> = Rc::new(RefCell::new(Vec::new()));
        let hook: Rc<dyn Fn(&Tracer)> = {
            let engines = Rc::clone(&engines);
            Rc::new(move |t: &Tracer| {
                let mut eng = default_engine().expect("default rules compile");
                eng.attach(t);
                engines.borrow_mut().push(eng);
            })
        };
        let (_report, tracer) =
            with_trace_capture(|| with_env_hook(hook, || cell.attack.run(&(cell.config)(), SEED)));
        for eng in engines.borrow_mut().iter_mut() {
            eng.poll();
        }
        tracer.expect("attack built an environment")
    };
    let tracer = match profile {
        Some(p) => with_fault_profile(p, run),
        None => run(),
    };
    tracer.events().into_iter().filter(|e| e.kind == EventKind::IdsAlert).collect()
}

fn golden_path(cell: &Cell) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(cell.golden)
}

#[test]
fn alert_streams_match_goldens() {
    let bless = std::env::var("KRB_TRACE_BLESS").is_ok();
    for cell in &CELLS {
        let jsonl = to_jsonl(&alert_stream(cell, None));
        let path = golden_path(cell);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
            std::fs::write(&path, &jsonl).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("{} missing; bless with KRB_TRACE_BLESS=1", cell.golden));
        assert_eq!(
            jsonl, golden,
            "{} diverged from golden; re-bless with KRB_TRACE_BLESS=1 if intentional",
            cell.golden
        );
    }
}

#[test]
fn alert_streams_carry_the_designed_detectors() {
    for cell in &CELLS {
        let alerts = alert_stream(cell, None);
        assert!(!alerts.is_empty(), "{} must raise at least one alert", cell.golden);
        let fired: BTreeSet<&str> = alerts.iter().filter_map(|a| a.str_field("detector")).collect();
        assert_eq!(fired, cell.detectors.iter().copied().collect(), "{}", cell.golden);
        for a in &alerts {
            assert!(a.u64_field("evidence").is_some(), "alerts carry their evidence seq");
        }
    }
}

#[test]
fn same_seed_alert_streams_are_byte_identical() {
    for cell in &CELLS {
        let a = to_jsonl(&alert_stream(cell, None));
        let b = to_jsonl(&alert_stream(cell, None));
        assert_eq!(
            a, b,
            "{}: zero-fault same-seed alert streams must be byte-identical",
            cell.golden
        );
    }
}

#[test]
fn same_seed_alert_streams_are_byte_identical_under_faults() {
    let profile = FaultProfile { seed: 0x7AB, faults: LinkFaults::lossy(0.05) };
    for cell in &CELLS {
        let a = to_jsonl(&alert_stream(cell, Some(profile)));
        let b = to_jsonl(&alert_stream(cell, Some(profile)));
        assert_eq!(a, b, "{}: faulted same-seed alert streams must be byte-identical", cell.golden);
    }
}
