//! Fault tolerance: login/TGS/AP exchanges ride out a lossy network,
//! fail over to slave-KDC replicas, and keep replay defense sound
//! across server restarts (persistence + fail-closed window).

#![expect(
    clippy::expect_used,
    reason = "integration tests are outside the protocol panic scope"
)]

use kerberos::appserver::connect_app;
use kerberos::client::{get_service_ticket_at, login, login_at, LoginInput, TgsParams};
use kerberos::messages::{err_code, KrbErrorMsg, WireKind};
use kerberos::testbed::{standard_campus, CLIENT_PORT};
use kerberos::{KrbError, ProtocolConfig};
use krb_crypto::rng::Drbg;
use simnet::{Addr, Endpoint, FaultPlan, LinkFaults, Network, SimDuration, SimTime};

const PASSWORD: &str = "correct-horse-battery";

fn lossy_both_ways(seed: u64, a: Addr, b: Addr, rate: f64) -> FaultPlan {
    let faults = LinkFaults {
        drop: rate,
        duplicate: rate,
        reorder: rate,
        ..LinkFaults::none()
    };
    FaultPlan::new(seed).with_link_both(a, b, faults)
}

/// Every preset authenticates end-to-end across a link that drops,
/// duplicates, and reorders at 15% each — within the standard retry
/// budget.
#[test]
fn full_flow_survives_lossy_kdc_link() {
    for config in ProtocolConfig::presets() {
        for seed in [1u64, 2, 3] {
            let mut net = Network::new();
            net.advance(SimDuration::from_secs(1_000_000));
            let realm = standard_campus(&mut net, &config, 42);
            let pat_ep = realm.user_ep("pat");
            net.set_fault_plan(lossy_both_ways(seed, pat_ep.addr, realm.kdc_ep.addr, 0.15));

            let mut rng = Drbg::new(seed ^ 0xfa01);
            let pat = realm.user("pat");
            let tgt = login_at(
                &mut net,
                &config,
                pat_ep,
                &[realm.kdc_ep],
                &pat,
                LoginInput::Password(PASSWORD),
                &mut rng,
            )
            .unwrap_or_else(|e| panic!("login under loss (config {}, seed {seed}): {e}", config.name));

            let echo = realm.service("echo");
            let st = get_service_ticket_at(
                &mut net,
                &config,
                pat_ep,
                &[realm.kdc_ep],
                &tgt,
                &echo,
                TgsParams::default(),
                &mut rng,
            )
            .unwrap_or_else(|e| panic!("TGS under loss (config {}, seed {seed}): {e}", config.name));

            // The app link is clean; the session works normally.
            let mut conn =
                connect_app(&mut net, &config, pat_ep, realm.service_ep("echo"), &st, &mut rng)
                    .expect("AP exchange");
            let reply = conn.request(&mut net, b"ping", &mut rng).expect("command");
            assert!(reply.ends_with(b"ping"), "config {}, seed {seed}", config.name);
        }
    }
}

/// With the master KDC inside a crash window, the client's retry loop
/// walks the KDC list and authenticates against a slave replica.
#[test]
fn login_fails_over_to_replica_while_master_down() {
    for config in ProtocolConfig::presets() {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let mut realm = standard_campus(&mut net, &config, 42);
        realm.add_kdc_replicas(&mut net, 2, 42);

        // Master dark for an hour starting now; links otherwise clean.
        let t0 = net.now();
        net.set_fault_plan(FaultPlan::new(9).crash(
            realm.kdc_ep.addr,
            t0,
            SimTime(t0.0 + 3_600_000_000),
        ));

        let mut rng = Drbg::new(0xfa02);
        let pat = realm.user("pat");
        let tgt = login_at(
            &mut net,
            &config,
            realm.user_ep("pat"),
            &realm.kdc_eps(),
            &pat,
            LoginInput::Password(PASSWORD),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("failover login (config {}): {e}", config.name));
        assert_eq!(tgt.client, pat);

        // A replica-issued TGT is a first-class credential: the TGS
        // exchange (also against the replica list) and the app session
        // both accept it.
        let echo = realm.service("echo");
        let st = get_service_ticket_at(
            &mut net,
            &config,
            realm.user_ep("pat"),
            &realm.kdc_eps(),
            &tgt,
            &echo,
            TgsParams::default(),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("failover TGS (config {}): {e}", config.name));
        let mut conn = connect_app(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.service_ep("echo"),
            &st,
            &mut rng,
        )
        .expect("AP exchange");
        let reply = conn.request(&mut net, b"via-replica", &mut rng).expect("command");
        assert!(reply.ends_with(b"via-replica"), "config {}", config.name);
    }
}

/// Without replicas, a crashed master exhausts the retry budget and the
/// failure says so (liveness bound is explicit, not a hang).
#[test]
fn crashed_master_without_replicas_exhausts_retries() {
    let config = ProtocolConfig::hardened();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 42);
    let t0 = net.now();
    net.set_fault_plan(FaultPlan::new(9).crash(
        realm.kdc_ep.addr,
        t0,
        SimTime(t0.0 + 3_600_000_000),
    ));

    let mut rng = Drbg::new(0xfa03);
    let pat = realm.user("pat");
    let err = login_at(
        &mut net,
        &config,
        realm.user_ep("pat"),
        &[realm.kdc_ep],
        &pat,
        LoginInput::Password(PASSWORD),
        &mut rng,
    )
    .expect_err("master is down");
    match err {
        KrbError::RetriesExhausted { attempts, .. } => {
            assert_eq!(attempts, config.retry.attempts)
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

/// Captures the wire bytes of the last AS request pat sent to the KDC.
fn last_as_req_to_kdc(net: &Network, kdc_ep: Endpoint) -> Vec<u8> {
    net.traffic_log()
        .iter()
        .rev()
        .find(|r| {
            r.is_request
                && r.dgram.dst == kdc_ep
                && r.dgram.payload.first() == Some(&(WireKind::AsReq as u8))
        })
        .expect("an AS request was logged")
        .dgram
        .payload
        .to_vec()
}

/// Hardened KDCs snapshot their preauth replay cache to stable storage;
/// replaying a captured AS request across a KDC crash/restart is still
/// caught. With persistence disabled the same replay sails through —
/// the V4-era fail-open reality.
///
/// Handheld-authenticator login is switched off here: its per-login
/// challenge binding kills replays before the cache is even consulted,
/// which would mask exactly the mechanism under test. Plain
/// `{timestamp}K_c` preauthentication leans on the cache alone.
#[test]
fn preauth_replay_across_kdc_restart() {
    for (persist, expect_caught) in [(true, true), (false, false)] {
        let mut config = ProtocolConfig::hardened();
        config.hha_login = false;
        config.persist_replay_cache = persist;
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, &config, 42);

        // Honest login: commits (and, when persisting, snapshots) the
        // preauth blob.
        let mut rng = Drbg::new(0xfa04);
        let pat = realm.user("pat");
        login(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &pat,
            LoginInput::Password(PASSWORD),
            &mut rng,
        )
        .expect("honest login");
        let stolen = last_as_req_to_kdc(&net, realm.kdc_ep);

        // The KDC crashes and restarts, well inside the clock-skew
        // window of the stolen request.
        let t = net.now();
        net.set_fault_plan(FaultPlan::new(5).crash(
            realm.kdc_ep.addr,
            SimTime(t.0 + 1_000_000),
            SimTime(t.0 + 2_000_000),
        ));
        net.advance(SimDuration::from_secs(3));

        // The adversary replays the captured request from their own
        // workstation.
        let zach_ep = Endpoint::new(realm.user_ep("zach").addr, CLIENT_PORT + 1);
        let reply = net.rpc(zach_ep, realm.kdc_ep, stolen).expect("KDC replies");
        let is_err = reply.first() == Some(&(WireKind::Err as u8));
        if expect_caught {
            let e = KrbErrorMsg::decode(config.codec, &reply).expect("error decodes");
            assert_eq!(
                e.code,
                err_code::REPLAY,
                "persisted cache must recognize the replay"
            );
        } else {
            assert!(
                !is_err,
                "volatile cache forgot the blob: replay is accepted after restart"
            );
        }

        // Either way the KDC restarted exactly once.
        let restarts = realm.with_kdc(&mut net, |k| k.restarts);
        assert_eq!(restarts, 1);
    }
}

/// An authenticator stamped inside the snapshot→crash gap cannot be
/// proven fresh after restart: the KDC fail-closes (TRY_LATER) rather
/// than guessing, and an honest retry with a fresh stamp succeeds.
#[test]
fn fail_closed_window_refuses_unprovable_stamps_but_fresh_ones_pass() {
    let mut config = ProtocolConfig::hardened();
    config.hha_login = false; // cache semantics, not challenge binding
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 42);
    let mut rng = Drbg::new(0xfa05);
    let pat = realm.user("pat");

    // First login: commit + snapshot (the snapshot interval has long
    // elapsed at epoch time).
    login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &pat,
        LoginInput::Password(PASSWORD),
        &mut rng,
    )
    .expect("first login");

    // Second login shortly after: committed in memory only (the
    // snapshot interval hasn't elapsed), so its blob is invisible to
    // the post-restart cache.
    net.advance(SimDuration::from_secs(1));
    let mut rng2 = Drbg::new(0xfa06);
    login(
        &mut net,
        &config,
        realm.user_ep("sam"),
        realm.kdc_ep,
        &realm.user("sam"),
        LoginInput::Password("wombat7"),
        &mut rng2,
    )
    .expect("second login");
    let unprovable = last_as_req_to_kdc(&net, realm.kdc_ep);

    // Crash/restart.
    let t = net.now();
    net.set_fault_plan(FaultPlan::new(5).crash(
        realm.kdc_ep.addr,
        SimTime(t.0 + 1_000_000),
        SimTime(t.0 + 2_000_000),
    ));
    net.advance(SimDuration::from_secs(3));

    // Replaying the unprovable request: the stamp falls inside the
    // fail-closed gap, and the KDC refuses rather than risk a replay.
    let zach_ep = Endpoint::new(realm.user_ep("zach").addr, CLIENT_PORT + 1);
    let reply = net.rpc(zach_ep, realm.kdc_ep, unprovable).expect("KDC replies");
    let e = KrbErrorMsg::decode(config.codec, &reply).expect("an error reply");
    assert_eq!(e.code, err_code::TRY_LATER, "gap stamps are refused, not guessed about");

    // An honest client minting a FRESH authenticator (stamped after
    // boot) is unaffected: fail-closed costs one retry, not liveness.
    let mut rng3 = Drbg::new(0xfa07);
    login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &pat,
        LoginInput::Password(PASSWORD),
        &mut rng3,
    )
    .expect("fresh login after restart");
}

/// Installing a zero-rate fault plan changes nothing: the traffic log of
/// a full flow is byte-for-byte identical to a run with no plan at all.
#[test]
fn zero_fault_plan_is_byte_identical_end_to_end() {
    fn run(with_plan: bool) -> Vec<(u64, Vec<u8>, bool)> {
        let config = ProtocolConfig::hardened();
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, &config, 42);
        if with_plan {
            net.set_fault_plan(FaultPlan::new(7));
        }
        let mut rng = Drbg::new(0xfa08);
        let pat = realm.user("pat");
        let tgt = login(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &pat,
            LoginInput::Password(PASSWORD),
            &mut rng,
        )
        .expect("login");
        let echo = realm.service("echo");
        let st = get_service_ticket_at(
            &mut net,
            &config,
            realm.user_ep("pat"),
            &[realm.kdc_ep],
            &tgt,
            &echo,
            TgsParams::default(),
            &mut rng,
        )
        .expect("TGS");
        let mut conn =
            connect_app(&mut net, &config, realm.user_ep("pat"), realm.service_ep("echo"), &st, &mut rng)
                .expect("AP");
        conn.request(&mut net, b"determinism", &mut rng).expect("command");
        net.traffic_log()
            .iter()
            .map(|r| (r.at.0, r.dgram.payload.to_vec(), r.is_request))
            .collect()
    }

    assert_eq!(run(false), run(true), "zero-fault plan must be a perfect wire");
}
