//! End-to-end protocol flows: login -> TGS -> application session, for
//! every preset configuration.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "integration tests are outside the protocol panic scope"
)]

use kerberos::appserver::connect_app;
use kerberos::client::{get_service_ticket, login, LoginInput, TgsParams};
use kerberos::testbed::{standard_campus, CLIENT_PORT};
use kerberos::{KrbError, ProtocolConfig};
use krb_crypto::rng::Drbg;
use simnet::{Endpoint, Network, SimDuration};

fn full_flow(config: ProtocolConfig) {
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000)); // A nonzero epoch.
    let realm = standard_campus(&mut net, &config, 42);
    let mut rng = Drbg::new(7);

    // Login as pat.
    let pat = realm.user("pat");
    let tgt = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &pat,
        LoginInput::Password("correct-horse-battery"),
        &mut rng,
    )
    .expect("login succeeds");
    assert_eq!(tgt.client, pat);
    assert!(tgt.end_time > net.now().0);

    // Service ticket for the echo service.
    let echo = realm.service("echo");
    let st = get_service_ticket(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &tgt,
        &echo,
        TgsParams::default(),
        &mut rng,
    )
    .expect("TGS exchange succeeds");
    assert_eq!(st.service, echo);
    assert_ne!(st.session_key, tgt.session_key);

    // Application session with mutual authentication.
    let mut conn = connect_app(&mut net, &config, realm.user_ep("pat"), realm.service_ep("echo"), &st, &mut rng)
        .expect("AP exchange succeeds");
    let reply = conn.request(&mut net, b"hello kerberos", &mut rng).expect("command succeeds");
    assert_eq!(reply, b"[pat@ATHENA.MIT.EDU] hello kerberos", "config {}", config.name);

    // Several more commands flow on the same session.
    for i in 0..5 {
        let msg = format!("msg {i}");
        let reply = conn.request(&mut net, msg.as_bytes(), &mut rng).unwrap();
        assert!(reply.ends_with(msg.as_bytes()));
    }

    // The server logged exactly one accepted authentication for pat.
    let accepted = realm.with_app_server(&mut net, "echo", |s| s.accepted_count(&pat));
    assert_eq!(accepted, 1);
}

#[test]
fn v4_full_flow() {
    full_flow(ProtocolConfig::v4());
}

#[test]
fn v5_draft3_full_flow() {
    full_flow(ProtocolConfig::v5_draft3());
}

#[test]
fn hardened_full_flow() {
    full_flow(ProtocolConfig::hardened());
}

#[test]
fn wrong_password_fails() {
    for config in ProtocolConfig::presets() {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, &config, 43);
        let mut rng = Drbg::new(8);
        let result = login(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &realm.user("pat"),
            LoginInput::Password("wrong-password"),
            &mut rng,
        );
        assert!(result.is_err(), "config {}", config.name);
    }
}

#[test]
fn unknown_user_rejected() {
    let config = ProtocolConfig::v4();
    let mut net = Network::new();
    let realm = standard_campus(&mut net, &config, 44);
    let mut rng = Drbg::new(9);
    let err = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &kerberos::Principal::user("mallory", &realm.name),
        LoginInput::Password("x"),
        &mut rng,
    )
    .unwrap_err();
    assert!(matches!(err, KrbError::Remote(_)));
}

#[test]
fn expired_tgt_rejected_by_tgs() {
    let config = ProtocolConfig::v4();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 45);
    let mut rng = Drbg::new(10);
    let tgt = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &realm.user("pat"),
        LoginInput::Password("correct-horse-battery"),
        &mut rng,
    )
    .unwrap();
    // Jump past the ticket lifetime plus skew.
    net.advance(SimDuration::from_secs(9 * 3600));
    let err = get_service_ticket(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &tgt,
        &realm.service("echo"),
        TgsParams::default(),
        &mut rng,
    )
    .unwrap_err();
    assert!(matches!(err, KrbError::Remote(_)));
}

#[test]
fn ticket_for_one_service_rejected_by_another() {
    for config in ProtocolConfig::presets() {
        let mut net = Network::new();
        net.advance(SimDuration::from_secs(1_000_000));
        let realm = standard_campus(&mut net, &config, 46);
        let mut rng = Drbg::new(11);
        let tgt = login(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &realm.user("pat"),
            LoginInput::Password("correct-horse-battery"),
            &mut rng,
        )
        .unwrap();
        let st_echo = get_service_ticket(
            &mut net,
            &config,
            realm.user_ep("pat"),
            realm.kdc_ep,
            &tgt,
            &realm.service("echo"),
            TgsParams::default(),
            &mut rng,
        )
        .unwrap();
        // Present the echo ticket to the files server.
        let err = connect_app(&mut net, &config, realm.user_ep("pat"), realm.service_ep("files"), &st_echo, &mut rng);
        assert!(err.is_err(), "config {}", config.name);
    }
}

#[test]
fn hha_login_works_and_mismatched_device_fails() {
    // Handheld-authenticator deployment: the AS reply is sealed under
    // {R}K_c; the device computes the key from the challenge.
    let mut config = ProtocolConfig::v4();
    config.hha_login = true;
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 47);
    let mut rng = Drbg::new(12);

    // Device path: compute {R}K_c from the enrolled key.
    let kc = krb_crypto::s2k::string_to_key_v5("correct-horse-battery", &realm.user("pat").salt());
    let device = move |r: u64| kerberos::kdc::hha_key(&kc, r);
    let tgt = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &realm.user("pat"),
        LoginInput::Handheld(&device),
        &mut rng,
    )
    .expect("HHA login succeeds");
    assert_eq!(tgt.client, realm.user("pat"));

    // A device enrolled with the wrong key cannot decrypt the reply.
    let bad_kc = krb_crypto::s2k::string_to_key_v5("not-the-password", &realm.user("pat").salt());
    let bad_device = move |r: u64| kerberos::kdc::hha_key(&bad_kc, r);
    assert!(login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &realm.user("pat"),
        LoginInput::Handheld(&bad_device),
        &mut rng,
    )
    .is_err());
}

#[test]
fn two_users_interleaved_sessions() {
    let config = ProtocolConfig::hardened();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 48);
    let mut rng = Drbg::new(13);

    let mut conns = Vec::new();
    for (user, pw) in [("pat", "correct-horse-battery"), ("sam", "wombat7")] {
        let tgt = login(
            &mut net,
            &config,
            realm.user_ep(user),
            realm.kdc_ep,
            &realm.user(user),
            LoginInput::Password(pw),
            &mut rng,
        )
        .unwrap();
        let st = get_service_ticket(
            &mut net,
            &config,
            realm.user_ep(user),
            realm.kdc_ep,
            &tgt,
            &realm.service("files"),
            TgsParams::default(),
            &mut rng,
        )
        .unwrap();
        let conn =
            connect_app(&mut net, &config, realm.user_ep(user), realm.service_ep("files"), &st, &mut rng).unwrap();
        conns.push((user.to_string(), conn));
    }

    // Interleave file operations; each user sees only their namespace.
    for (user, conn) in &mut conns {
        let cmd = format!("PUT note.txt property of {user}");
        assert_eq!(conn.request(&mut net, cmd.as_bytes(), &mut rng).unwrap(), b"OK");
    }
    for (user, conn) in &mut conns {
        let got = conn.request(&mut net, b"GET note.txt", &mut rng).unwrap();
        assert_eq!(got, format!("property of {user}").into_bytes());
    }
}

#[test]
fn rate_limit_throttles_as_requests() {
    let mut config = ProtocolConfig::v4();
    config.kdc_rate_limit = Some(5);
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 49);
    let mut rng = Drbg::new(14);

    let mut failures = 0;
    for _ in 0..10 {
        let r = login(
            &mut net,
            &config,
            realm.user_ep("zach"),
            realm.kdc_ep,
            &realm.user("zach"),
            LoginInput::Password("attacker-owned"),
            &mut rng,
        );
        if r.is_err() {
            failures += 1;
        }
    }
    assert!(failures >= 5, "rate limit should have triggered, failures={failures}");

    // A different source address is unaffected.
    let ok = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &realm.user("pat"),
        LoginInput::Password("correct-horse-battery"),
        &mut rng,
    );
    assert!(ok.is_ok());
}

#[test]
fn rate_limited_hardened_login_reports_the_kdc_error() {
    // A hardened login opens with a challenge probe. Once one
    // workstation exceeds the KDC's request rate, the probe draws
    // RATE_LIMITED instead of a challenge, and that is the cause the
    // caller must see.
    let config = ProtocolConfig::hardened();
    assert_eq!(config.kdc_rate_limit, Some(32));
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 50);
    let mut rng = Drbg::new(15);

    let first_failure = (0..64)
        .find_map(|_| {
            login(
                &mut net,
                &config,
                realm.user_ep("pat"),
                realm.kdc_ep,
                &realm.user("pat"),
                LoginInput::Password("correct-horse-battery"),
                &mut rng,
            )
            .err()
        })
        .expect("the rate limit trips within 64 logins");
    assert_eq!(first_failure, KrbError::Remote("KDC error 10: request rate exceeded".into()));
}

#[test]
fn krb_safe_messages_flow() {
    // Exercise KRB_SAFE via session objects driven over the network
    // manually (integrity-only messaging).
    let config = ProtocolConfig::hardened();
    let mut net = Network::new();
    net.advance(SimDuration::from_secs(1_000_000));
    let realm = standard_campus(&mut net, &config, 50);
    let mut rng = Drbg::new(15);
    let tgt = login(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &realm.user("pat"),
        LoginInput::Password("correct-horse-battery"),
        &mut rng,
    )
    .unwrap();
    let st = get_service_ticket(
        &mut net,
        &config,
        realm.user_ep("pat"),
        realm.kdc_ep,
        &tgt,
        &realm.service("echo"),
        TgsParams::default(),
        &mut rng,
    )
    .unwrap();
    let conn = connect_app(&mut net, &config, realm.user_ep("pat"), realm.service_ep("echo"), &st, &mut rng).unwrap();
    // Drive the safe path directly against the session machinery.
    let mut client_session = conn.session;
    let wire = client_session.send_safe(b"integrity only", 123, 7, &config).unwrap();
    assert!(wire.len() > b"integrity only".len());
    let _ = Endpoint::new(simnet::Addr::new(0, 0, 0, 0), CLIENT_PORT);
}
