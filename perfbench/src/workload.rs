//! The shared deployment, the three traffic conditions and one timed
//! pass of sessions over them.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

use kerberos::appserver::connect_app;
use kerberos::client::{get_service_ticket_at, login_at, LoginInput, TgsParams};
use kerberos::testbed::{deploy_cluster, KdcCluster, APP_PORT};
use kerberos::{bulk_password, Principal, ProtocolConfig, KDC_PORT};
use krb_crypto::rng::Drbg;
use krb_gateway::{GatewayConfig, PenaltyConfig, ShedPolicy};
use krb_ids::Engine;
use simnet::{Endpoint, FaultPlan, LinkFaults, Network, SimDuration, SimTime};

use crate::inputs::OpInput;
use crate::spans::{timed, wrap, Layer, Rec, RequestTap};

pub const REALM: &str = "ATHENA.MIT.EDU";
pub const SHARDS: usize = 4;
pub const REPLICAS_PER_SHARD: usize = 1;
pub const PRINCIPALS: usize = 100_000;
pub const WORKSTATIONS: usize = 64;
pub const SERVICES: [&str; 3] = ["echo", "files", "mail"];
/// Sim time that passes between one session and the next.
pub const THINK: SimDuration = SimDuration::from_millis(100);
/// Drop, duplicate and reorder rate on `lossy` workstation-gateway links.
pub const LOSS_RATE: f64 = 0.10;
/// Shard 0's primary is down for this sim-time window on `lossy`.
pub const CRASH_WINDOW_S: (u64, u64) = (200, 320);
/// Attempts per exchange for `lossy` clients. The standard six lose
/// about one session in 1,300 to retry exhaustion at this loss rate;
/// sixteen make a lost session a once-in-many-runs event.
pub const LOSSY_RETRY_ATTEMPTS: u32 = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fault-free network, no IDS: the normal path.
    Campus,
    /// Seeded loss, duplication and reordering at the gateway, plus a
    /// crash window on shard 0's primary.
    Lossy,
    /// The default IDS engine watches the trace and is polled after
    /// every session.
    Watched,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Campus, Workload::Lossy, Workload::Watched];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campus => "campus",
            Workload::Lossy => "lossy",
            Workload::Watched => "watched",
        }
    }

    /// Sessions per pass. Every count describes this many sessions, and
    /// each pass's p99 has at least ten sessions beyond it.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Workload::Campus | Workload::Lossy => 8_000,
            Workload::Watched => 1_000,
        }
    }
}

/// E18's admission settings, wide enough that the gateway never sheds
/// this closed-loop load.
pub fn open_gateway() -> GatewayConfig {
    GatewayConfig {
        global_rate_per_sec: 100_000,
        global_burst: 10_000,
        per_source_rate_per_sec: 10_000,
        per_source_burst: 1_000,
        queue_bound: 512,
        queue_service_us: 100,
        shed_policy: ShedPolicy::ShedNewest,
        penalty: PenaltyConfig::standard(),
    }
}

/// One deployed campus, ready for sessions.
pub struct Deployment {
    pub net: Network,
    pub cluster: KdcCluster,
    pub config: ProtocolConfig,
    pub engine: Option<Engine>,
    /// (principal, endpoint) of each of [`SERVICES`].
    pub services: Vec<(Principal, Endpoint)>,
    /// Request datagrams sent, counted by a passive tap when traced.
    pub requests: Option<Rc<Cell<u64>>>,
}

/// Builds the deployment for `w`. With a recorder, every KDC, app
/// server and the gateway are re-bound inside timing wrappers.
pub fn deploy(w: Workload, seed: u64, rec: Option<&Rec>) -> Deployment {
    let mut config = ProtocolConfig::v5_draft3();
    let mut net = Network::new();
    let cluster = deploy_cluster(
        &mut net,
        REALM,
        1,
        &config,
        SHARDS,
        REPLICAS_PER_SHARD,
        PRINCIPALS,
        WORKSTATIONS,
        &SERVICES,
        open_gateway(),
        seed ^ 0x6465_706c_6f79,
    );
    let services: Vec<(Principal, Endpoint)> = SERVICES
        .iter()
        .map(|s| {
            (
                cluster.service_principals[*s].clone(),
                cluster.service_eps[*s],
            )
        })
        .collect();

    if w == Workload::Lossy {
        let gw = cluster.gateway_ep.addr;
        let mut plan = FaultPlan::new(seed ^ 0x6661_756c_7473);
        for ws in &cluster.client_eps {
            plan = plan.with_link_both(ws.addr, gw, LinkFaults::lossy(LOSS_RATE));
        }
        let (from, until) = CRASH_WINDOW_S;
        plan = plan.crash(
            cluster.shard_primary_eps[0].addr,
            SimTime(from * 1_000_000),
            SimTime(until * 1_000_000),
        );
        net.set_fault_plan(plan);
        config.retry.attempts = LOSSY_RETRY_ATTEMPTS;
    }

    let engine = (w == Workload::Watched).then(|| {
        let mut e = krb_ids::default_engine().expect("the default rules compile");
        e.attach(&net.tracer());
        e
    });

    let mut requests = None;
    if let Some(rec) = rec {
        let count = Rc::new(Cell::new(0));
        net.set_tap(Box::new(RequestTap(Rc::clone(&count))));
        requests = Some(count);
        let kdc_hosts = cluster
            .shard_primary_hosts
            .iter()
            .chain(cluster.shard_replica_hosts.iter().flatten());
        for &h in kdc_hosts {
            wrap(&mut net, h, KDC_PORT, Layer::Kdc, rec);
        }
        for (_, ep) in &services {
            let h = net.host_by_addr(ep.addr).expect("service host");
            wrap(&mut net, h, APP_PORT, Layer::App, rec);
        }
        wrap(
            &mut net,
            cluster.gateway_host,
            KDC_PORT,
            Layer::GatewayHandle,
            rec,
        );
    }

    net.advance(SimDuration::from_secs(1));
    Deployment {
        net,
        cluster,
        config,
        engine,
        services,
        requests,
    }
}

/// Runs one session: login, TGS, AP, then the four KRB_PRIV commands.
/// Returns the four replies.
pub fn session(
    d: &mut Deployment,
    slot: usize,
    op: &OpInput,
    rng: &mut Drbg,
    rec: Option<&Rec>,
) -> Result<Vec<Vec<u8>>, String> {
    let name = format!("u{}", op.user);
    let client = Principal::user(&name, REALM);
    let password = bulk_password(&name);
    let ws = d.cluster.client_eps[slot % WORKSTATIONS];
    let contact = [d.cluster.gateway_ep];
    let (service, service_ep) = &d.services[op.service];
    let (net, config) = (&mut d.net, &d.config);

    let tgt = timed(rec, Layer::Login, || {
        login_at(
            net,
            config,
            ws,
            &contact,
            &client,
            LoginInput::Password(&password),
            rng,
        )
    })
    .map_err(|e| format!("login: {e}"))?;
    let cred = timed(rec, Layer::Tgs, || {
        get_service_ticket_at(
            net,
            config,
            ws,
            &contact,
            &tgt,
            service,
            TgsParams::default(),
            rng,
        )
    })
    .map_err(|e| format!("tgs: {e}"))?;
    let mut conn = timed(rec, Layer::Ap, || {
        connect_app(net, config, ws, *service_ep, &cred, rng)
    })
    .map_err(|e| format!("ap: {e}"))?;
    op.cmds
        .iter()
        .map(|cmd| {
            timed(rec, Layer::Priv, || conn.request(net, cmd, rng))
                .map_err(|e| format!("priv: {e}"))
        })
        .collect()
}

/// What one pass leaves behind that must repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub failed: u64,
    pub hops: u64,
    pub faults: u64,
    pub retries: u64,
    pub refused: u64,
    pub failovers: u64,
    pub trace_events: u64,
    pub metric_keys: u64,
    pub ring_events: u64,
    pub evicted: u64,
    pub ids_events: u64,
    pub ids_alerts: u64,
}

/// The outcome of one pass.
pub struct Pass {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Wall time of each session, µs; a failed session is `+inf`.
    pub op_us: Vec<f64>,
    pub counts: Counts,
    /// Reply mismatches and failures, for the error report.
    pub problems: Vec<String>,
    pub rss_growth_kb: f64,
    /// The deployment after the timed phase, for post-run probes.
    pub deployment: Deployment,
    /// Trace events of the last sessions, when captured.
    pub captured: Vec<krb_trace::Event>,
    /// Request datagrams clients sent during the timed phase (traced
    /// passes only).
    pub requests_sent: u64,
    /// Post-run probe results, on traced passes.
    pub probes: Option<crate::probes::Probes>,
}

/// Sessions at the end of a traced pass whose events are kept for the
/// post-run probes.
pub const CAPTURE_OPS: usize = 100;

fn counter_sum(snap: &krb_trace::MetricsSnapshot, name: &str) -> u64 {
    let prefix = format!("{name}{{");
    snap.range(prefix.clone()..)
        .take_while(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Deploys a fresh campus and runs `inputs` through it.
pub fn run_pass(w: Workload, seed: u64, inputs: &[OpInput], rec: Option<&Rec>) -> Pass {
    let t0 = Instant::now();
    let mut d = deploy(w, seed, rec);
    let setup_s = t0.elapsed().as_secs_f64();

    let tracer = d.net.tracer();
    let seq0 = tracer.next_seq();
    let snap0 = tracer.snapshot();
    let mut rng = Drbg::new(seed ^ 0x7365_7373_696f_6e73);
    let mut op_us = Vec::with_capacity(inputs.len());
    let mut problems = Vec::new();
    let mut failed = 0u64;
    // Users whose server-side state the model no longer knows, because a
    // session that would have changed it failed.
    let mut unknown: BTreeSet<u64> = BTreeSet::new();
    let mut sub = None;

    let rss0 = crate::stats::proc_status_kb("VmRSS");
    let t1 = Instant::now();
    for (i, op) in inputs.iter().enumerate() {
        if rec.is_some() && i + CAPTURE_OPS == inputs.len() {
            sub = Some(tracer.subscribe());
        }
        let op_span = rec.map(|r| {
            let mut r = r.borrow_mut();
            r.op = i as u32;
            r.begin(Layer::Op)
        });
        let start = Instant::now();
        let result = session(&mut d, i, op, &mut rng, rec);
        d.net.advance(THINK);
        if let Some(engine) = d.engine.as_mut() {
            let _ = timed(rec, Layer::Ids, || Ok::<_, ()>(engine.poll()));
        }
        let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        if let (Some(r), Some(id)) = (rec, op_span) {
            r.borrow_mut().end(id, result.is_err());
        }

        match result {
            Ok(replies) => {
                op_us.push(elapsed_us);
                if unknown.contains(&op.user) {
                    continue;
                }
                for (k, reply) in replies.iter().enumerate() {
                    if *reply != op.expected[k] && problems.len() < 8 {
                        problems.push(format!(
                            "op {i} u{} {} {:?}: got {:?}, expected {:?}",
                            op.user,
                            SERVICES[op.service],
                            String::from_utf8_lossy(&op.cmds[k]),
                            String::from_utf8_lossy(reply),
                            String::from_utf8_lossy(&op.expected[k])
                        ));
                    }
                }
            }
            Err(e) => {
                op_us.push(f64::INFINITY);
                failed += 1;
                unknown.insert(op.user);
                unknown.extend(&op.recipients);
                if w != Workload::Lossy && problems.len() < 8 {
                    problems.push(format!("op {i} u{} failed: {e}", op.user));
                }
            }
        }
    }
    let timed_s = t1.elapsed().as_secs_f64();
    let rss1 = crate::stats::proc_status_kb("VmRSS");

    let snap = tracer.snapshot();
    let delta = |name: &str| counter_sum(&snap, name) - counter_sum(&snap0, name);
    let next_seq = tracer.next_seq();
    let evicted = tracer.evicted();
    let counts = Counts {
        ops: inputs.len() as u64,
        failed,
        hops: delta("net.datagrams"),
        faults: delta("net.faults"),
        retries: delta("client.retries") + delta("client.busy_retries"),
        refused: delta("gateway.throttled") + delta("gateway.shed"),
        failovers: delta("gateway.shard_failovers"),
        trace_events: next_seq - seq0,
        metric_keys: snap.len() as u64,
        ring_events: next_seq - evicted,
        evicted,
        ids_events: d.engine.as_ref().map_or(0, Engine::events_seen),
        ids_alerts: d.engine.as_ref().map_or(0, |e| e.alerts().len() as u64),
    };
    if counts.ids_alerts > 0 {
        problems.push(format!(
            "{} IDS alerts on benign traffic",
            counts.ids_alerts
        ));
    }
    let captured = sub.map(|s| s.drain()).unwrap_or_default();
    let requests_sent = d.requests.as_ref().map_or(0, |r| r.get());
    Pass {
        setup_s,
        timed_s,
        op_us,
        counts,
        problems,
        rss_growth_kb: rss1 as f64 - rss0 as f64,
        deployment: d,
        captured,
        requests_sent,
        probes: None,
    }
}
