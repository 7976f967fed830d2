//! Post-run probes for work that only happens inside the program:
//! each times one public function on its own, in batches, against the
//! live state a traced pass left behind.

use std::time::{Duration, Instant};

use krb_crypto::s2k;
use krb_trace::{Event, Tracer};
use simnet::{Addr, Endpoint, Host, Service, ServiceCtx};

use kerberos::{bulk_password, Principal};

use crate::inputs::OpInput;
use crate::stats::median;
use crate::workload::{Pass, CAPTURE_OPS, REALM};

/// Batches per probe; each probe reports the median batch mean.
const BATCHES: usize = 15;

pub struct Probes {
    /// `Tracer::emit` of the pass's own captured events, per event.
    pub emit_ns: f64,
    /// `string_to_key_v5` with the workload's passwords and salts.
    pub s2k_us: f64,
    /// One `Network::rpc` round trip to an echo host on the pass's
    /// network (pays the stale-queue pump on `lossy`).
    pub rpc_us: f64,
    /// `Engine::poll` of a fresh default engine over the captured
    /// sessions' events, per session.
    pub ids_replay_us_per_op: f64,
}

/// Runs `batch` `BATCHES` times; each call returns the wall time of
/// its timed section. Returns the median per-item mean, in µs.
fn batched(items_per_batch: usize, mut batch: impl FnMut(usize) -> Duration) -> f64 {
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|b| batch(b).as_secs_f64() * 1e6 / items_per_batch as f64)
        .collect();
    median(&mut means)
}

/// Wall time of `f`.
fn clocked(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

struct EchoService;

impl Service for EchoService {
    fn handle(&mut self, _ctx: &mut ServiceCtx, req: &[u8], _from: Endpoint) -> Option<Vec<u8>> {
        Some(req.to_vec())
    }
}

pub fn run(pass: &mut Pass, inputs: &[OpInput]) -> Probes {
    let tracer = pass.deployment.net.tracer();

    // Emission into the live ring (and, on `watched`, the engine's
    // subscriber buffer). Field vectors are cloned outside the timer.
    let events = &pass.captured;
    let per = events.len().div_ceil(BATCHES).max(1);
    let emit_ns = batched(per, |b| {
        let batch: Vec<Event> = events
            .iter()
            .cycle()
            .skip(b * per)
            .take(per)
            .cloned()
            .collect();
        let t = Instant::now();
        for ev in batch {
            tracer.emit(ev.kind, ev.at_us, ev.fields);
        }
        t.elapsed()
    }) * 1e3;

    // A fresh engine fed the captured events: the detector work those
    // sessions cause, whether or not an engine watched them live.
    let ids_replay_us_per_op = {
        let t = Tracer::new();
        let mut engine = krb_ids::default_engine().expect("the default rules compile");
        engine.attach(&t);
        for ev in events {
            t.emit(ev.kind, ev.at_us, ev.fields.clone());
        }
        let start = Instant::now();
        engine.poll();
        start.elapsed().as_secs_f64() * 1e6 / CAPTURE_OPS as f64
    };

    let creds: Vec<(String, String)> = inputs
        .iter()
        .take(64)
        .map(|op| {
            let name = format!("u{}", op.user);
            (bulk_password(&name), Principal::user(&name, REALM).salt())
        })
        .collect();
    let s2k_us = batched(creds.len(), |_| {
        clocked(|| {
            for (pw, salt) in &creds {
                std::hint::black_box(s2k::string_to_key_v5(pw, salt));
            }
        })
    });

    let net = &mut pass.deployment.net;
    let echo_addr = Addr::new(10, 1, 3, 1);
    let mut host = Host::new("perfbench-echo", vec![echo_addr]);
    host.bind(7, Box::new(EchoService));
    net.add_host(host);
    let from = pass.deployment.cluster.client_eps[0];
    let to = Endpoint::new(echo_addr, 7);
    const RPCS: usize = 50;
    let rpc_us = batched(RPCS, |_| {
        clocked(|| {
            for _ in 0..RPCS {
                net.rpc(from, to, vec![0x42; 64])
                    .expect("echo rpc on a fault-free link");
            }
        })
    });

    Probes {
        emit_ns,
        s2k_us,
        rpc_us,
        ids_replay_us_per_op,
    }
}
