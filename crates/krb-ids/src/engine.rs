//! The online detection engine: compiled rules attached as a
//! subscriber tap on a [`Tracer`].
//!
//! The engine is a *pull* consumer: [`Engine::poll`] drains the
//! subscription, runs every buffered event through every detector in
//! sequence order, then emits one `ids.alert` trace event and an
//! `ids.alerts{detector}` counter per finding. All detector state is
//! keyed by sim-time and event content only — polling cadence cannot
//! change what is detected or when the alerts are timestamped, so
//! same-seed runs produce byte-identical alert streams.
//!
//! The detectors see exactly what a wire sniffer would: datagram
//! source/destination, direction, and payload bytes (plus host-level
//! restart and preauth-failure telemetry a defender's agents would
//! export). They never read the simulator's fault/origin metadata — an
//! environment-duplicated datagram is indistinguishable from an
//! attacker's replay on a real wire, and is reported as one.

use crate::compile::{DetectorBody, DetectorSpec, Per};
use crate::rules::{Match, MsgKind};
use krb_trace::{Event, EventKind, Subscription, Tracer, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One detector finding. `evidence_seq` is the trace sequence number
/// of the event that tripped the detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    pub detector: &'static str,
    pub sid: u64,
    pub at_us: u64,
    pub subject: String,
    pub detail: String,
    pub evidence_seq: u64,
}

/// 64-bit FNV-1a over `bytes`, from `seed`.
fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two independent FNV lanes — 128 bits of payload identity, enough
/// that distinct sealed messages never collide in a sim-scale run.
fn payload_id(bytes: &[u8]) -> (u64, u64) {
    (fnv64(0xcbf2_9ce4_8422_2325, bytes), fnv64(0x6c62_272e_07bb_0142, bytes))
}

/// A wire endpoint packed as the sniffer keys it: the address clamped
/// to `u32` the way its dotted-quad rendering clamps it, and the port
/// to `u16`. Two endpoints are equal exactly when their `ip:port`
/// texts are, so keys compare without rendering; the text is built only
/// for an `Exact` address matcher or an alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Endpoint {
    addr: u32,
    port: u16,
}

impl Endpoint {
    fn from_wire(addr: u64, port: u64) -> Endpoint {
        Endpoint {
            addr: u32::try_from(addr).unwrap_or(u32::MAX),
            port: u16::try_from(port).unwrap_or(u16::MAX),
        }
    }

    /// Dotted-quad rendering of the address.
    fn ip(self) -> String {
        let a = self.addr.to_be_bytes();
        format!("{}.{}.{}.{}", a[0], a[1], a[2], a[3])
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip(), self.port)
    }
}

/// Whether `m` accepts `ep`'s address, rendering it only when `m` is
/// an exact match.
fn addr_accepts(m: &Match<String>, ep: Endpoint) -> bool {
    match m {
        Match::Any => true,
        Match::Exact(want) => *want == ep.ip(),
    }
}

/// A wire hop as the sniffer sees it, parsed once per event.
struct Hop<'a> {
    seq: u64,
    at_us: u64,
    /// The claimed source.
    src: Endpoint,
    dst: Endpoint,
    dst_host: &'a str,
    req: bool,
    payload: &'a [u8],
    kind: Option<MsgKind>,
}

impl<'a> Hop<'a> {
    fn from_event(ev: &'a Event) -> Option<Hop<'a>> {
        if ev.kind != EventKind::WireHop {
            return None;
        }
        let src = Endpoint::from_wire(ev.u64_field("src_addr")?, ev.u64_field("src_port")?);
        let dst = Endpoint::from_wire(ev.u64_field("dst_addr")?, ev.u64_field("dst_port")?);
        let payload = ev.bytes_field("payload")?.as_slice();
        Some(Hop {
            seq: ev.seq,
            at_us: ev.at_us,
            src,
            dst,
            dst_host: ev.str_field("dst_host").unwrap_or("?"),
            req: ev.bool_field("req").unwrap_or(false),
            payload,
            kind: MsgKind::sniff(payload),
        })
    }

    /// Whether this hop passes `spec`'s header matchers.
    fn matches(&self, spec: &DetectorSpec) -> bool {
        addr_accepts(&spec.src_addr, self.src)
            && spec.src_port.accepts(&self.src.port)
            && addr_accepts(&spec.dst_addr, self.dst)
            && spec.dst_port.accepts(&self.dst.port)
    }

    fn kind_name(&self) -> &'static str {
        self.kind.map(MsgKind::name).unwrap_or("message")
    }
}

/// Where a ciphertext window was first seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WinOrigin {
    /// In a reply; the value is the evidence sequence number.
    Reply { seq: u64 },
    /// In a request; splice-sensitive iff the destination port is not
    /// a Kerberos service port AND a later message from a *different*
    /// source re-uses it. `src` is the endpoint that first presented
    /// the material — its own retransmissions and its next tickets
    /// (which share deterministic-seal prefixes) are not theft.
    Request { seq: u64, dst_port: u16, src: Endpoint },
}

/// Width of a cut-paste ciphertext window, in bytes.
const WIN: usize = 16;

/// Entropy screen: a window needs this many distinct bytes to index or
/// match. Padding and zero runs carry no identity.
const MIN_DISTINCT: u32 = 4;

/// The entropy-screened windows of a payload, in order, each keyed as
/// its 16 bytes read as a big-endian `u128`. One rolling pass: the key,
/// a per-byte count table and a distinct-byte counter slide along with
/// the window, so each payload byte is added and removed once.
struct LivelyWindows<'a> {
    payload: &'a [u8],
    /// Start of the current window.
    at: usize,
    key: u128,
    counts: [u8; 256],
    distinct: u32,
}

impl<'a> LivelyWindows<'a> {
    fn new(payload: &'a [u8]) -> LivelyWindows<'a> {
        let mut w = LivelyWindows { payload, at: 0, key: 0, counts: [0; 256], distinct: 0 };
        for &b in payload.iter().take(WIN) {
            w.push(b);
        }
        w
    }

    fn push(&mut self, b: u8) {
        self.key = (self.key << 8) | u128::from(b);
        let c = &mut self.counts[usize::from(b)];
        self.distinct += u32::from(*c == 0);
        *c += 1;
    }

    fn pop(&mut self, b: u8) {
        let c = &mut self.counts[usize::from(b)];
        *c -= 1;
        self.distinct -= u32::from(*c == 0);
    }
}

impl Iterator for LivelyWindows<'_> {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        while self.at + WIN <= self.payload.len() {
            let (key, lively) = (self.key, self.distinct >= MIN_DISTINCT);
            if let (Some(&out), Some(&next)) =
                (self.payload.get(self.at), self.payload.get(self.at + WIN))
            {
                self.pop(out);
                self.push(next);
            }
            self.at += 1;
            if lively {
                return Some(key);
            }
        }
        None
    }
}

/// What a preauth-storm counter aggregates by; rendered as the alert
/// subject.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum StormKey {
    Src(Endpoint),
    Principal(String),
}

impl fmt::Display for StormKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StormKey::Src(ep) => ep.fmt(f),
            StormKey::Principal(name) => f.write_str(name),
        }
    }
}

/// Per-detector mutable state.
#[derive(Debug, Default)]
struct DetectorState {
    /// replay / crash-reuse: (src, dst, payload-id) -> first-seen time.
    first_sight: BTreeMap<(Endpoint, Endpoint, u64, u64), u64>,
    /// cut-paste: 16-byte window -> first origin (first-source-wins).
    windows: BTreeMap<u128, WinOrigin>,
    /// cut-paste: full-payload ids seen anywhere, any direction.
    payloads_seen: BTreeSet<(u64, u64)>,
    /// cut-paste: (dst, payload-id) -> first source endpoint.
    stream_first: BTreeMap<(Endpoint, u64, u64), Endpoint>,
    /// preauth-storm: key -> (event times in window, alerted latch).
    storm: BTreeMap<StormKey, (VecDeque<u64>, bool)>,
    /// crash-reuse: host name -> last restart time.
    restarts: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct Detector {
    spec: DetectorSpec,
    state: DetectorState,
}

/// The rule engine. Build with [`Engine::new`] (or
/// [`crate::default_engine`]), wire it to a run with
/// [`Engine::attach`], and [`Engine::poll`] between simulation steps
/// (or once at the end — detection is cadence-independent).
#[derive(Debug)]
pub struct Engine {
    detectors: Vec<Detector>,
    tracer: Option<Tracer>,
    sub: Option<Subscription>,
    alerts: Vec<Alert>,
    events_seen: u64,
}

impl Engine {
    /// An engine over compiled detector specs.
    pub fn new(specs: Vec<DetectorSpec>) -> Engine {
        Engine {
            detectors: specs
                .into_iter()
                .map(|spec| Detector { spec, state: DetectorState::default() })
                .collect(),
            tracer: None,
            sub: None,
            alerts: Vec::new(),
            events_seen: 0,
        }
    }

    /// Subscribes to `tracer`: every event recorded from now on is
    /// observed (pre-eviction) at the next [`Engine::poll`], and
    /// alerts/metrics are emitted back through the same tracer.
    pub fn attach(&mut self, tracer: &Tracer) {
        self.sub = Some(tracer.subscribe());
        self.tracer = Some(tracer.clone());
    }

    /// Drains the subscription and runs every buffered event through
    /// every detector; returns how many alerts this poll raised.
    pub fn poll(&mut self) -> usize {
        let Some(sub) = &self.sub else { return 0 };
        let events = sub.drain();
        let mut fresh: Vec<Alert> = Vec::new();
        let mut seen = 0;
        for ev in &events {
            // The engine's own alert events come back around the tap.
            if ev.kind == EventKind::IdsAlert {
                continue;
            }
            seen += 1;
            let hop = Hop::from_event(ev);
            for d in &mut self.detectors {
                observe(&d.spec, &mut d.state, ev, hop.as_ref(), &mut fresh);
            }
        }
        self.events_seen += seen;
        let raised = fresh.len();
        if let Some(t) = &self.tracer {
            if seen > 0 {
                t.counter("ids.events", "engine", seen);
            }
            for a in &fresh {
                t.counter("ids.alerts", a.detector, 1);
                t.emit(
                    EventKind::IdsAlert,
                    a.at_us,
                    vec![
                        ("detector", Value::str(a.detector)),
                        ("sid", Value::U64(a.sid)),
                        ("subject", Value::str(&a.subject)),
                        ("detail", Value::str(&a.detail)),
                        ("evidence", Value::U64(a.evidence_seq)),
                    ],
                );
            }
        }
        self.alerts.append(&mut fresh);
        raised
    }

    /// Every alert raised so far, in detection order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Total trace events observed (the `ids.events` counter's view):
    /// every drained event except the engine's own `ids.alert`s.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Distinct detector labels that have fired so far.
    pub fn fired(&self) -> BTreeSet<&'static str> {
        self.alerts.iter().map(|a| a.detector).collect()
    }
}

/// Routes one event into one detector. `hop` is the event parsed as a
/// wire hop, if it is one.
fn observe(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    ev: &Event,
    hop: Option<&Hop<'_>>,
    out: &mut Vec<Alert>,
) {
    let hop = hop.filter(|h| h.matches(spec));
    match &spec.body {
        DetectorBody::Replay { window_us, kinds } => {
            if let Some(hop) = hop {
                observe_replay(spec, state, hop, *window_us, kinds, out);
            }
        }
        DetectorBody::ClockSpoof { tolerance_us } => {
            if let Some(hop) = hop {
                observe_clock(spec, hop, *tolerance_us, out);
            }
        }
        DetectorBody::CutPaste { krb_ports, min_run, min_stolen } => {
            if let Some(hop) = hop {
                observe_cut_paste(spec, state, hop, krb_ports, *min_run, *min_stolen, out);
            }
        }
        DetectorBody::PreauthStorm { window_us, threshold, per } => match per {
            Per::Src => {
                if let Some(hop) = hop.filter(|h| h.req && h.kind == Some(MsgKind::AsReq)) {
                    observe_storm(
                        spec,
                        state,
                        StormKey::Src(hop.src),
                        hop.at_us,
                        hop.seq,
                        *window_us,
                        *threshold,
                        out,
                    );
                }
            }
            Per::Principal => {
                if ev.kind == EventKind::PreauthFailed {
                    if let Some(client) = ev.str_field("client") {
                        observe_storm(
                            spec,
                            state,
                            StormKey::Principal(client.to_string()),
                            ev.at_us,
                            ev.seq,
                            *window_us,
                            *threshold,
                            out,
                        );
                    }
                }
            }
        },
        DetectorBody::CrashReuse { window_us } => {
            if ev.kind == EventKind::HostRestart {
                if let Some(host) = ev.str_field("host") {
                    state.restarts.insert(host.to_string(), ev.at_us);
                }
                return;
            }
            if let Some(hop) = hop {
                observe_crash_reuse(spec, state, hop, *window_us, out);
            }
        }
    }
}

fn push_alert(
    spec: &DetectorSpec,
    out: &mut Vec<Alert>,
    at_us: u64,
    subject: String,
    detail: String,
    seq: u64,
) {
    out.push(Alert {
        detector: spec.body.label(),
        sid: spec.sid,
        at_us,
        subject,
        detail,
        evidence_seq: seq,
    });
}

fn observe_replay(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    hop: &Hop<'_>,
    window_us: u64,
    kinds: &[MsgKind],
    out: &mut Vec<Alert>,
) {
    if !hop.req {
        return;
    }
    let Some(kind) = hop.kind else { return };
    if !kinds.contains(&kind) {
        return;
    }
    let (h1, h2) = payload_id(hop.payload);
    let sight = (hop.src, hop.dst, h1, h2);
    match state.first_sight.get(&sight) {
        Some(&t0) if hop.at_us.saturating_sub(t0) <= window_us => {
            let dt = hop.at_us.saturating_sub(t0);
            push_alert(
                spec,
                out,
                hop.at_us,
                hop.src.to_string(),
                format!(
                    "identical {} to {} re-sent {}.{:06}s after first sight",
                    kind.name(),
                    hop.dst,
                    dt / 1_000_000,
                    dt % 1_000_000
                ),
                hop.seq,
            );
        }
        Some(_) => {}
        None => {
            state.first_sight.insert(sight, hop.at_us);
        }
    }
}

fn observe_clock(spec: &DetectorSpec, hop: &Hop<'_>, tolerance_us: u64, out: &mut Vec<Alert>) {
    if hop.req {
        return;
    }
    let Some(chunk) = hop.payload.get(0..4) else { return };
    let Ok(raw) = <[u8; 4]>::try_from(chunk) else { return };
    let claimed_s = u32::from_be_bytes(raw) as u64;
    let claimed_us = claimed_s.saturating_mul(1_000_000);
    let skew = claimed_us.abs_diff(hop.at_us);
    if skew > tolerance_us {
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!(
                "time reply claims {claimed_s}s but arrived at {}s ({}s apart)",
                hop.at_us / 1_000_000,
                skew / 1_000_000
            ),
            hop.seq,
        );
    }
}

fn observe_cut_paste(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    hop: &Hop<'_>,
    krb_ports: &[u16],
    min_run: usize,
    min_stolen: usize,
    out: &mut Vec<Alert>,
) {
    // Windows are fixed 16-byte content keys; `min_run` only raises
    // the minimum message size worth scanning.
    if hop.payload.len() < min_run.max(WIN) {
        return;
    }
    let id = payload_id(hop.payload);
    // Exact bytes seen before are never re-indexed: windows are
    // first-source-wins, so later copies — faulted duplicates,
    // legitimate echoes — never re-attribute one.
    if !state.payloads_seen.insert(id) {
        // Same stream (same src): that is the replay detector's case.
        // Different src to the same destination: a whole sealed
        // message cut-and-pasted across streams.
        let spliceable = matches!(
            hop.kind,
            Some(MsgKind::ApReq | MsgKind::Safe | MsgKind::Priv | MsgKind::ChallengeResp)
        );
        if !hop.req || !spliceable {
            return;
        }
        let Some(&first_src) = state.stream_first.get(&(hop.dst, id.0, id.1)) else { return };
        if first_src != hop.src {
            let detail = format!(
                "sealed {} first sent by {first_src} re-sent to {} from {}",
                hop.kind_name(),
                hop.dst,
                hop.src
            );
            push_alert(spec, out, hop.at_us, hop.src.to_string(), detail, hop.seq);
        }
        return;
    }
    if !hop.req {
        for key in LivelyWindows::new(hop.payload) {
            state.windows.entry(key).or_insert(WinOrigin::Reply { seq: hop.seq });
        }
        return;
    }
    state.stream_first.entry((hop.dst, id.0, id.1)).or_insert(hop.src);

    // Fresh request bytes: one pass scans for re-surfacing ciphertext
    // windows from earlier messages and indexes the new ones. A window
    // this request repeats finds its own `src` and never counts.
    // Request-origin matches count per source message: deterministic
    // seals (v4-style, no confounder) make honest messages share
    // envelope bytes and leading ciphertext blocks, so only a *long*
    // run of someone else's material — `min_stolen` windows from one
    // foreign, non-KDC-bound request — is evidence of theft.
    let origin = WinOrigin::Request { seq: hop.seq, dst_port: hop.dst.port, src: hop.src };
    let mut reply_sources: BTreeSet<u64> = BTreeSet::new();
    let mut stolen_counts: BTreeMap<u64, usize> = BTreeMap::new();
    for key in LivelyWindows::new(hop.payload) {
        match state.windows.entry(key) {
            Entry::Vacant(v) => {
                v.insert(origin);
            }
            Entry::Occupied(o) => match *o.get() {
                WinOrigin::Reply { seq } => {
                    reply_sources.insert(seq);
                }
                WinOrigin::Request { seq, dst_port, src }
                    if !krb_ports.contains(&dst_port) && src != hop.src =>
                {
                    *stolen_counts.entry(seq).or_default() += 1;
                }
                WinOrigin::Request { .. } => {}
            },
        }
    }
    // Deterministic best pick: highest count, then earliest source.
    let request_source = stolen_counts
        .iter()
        .filter(|(_, &n)| n >= min_stolen)
        .max_by_key(|(&seq, &n)| (n, std::cmp::Reverse(seq)))
        .map(|(&seq, &n)| (seq, n));
    let ticket_bearing = matches!(hop.kind, Some(MsgKind::TgsReq | MsgKind::ApReq));
    let sealed_session =
        matches!(hop.kind, Some(MsgKind::Safe | MsgKind::Priv | MsgKind::ChallengeResp));
    if ticket_bearing && reply_sources.len() >= 2 {
        let srcs: Vec<String> = reply_sources.iter().map(|s| format!("#{s}")).collect();
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!(
                "{} to {} splices ciphertext from {} distinct KDC replies ({})",
                hop.kind_name(),
                hop.dst,
                reply_sources.len(),
                srcs.join(", ")
            ),
            hop.seq,
        );
    } else if sealed_session && !reply_sources.is_empty() {
        let first = reply_sources.iter().next().copied().unwrap_or(0);
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!("{} to {} echoes ciphertext from reply #{first}", hop.kind_name(), hop.dst),
            hop.seq,
        );
    } else if let Some((seq, n)) = request_source {
        push_alert(
            spec,
            out,
            hop.at_us,
            hop.src.to_string(),
            format!(
                "message from {} to {} re-uses {n} ciphertext windows of another \
                 endpoint's session material (request #{seq})",
                hop.src, hop.dst
            ),
            hop.seq,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn observe_storm(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    subject: StormKey,
    at_us: u64,
    seq: u64,
    window_us: u64,
    threshold: u64,
    out: &mut Vec<Alert>,
) {
    let fire = {
        let (times, alerted) = state.storm.entry(subject.clone()).or_default();
        times.push_back(at_us);
        while times.front().is_some_and(|&t| at_us.saturating_sub(t) > window_us) {
            times.pop_front();
        }
        if (times.len() as u64) < threshold {
            *alerted = false;
            None
        } else if !*alerted {
            *alerted = true;
            Some(times.len())
        } else {
            None
        }
    };
    if let Some(n) = fire {
        let detail = format!("{}: {n} events inside {}s window", spec.msg, window_us / 1_000_000);
        push_alert(spec, out, at_us, subject.to_string(), detail, seq);
    }
}

fn observe_crash_reuse(
    spec: &DetectorSpec,
    state: &mut DetectorState,
    hop: &Hop<'_>,
    window_us: u64,
    out: &mut Vec<Alert>,
) {
    if !hop.req || !matches!(hop.kind, Some(MsgKind::ApReq | MsgKind::ChallengeResp)) {
        return;
    }
    let (h1, h2) = payload_id(hop.payload);
    let sight = (hop.src, hop.dst, h1, h2);
    if let Some(&t0) = state.first_sight.get(&sight) {
        if let Some(&restarted) = state.restarts.get(hop.dst_host) {
            if t0 < restarted
                && hop.at_us >= restarted
                && hop.at_us.saturating_sub(restarted) <= window_us
            {
                push_alert(
                    spec,
                    out,
                    hop.at_us,
                    hop.src.to_string(),
                    format!(
                        "authenticator first seen at {}s re-presented to {} {}s after its restart",
                        t0 / 1_000_000,
                        hop.dst_host,
                        hop.at_us.saturating_sub(restarted) / 1_000_000
                    ),
                    hop.seq,
                );
                return;
            }
        }
    }
    state.first_sight.entry(sight).or_insert(hop.at_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_engine, DEFAULT_RULES};
    use krb_trace::Tracer;
    use std::sync::Arc;

    fn hop(
        t: &Tracer,
        at_us: u64,
        src: (u64, u64),
        dst: (u64, u64),
        dst_host: &str,
        req: bool,
        payload: Vec<u8>,
    ) {
        t.emit(
            EventKind::WireHop,
            at_us,
            vec![
                ("src_host", Value::str("src-host")),
                ("src_addr", Value::U64(src.0)),
                ("src_port", Value::U64(src.1)),
                ("dst_host", Value::str(dst_host)),
                ("dst_addr", Value::U64(dst.0)),
                ("dst_port", Value::U64(dst.1)),
                ("req", Value::Bool(req)),
                ("origin", Value::str("send")),
                ("payload", Value::bytes(Arc::new(payload))),
            ],
        );
    }

    fn sealed(tag: u8, fill: u8) -> Vec<u8> {
        sealed_n(tag, fill, 48)
    }

    fn sealed_n(tag: u8, fill: u8, n: u8) -> Vec<u8> {
        let mut v = vec![tag];
        v.extend((0u8..n).map(|i| i.wrapping_mul(37).wrapping_add(fill)));
        v
    }

    #[test]
    fn default_rules_compile() {
        assert!(default_engine().is_ok(), "DEFAULT_RULES must parse and compile");
        assert!(DEFAULT_RULES.contains("detector:replay"));
    }

    #[test]
    fn replay_detector_fires_on_identical_resend_only() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 1);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, sealed(5, 2));
        eng.poll();
        assert!(eng.alerts().is_empty(), "distinct payloads must not alert");
        hop(&t, 61_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, "replay");
        assert_eq!(alerts[0].subject, "0.0.0.10:1024");
        assert_eq!(t.snapshot()["ids.alerts{replay}"], 1);
    }

    #[test]
    fn replay_ignores_as_req_retries() {
        // Client retry semantics: a lost AS-REQ is re-sent verbatim —
        // kinds: excludes as-req so retries never alias as replays.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let req = sealed(1, 9);
        hop(&t, 1_000_000, (10, 1024), (20, 88), "kdc", true, req.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 88), "kdc", true, req);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    #[test]
    fn clock_spoof_detector_checks_claimed_time() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let now_s: u32 = 1_000_000;
        // Honest time reply from port 37.
        hop(
            &t,
            now_s as u64 * 1_000_000,
            (30, 37),
            (10, 1024),
            "ws",
            false,
            now_s.to_be_bytes().to_vec(),
        );
        eng.poll();
        assert!(eng.fired().is_empty());
        // Spoofed reply: claims 11 minutes earlier.
        hop(
            &t,
            now_s as u64 * 1_000_000,
            (30, 37),
            (10, 1024),
            "ws",
            false,
            (now_s - 660).to_be_bytes().to_vec(),
        );
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert_eq!(eng.alerts()[0].detector, "clock-spoof");
    }

    #[test]
    fn clock_spoof_ignores_other_ports() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        // An app reply that merely *looks* like a bad timestamp, from a
        // non-time port: out of rule scope.
        hop(&t, 1_000_000, (30, 2001), (10, 1024), "ws", false, vec![0, 0, 0, 1]);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    #[test]
    fn cut_paste_chimera_needs_two_reply_sources() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let rep_a = sealed(2, 10);
        let rep_b = sealed(2, 200);
        hop(&t, 1_000_000, (20, 88), (10, 1024), "ws-a", false, rep_a.clone());
        hop(&t, 2_000_000, (20, 88), (11, 1024), "ws-b", false, rep_b.clone());
        // Legit TGS-REQ echoing ticket bytes from ONE reply: no alert.
        let mut legit = vec![3u8];
        legit.extend_from_slice(&rep_a[1..33]);
        legit.extend((0u8..24).map(|i| i.wrapping_mul(11).wrapping_add(3)));
        hop(&t, 3_000_000, (10, 1024), (20, 88), "kdc", true, legit);
        eng.poll();
        assert!(eng.fired().is_empty(), "one reply source is the legitimate shape");
        // Chimera: ticket bytes from BOTH replies in one request.
        let mut forged = vec![3u8];
        forged.extend_from_slice(&rep_a[1..33]);
        forged.extend_from_slice(&rep_b[1..33]);
        hop(&t, 4_000_000, (11, 1024), (20, 88), "kdc", true, forged);
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert_eq!(eng.alerts()[0].detector, "cut-paste");
        assert!(eng.alerts()[0].detail.contains("2 distinct KDC replies"));
    }

    #[test]
    fn cut_paste_flags_reply_echo_and_cross_stream() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        // Reply-echo: a PRIV request carrying a reply's ciphertext.
        let reply = sealed(9, 77);
        hop(&t, 1_000_000, (20, 2001), (10, 1024), "ws", false, reply.clone());
        let mut echo = vec![9u8];
        echo.extend_from_slice(&reply[1..25]);
        hop(&t, 2_000_000, (66, 7000), (20, 2001), "mail", true, echo);
        eng.poll();
        assert_eq!(eng.alerts().len(), 1);
        assert!(eng.alerts()[0].detail.contains("echoes ciphertext from reply"));
        // Cross-stream: same sealed PRIV, same dst, different src.
        let msg = sealed(9, 140);
        hop(&t, 3_000_000, (10, 1024), (20, 2001), "mail", true, msg.clone());
        hop(&t, 4_000_000, (10, 1025), (20, 2001), "mail", true, msg);
        eng.poll();
        assert_eq!(eng.alerts().len(), 2);
        assert!(eng.alerts()[1].detail.contains("re-sent to"));
    }

    #[test]
    fn cut_paste_flags_stolen_material_from_new_source() {
        // An AP-REQ's sealed material (ticket + authenticator) sent to
        // an app port, then a *different* endpoint re-presenting a long
        // run of it: the stolen-material path.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let victim = sealed_n(5, 33, 90);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, victim.clone());
        let mut thief = vec![5u8, 0xEE, 0x17, 0x99];
        thief.extend_from_slice(&victim[1..80]); // 79 shared bytes = 64 windows
        hop(&t, 5_000_000, (66, 7000), (20, 2001), "files", true, thief);
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].detector, "cut-paste");
        assert!(alerts[0].detail.contains("another endpoint's session material"));
    }

    #[test]
    fn cut_paste_tolerates_deterministic_prefix_aliasing() {
        // Under a deterministic seal two honest messages share leading
        // blocks: the owner's next ticket re-uses its own prefix, and a
        // *different* user's ticket shares the envelope + service-name
        // blocks. Neither is theft — only a long foreign run alerts.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let first = sealed_n(5, 70, 90);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, first.clone());
        // Same source, long shared prefix (round-over-round ticket).
        let mut own_next = first[..70].to_vec();
        own_next.extend_from_slice(&sealed_n(5, 140, 40)[1..]);
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, own_next);
        // Different source, short shared head (cross-user envelope +
        // leading ciphertext blocks): 29 shared bytes = 14 windows.
        let mut other_user = first[..30].to_vec();
        other_user.extend_from_slice(&sealed_n(5, 200, 60)[1..]);
        hop(&t, 3_000_000, (11, 1024), (20, 2001), "files", true, other_user);
        eng.poll();
        assert!(eng.fired().is_empty(), "{:?}", eng.alerts());
    }

    #[test]
    fn cut_paste_ignores_kdc_bound_request_structure() {
        // Two users' AS-REQs share cleartext structure (service
        // principal, realm). KDC-port sources are not splice-sensitive,
        // so the shared run must not alert.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let shared: Vec<u8> = (0u8..32).map(|i| i.wrapping_mul(7).wrapping_add(5)).collect();
        let mut req_a = vec![1u8, 0xAA];
        req_a.extend_from_slice(&shared);
        let mut req_b = vec![1u8, 0xBB];
        req_b.extend_from_slice(&shared);
        hop(&t, 1_000_000, (10, 1024), (20, 88), "kdc", true, req_a);
        hop(&t, 2_000_000, (11, 1024), (20, 88), "kdc", true, req_b);
        eng.poll();
        assert!(eng.fired().is_empty());
    }

    /// `[tag, 0xE0 ^ tag] + run + [0xF0 ^ tag] + run`: one message
    /// carrying `run` twice.
    fn twice(tag: u8, run: &[u8]) -> Vec<u8> {
        let mut v = vec![tag, 0xE0 ^ tag];
        v.extend_from_slice(run);
        v.push(0xF0 ^ tag);
        v.extend_from_slice(run);
        v
    }

    #[test]
    fn cut_paste_counts_a_foreign_window_once_per_occurrence() {
        // 35 stolen bytes = 20 windows: one copy is short of
        // `min_stolen` (40), the same run presented twice reaches it.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let victim = sealed_n(5, 33, 90);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, victim.clone());
        let mut once = vec![5u8, 0xEE];
        once.extend_from_slice(&victim[1..36]);
        hop(&t, 2_000_000, (66, 7000), (20, 2001), "files", true, once);
        eng.poll();
        assert!(eng.fired().is_empty(), "{:?}", eng.alerts());
        hop(&t, 3_000_000, (66, 7001), (20, 2001), "files", true, twice(7, &victim[1..36]));
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].detail.contains("re-uses 40 ciphertext windows"), "{alerts:?}");
    }

    #[test]
    fn cut_paste_never_counts_a_senders_own_repeated_windows() {
        // 55 bytes = 40 windows, repeated inside one fresh request: the
        // second copy finds the first one's windows under its own
        // source, which is not theft. The windows are still indexed
        // once, first-source-wins, so another endpoint re-using both
        // copies is charged 80 windows of that request.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let run = &sealed_n(9, 61, 55)[1..];
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, twice(5, run));
        eng.poll();
        assert!(eng.fired().is_empty(), "{:?}", eng.alerts());
        hop(&t, 2_000_000, (66, 7000), (20, 2001), "files", true, twice(6, run));
        eng.poll();
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].detail.contains("re-uses 80 ciphertext windows"), "{alerts:?}");
        assert!(alerts[0].detail.starts_with("message from 0.0.0.66:7000 to 0.0.0.20:2001"));
    }

    #[test]
    fn exact_address_matchers_compare_rendered_addresses() {
        let rules = "alert krb 0.0.0.10 any -> any 2001 (detector:replay; kinds:ap-req; \
                     window:900s; sid:1;)";
        let t = Tracer::new();
        let mut eng = crate::engine_from_rules(rules).unwrap();
        eng.attach(&t);
        for src in [11, 10] {
            let ap = sealed(5, src as u8);
            hop(&t, 1_000_000, (src, 1024), (20, 2001), "files", true, ap.clone());
            hop(&t, 2_000_000, (src, 1024), (20, 2001), "files", true, ap);
        }
        eng.poll();
        let subjects: Vec<&str> = eng.alerts().iter().map(|a| a.subject.as_str()).collect();
        assert_eq!(subjects, ["0.0.0.10:1024"]);
    }

    #[test]
    fn endpoints_clamp_like_their_text() {
        let wide = Endpoint::from_wire(u64::MAX, 88);
        assert_eq!(wide, Endpoint::from_wire(u64::from(u32::MAX), 88));
        assert_eq!(wide.to_string(), "255.255.255.255:88");
        assert_eq!(Endpoint::from_wire(0x0A00_0102, 2001).to_string(), "10.0.1.2:2001");
    }

    /// The entropy screen as first written: a window is lively iff its
    /// 16 bytes hold at least 4 distinct values.
    fn reference_windows(payload: &[u8]) -> Vec<u128> {
        payload
            .windows(16)
            .filter(|w| w.iter().collect::<BTreeSet<_>>().len() >= 4)
            .map(|w| u128::from_be_bytes(w.try_into().unwrap()))
            .collect()
    }

    testkit::prop! {
        /// The rolling screen yields exactly the reference's windows,
        /// in order, over low-entropy alphabets where the 4-distinct
        /// threshold flips back and forth along the payload.
        fn rolling_screen_matches_reference(
            alphabet in 1u8..=8,
            base in testkit::prop::any::<u8>(),
            picks in testkit::prop::collection::vec(testkit::prop::any::<u8>(), 0..=80),
        ) {
            let payload: Vec<u8> =
                picks.iter().map(|p| base.wrapping_add(p % alphabet)).collect();
            let rolled: Vec<u128> = LivelyWindows::new(&payload).collect();
            assert_eq!(rolled, reference_windows(&payload), "{payload:?}");
        }

        /// And over arbitrary bytes.
        fn rolling_screen_matches_reference_on_any_bytes(
            payload in testkit::prop::collection::vec(testkit::prop::any::<u8>(), 0..=80),
        ) {
            let rolled: Vec<u128> = LivelyWindows::new(&payload).collect();
            assert_eq!(rolled, reference_windows(&payload), "{payload:?}");
        }
    }

    #[test]
    fn events_counter_matches_events_seen() {
        // The poll after one that raised an alert drains that alert's
        // own `ids.alert` event too; neither view counts it.
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 7);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap);
        assert_eq!(eng.poll(), 1);
        let counter = |t: &Tracer| t.snapshot()["ids.events{engine}"];
        let (c0, s0) = (counter(&t), eng.events_seen());
        assert_eq!(c0, s0);
        hop(&t, 3_000_000, (10, 1024), (20, 2001), "files", true, sealed(5, 8));
        eng.poll();
        assert_eq!(eng.events_seen() - s0, 1);
        assert_eq!(counter(&t) - c0, eng.events_seen() - s0);
    }

    #[test]
    fn preauth_storm_latches_once_per_burst() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        for i in 0..20u64 {
            // Distinct nonces: each AS-REQ is a fresh payload.
            let mut req = sealed(1, i as u8);
            req.push(i as u8);
            hop(&t, 1_000_000 + i * 100_000, (10, 1024), (20, 88), "kdc", true, req);
        }
        eng.poll();
        let storm: Vec<_> = eng.alerts().iter().filter(|a| a.detector == "preauth-storm").collect();
        assert_eq!(storm.len(), 1, "one latched alert per burst, not one per packet");
    }

    #[test]
    fn preauth_storm_counts_failures_per_principal() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        for i in 0..10u64 {
            t.emit(
                EventKind::PreauthFailed,
                1_000_000 + i * 1_000_000,
                vec![
                    ("site", Value::str("kdc.preauth")),
                    ("client", Value::str("sam")),
                    ("error", Value::str("preauthentication failed")),
                ],
            );
        }
        eng.poll();
        let storm: Vec<_> = eng.alerts().iter().filter(|a| a.detector == "preauth-storm").collect();
        assert_eq!(storm.len(), 1);
        assert_eq!(storm[0].subject, "sam");
    }

    #[test]
    fn crash_reuse_requires_restart_between_sightings() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 50);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        // Same bytes again with no restart: replay fires, crash-reuse not.
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        eng.poll();
        assert!(!eng.fired().contains("crash-reuse"));
        t.emit(EventKind::HostRestart, 3_000_000, vec![("host", Value::str("files"))]);
        hop(&t, 4_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        assert!(eng.fired().contains("crash-reuse"));
        assert!(eng.fired().contains("replay"));
    }

    #[test]
    fn poll_cadence_does_not_change_alerts() {
        let drive = |poll_each: bool| -> Vec<Alert> {
            let t = Tracer::new();
            let mut eng = default_engine().unwrap();
            eng.attach(&t);
            let ap = sealed(5, 7);
            hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
            if poll_each {
                eng.poll();
            }
            hop(&t, 5_000_000, (10, 1024), (20, 2001), "files", true, ap);
            eng.poll();
            eng.alerts().to_vec()
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn alerts_emit_back_into_the_trace_without_feedback() {
        let t = Tracer::new();
        let mut eng = default_engine().unwrap();
        eng.attach(&t);
        let ap = sealed(5, 7);
        hop(&t, 1_000_000, (10, 1024), (20, 2001), "files", true, ap.clone());
        hop(&t, 2_000_000, (10, 1024), (20, 2001), "files", true, ap);
        eng.poll();
        let n = eng.alerts().len();
        assert_eq!(n, 1);
        // The emitted ids.alert event is in the trace...
        let kinds: Vec<_> = t.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::IdsAlert));
        // ...and re-polling (which drains it back) neither re-alerts
        // nor loops.
        eng.poll();
        eng.poll();
        assert_eq!(eng.alerts().len(), n);
    }
}
