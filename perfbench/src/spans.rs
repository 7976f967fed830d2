//! In-memory span recorder and the forwarding service wrappers that
//! time each server-side layer from outside the program.
//!
//! Spans form the hierarchy op -> phase call -> service handler. All
//! spans of one session share its op id. Nothing here touches the
//! program's own tracer, so a traced pass emits exactly the events and
//! metrics an untraced pass emits.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use kerberos::messages::{deframe, WireKind};
use kerberos::testbed::CLIENT_PORT;
use simnet::{
    Datagram, Endpoint, HostId, NetError, Network, Service, ServiceCtx, SimTime, Tap, Verdict,
};

/// What a span times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One whole session.
    Op,
    /// `client::login_at` (AS exchange).
    Login,
    /// `client::get_service_ticket_at` (TGS exchange).
    Tgs,
    /// `appserver::connect_app` (AP exchange).
    Ap,
    /// One `AppConnection::request` (KRB_PRIV).
    Priv,
    /// `Engine::poll` after the session.
    Ids,
    /// A KDC's `Service::handle`.
    Kdc,
    /// An application server's `Service::handle`.
    App,
    /// The gateway's `Service::handle`.
    GatewayHandle,
    /// The gateway's `Service::on_forward_reply`.
    GatewayReply,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Login => "client.login",
            Layer::Tgs => "client.tgs",
            Layer::Ap => "client.ap",
            Layer::Priv => "client.priv",
            Layer::Ids => "ids.poll",
            Layer::Kdc => "kdc.handle",
            Layer::App => "app.handle",
            Layer::GatewayHandle => "gateway.handle",
            Layer::GatewayReply => "gateway.on_forward_reply",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u32,
    pub parent: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The call failed, or a server answered with a KRB_ERROR.
    pub error: bool,
}

/// Spans of one traced pass, kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub op: u32,
}

pub type Rec = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn new() -> Rec {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            parent,
            layer,
            start_ns,
            end_ns: 0,
            error: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn end(&mut self, id: u32, error: bool) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.error = error;
        debug_assert_eq!(self.stack.last(), Some(&id));
        self.stack.pop();
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"error\":{}}}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.error
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span of `layer` when a recorder is present.
pub fn timed<T, E>(
    rec: Option<&Rec>,
    layer: Layer,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    let Some(rec) = rec else { return f() };
    let id = rec.borrow_mut().begin(layer);
    let out = f();
    rec.borrow_mut().end(id, out.is_err());
    out
}

/// A forwarding [`Service`] that delegates all five methods to the
/// service it wraps and times `handle` and `on_forward_reply`, so
/// downcasts (`with_shard_kdc`) and crash-restarts behave as before.
struct Timed {
    inner: Box<dyn Service>,
    layer: Layer,
    rec: Rec,
}

fn is_error_reply(reply: &Option<Vec<u8>>) -> bool {
    matches!(reply.as_deref().map(deframe), Some(Ok((WireKind::Err, _))))
}

impl Service for Timed {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        let id = self.rec.borrow_mut().begin(self.layer);
        let reply = self.inner.handle(ctx, req, from);
        self.rec.borrow_mut().end(id, is_error_reply(&reply));
        reply
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn on_restart(&mut self, ctx: &mut ServiceCtx) {
        self.inner.on_restart(ctx);
    }

    fn on_forward_reply(
        &mut self,
        ctx: &mut ServiceCtx,
        upstream: Result<&[u8], &NetError>,
        from: Endpoint,
    ) -> Option<Vec<u8>> {
        let id = self.rec.borrow_mut().begin(Layer::GatewayReply);
        let reply = self.inner.on_forward_reply(ctx, upstream, from);
        self.rec.borrow_mut().end(id, is_error_reply(&reply));
        reply
    }
}

/// Re-binds the service on `host:port` inside a timing wrapper.
///
/// # Panics
///
/// Panics if nothing is bound there.
pub fn wrap(net: &mut Network, host: HostId, port: u16, layer: Layer, rec: &Rec) {
    let h = net.host_mut(host);
    let inner = h.unbind(port).expect("a bound service to wrap");
    h.bind(
        port,
        Box::new(Timed {
            inner,
            layer,
            rec: Rc::clone(rec),
        }),
    );
}

/// A passive tap counting the request datagrams clients put on the
/// wire (first transmissions and retries, not the network's duplicates).
/// Forwarded requests keep the client's source port, so the gateway's
/// leg to a KDC counts too.
pub struct RequestTap(pub Rc<Cell<u64>>);

impl Tap for RequestTap {
    fn on_packet(&mut self, dgram: &mut Datagram, _now: SimTime) -> Verdict {
        if dgram.src.port == CLIENT_PORT {
            self.0.set(self.0.get() + 1);
        }
        Verdict::Deliver
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Per-pass totals by layer: summed self-free durations, call counts
/// and error counts, plus every phase span's duration for percentiles.
pub struct Profile {
    pub busy_ns: [u64; 10],
    pub calls: [u64; 10],
    pub errors: [u64; 10],
    /// Durations (µs) of every span, by layer.
    pub durations_us: Vec<Vec<f64>>,
}

impl Profile {
    pub fn from_spans(spans: &[Span]) -> Profile {
        let mut p = Profile {
            busy_ns: [0; 10],
            calls: [0; 10],
            errors: [0; 10],
            durations_us: vec![Vec::new(); 10],
        };
        for s in spans {
            let i = s.layer.index();
            let d = s.end_ns.saturating_sub(s.start_ns);
            p.busy_ns[i] += d;
            p.calls[i] += 1;
            p.errors[i] += u64::from(s.error);
            p.durations_us[i].push(d as f64 / 1e3);
        }
        p
    }

    pub fn busy_us(&self, l: Layer) -> f64 {
        self.busy_ns[l.index()] as f64 / 1e3
    }

    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l.index()]
    }

    pub fn errors(&self, l: Layer) -> u64 {
        self.errors[l.index()]
    }

    pub fn durations(&self, l: Layer) -> &[f64] {
        &self.durations_us[l.index()]
    }
}
