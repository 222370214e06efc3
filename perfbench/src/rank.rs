//! `rank_cold`: learned-tier ranking over the binary TCP protocol with the
//! response cache off, driven closed-loop by one client thread holding
//! [`CONNECTIONS`] connections with [`DEPTH`] requests pipelined on each.
//! The traced run drives the same client against a cache-on server for
//! the warm path's layers.

use crate::gen::{self, Size, Stream, TmpDir, MAX_LEN};
use crate::stats;
use crate::{Outcome, RunConfig, Tally};
use ls_relational::FactId;
use ls_serve::{
    proto, Event, Interest, ModelBundle, Poller, RankRequest, RankResponse, ServeConfig,
    ServeError, Server, TcpServer, Tier,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Requests outstanding per connection.
pub const DEPTH: usize = 4;
/// Ranking-cache entries when the cache is on; the distinct request set
/// must fit, so every request after priming is a hit.
pub const CACHE_CAPACITY: usize = 4096;
/// Byte offset of the request id inside an encoded binary rank frame
/// (4-byte length prefix, 1-byte frame kind).
const ID_OFFSET: usize = 5;

/// A running server, its request stream and a connected client.
pub struct RankEnv {
    /// Distinct requests, in seed order; passes cycle through them.
    pub requests: Vec<RankRequest>,
    /// Where the request stream continues.
    pub stream: Stream,
    /// The served model (also the serial oracle).
    pub bundle: Arc<ModelBundle>,
    /// The load generator.
    pub client: Client,
    tcp: TcpServer,
    server: Server,
    _tmp: TmpDir,
}

impl RankEnv {
    /// Set-up: dataset, tokenizer, model init, save and load, server
    /// start, connect.
    pub fn start(size: &Size, seed: u64, threads: usize, cache: bool) -> RankEnv {
        let ds = gen::academic_dataset(size);
        let requests = gen::rank_requests(&ds);
        let stream = Stream::new(requests.len(), seed);
        assert!(
            requests.len() < CACHE_CAPACITY,
            "distinct requests must fit the cache"
        );
        let tokenizer = gen::tokenizer(&ds);
        let mut model = gen::fresh_model(&tokenizer);
        let tmp = TmpDir::new("rank");
        let snapshot = tmp.path().join("model.lsmd");
        ls_core::save_model(&mut model, &tokenizer, &snapshot).expect("save model");
        let bundle =
            Arc::new(ModelBundle::load(&snapshot, ds.db, MAX_LEN).expect("load model snapshot"));
        let server = Server::start(
            bundle.clone(),
            ServeConfig {
                workers: threads,
                queue_depth: 256,
                max_batch_items: 64,
                batch_deadline: Duration::from_micros(500),
                cache_capacity: if cache { CACHE_CAPACITY } else { 0 },
                default_deadline: None,
                ..Default::default()
            },
        );
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind rank server");
        let client = Client::connect(tcp.local_addr(), CONNECTIONS).expect("connect client");
        RankEnv {
            requests,
            stream,
            bundle,
            client,
            tcp,
            server,
            _tmp: tmp,
        }
    }

    /// Close the client, then stop the front-end and drain the server.
    pub fn stop(self) {
        drop(self.client);
        self.tcp.stop();
        self.server.shutdown();
    }

    /// Drive one closed-loop pass, continuing the request stream.
    pub fn pass(&mut self, pass: Pass, on_reply: impl FnMut(Reply)) -> PassTotals {
        self.client
            .run(&self.requests, &mut self.stream, pass, on_reply)
            .expect("rank pass transport")
    }
}

/// What one pass issues.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Stop issuing after this long.
    pub duration: Duration,
    /// Stop issuing after this many requests.
    pub limit: Option<usize>,
    /// Keep issuing past `duration` until this many requests are out.
    pub at_least: usize,
    /// Attach a fresh trace context to every request.
    pub traced: bool,
}

impl Pass {
    /// A pass that issues for `secs` seconds.
    pub fn timed(secs: f64, traced: bool) -> Pass {
        Pass {
            duration: Duration::from_secs_f64(secs),
            limit: None,
            at_least: 0,
            traced,
        }
    }

    /// The same pass, issuing at least `n` requests.
    pub fn at_least(self, n: usize) -> Pass {
        Pass {
            at_least: n,
            ..self
        }
    }

    /// A pass that issues exactly `n` requests.
    pub fn count(n: usize) -> Pass {
        Pass {
            duration: Duration::MAX,
            limit: Some(n),
            at_least: 0,
            traced: false,
        }
    }
}

/// One response as the client saw it.
pub struct Reply {
    /// Index into the distinct request set.
    pub req: usize,
    /// When the request's frame was written.
    pub sent: Instant,
    /// Send to receipt, as seen by the client.
    pub latency: Duration,
    /// The decoded response.
    pub result: Result<RankResponse, ServeError>,
}

/// Totals of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTotals {
    /// Responses received.
    pub completed: usize,
    /// First send to last receipt.
    pub wall: Duration,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    off: usize,
}

/// A single-threaded binary-protocol load generator over a readiness
/// poller.
pub struct Client {
    poller: Poller,
    conns: Vec<Conn>,
    next_id: u64,
}

impl Client {
    /// Open `n` connections and negotiate the binary protocol on each.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Client> {
        let mut poller = Poller::new()?;
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&proto::encode_hello(proto::BINARY_VERSION))?;
            let mut ack = [0u8; proto::HELLO_LEN];
            stream.read_exact(&mut ack)?;
            let version = proto::decode_hello(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if version != proto::BINARY_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server chose protocol version {version}"),
                ));
            }
            poller.register(stream.as_raw_fd(), i as u64, Interest::READ)?;
            conns.push(Conn {
                stream,
                buf: Vec::new(),
                off: 0,
            });
        }
        Ok(Client {
            poller,
            conns,
            next_id: 1,
        })
    }

    /// Closed loop: keep [`DEPTH`] requests in flight on every connection,
    /// each completion immediately issuing the next request of the stream
    /// on the same connection, until the pass stops issuing; then drain.
    pub fn run(
        &mut self,
        requests: &[RankRequest],
        stream: &mut Stream,
        pass: Pass,
        mut on_reply: impl FnMut(Reply),
    ) -> io::Result<PassTotals> {
        // Untraced frames are encoded once; each send patches in its id.
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| proto::encode_binary_request(0, r, None))
            .collect();
        let mut totals = PassTotals::default();
        let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
        let mut issued = 0usize;
        let start = Instant::now();
        let stop_at = start.checked_add(pass.duration);
        let may_issue = |issued: usize| {
            pass.limit.is_none_or(|l| issued < l)
                && (issued < pass.at_least || stop_at.is_none_or(|t| Instant::now() < t))
        };
        let mut send = |conn: &mut Conn,
                        next_id: &mut u64,
                        inflight: &mut HashMap<u64, (usize, Instant)>,
                        totals: &mut PassTotals|
         -> io::Result<()> {
            let req = stream.next_index();
            let id = *next_id;
            *next_id += 1;
            let frame = if pass.traced {
                let ctx = ls_obs::TraceContext::root();
                proto::encode_binary_request(id, &requests[req], Some(&ctx))
            } else {
                let mut f = frames[req].clone();
                f[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&id.to_le_bytes());
                f
            };
            let sent = Instant::now();
            conn.stream.write_all(&frame)?;
            totals.bytes_out += frame.len() as u64;
            inflight.insert(id, (req, sent));
            Ok(())
        };
        for conn in &mut self.conns {
            for _ in 0..DEPTH {
                if may_issue(issued) {
                    send(conn, &mut self.next_id, &mut inflight, &mut totals)?;
                    issued += 1;
                }
            }
        }
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut last = start;
        while !inflight.is_empty() {
            self.poller
                .wait(&mut events, Some(Duration::from_secs(30)))?;
            if events.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} responses outstanding after 30 s", inflight.len()),
                ));
            }
            for ev in &events {
                let conn = &mut self.conns[ev.token as usize];
                // One read per readiness event: the socket is blocking, and
                // a level-triggered poller reports any remainder again.
                let n = conn.stream.read(&mut scratch)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                totals.bytes_in += n as u64;
                conn.buf.extend_from_slice(&scratch[..n]);
                while conn.buf.len() - conn.off >= 4 {
                    let at = conn.off;
                    let len = u32::from_le_bytes(conn.buf[at..at + 4].try_into().expect("4 bytes"))
                        as usize;
                    if conn.buf.len() - at < 4 + len {
                        break;
                    }
                    let (id, result) =
                        proto::decode_binary_response(&conn.buf[at + 4..at + 4 + len])
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    conn.off += 4 + len;
                    let now = Instant::now();
                    let (req, sent) = inflight.remove(&id).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("unknown id {id}"))
                    })?;
                    totals.completed += 1;
                    last = now;
                    on_reply(Reply {
                        req,
                        sent,
                        latency: now - sent,
                        result,
                    });
                    if may_issue(issued) {
                        send(conn, &mut self.next_id, &mut inflight, &mut totals)?;
                        issued += 1;
                    }
                }
                if conn.off == conn.buf.len() {
                    conn.buf.clear();
                    conn.off = 0;
                } else if conn.off >= scratch.len() {
                    conn.buf.drain(..conn.off);
                    conn.off = 0;
                }
            }
        }
        totals.wall = last - start;
        Ok(totals)
    }
}

/// Response verification: every response of a request must carry the same
/// learned-tier scores (compared as f64 bits) and ranking, and that answer
/// must equal serial `ls_core::predict_scores` for the request.
pub struct Checker {
    canon: Vec<Option<(Vec<u64>, Vec<FactId>)>>,
    seen: Vec<u64>,
    /// Operation tally.
    pub tally: Tally,
}

impl Checker {
    /// A checker for `n` distinct requests.
    pub fn new(n: usize) -> Checker {
        Checker {
            canon: vec![None; n],
            seen: vec![0; n],
            tally: Tally::default(),
        }
    }

    /// Check one reply; `want_cached` demands a cache hit.
    pub fn observe(&mut self, reply: &Reply, want_cached: bool) {
        let req = reply.req;
        let resp = match &reply.result {
            Ok(resp) => resp,
            Err(e) => {
                self.tally.fail(format!("request {req}: {e}"));
                return;
            }
        };
        if resp.tier != Some(Tier::Learned) || resp.degraded {
            self.tally.fail(format!(
                "request {req}: tier {:?}, degraded {}",
                resp.tier, resp.degraded
            ));
            return;
        }
        if want_cached && !resp.cached {
            self.tally.fail(format!("request {req}: cache miss"));
            return;
        }
        let answer = (
            resp.scores
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<u64>>(),
            resp.ranking.clone(),
        );
        match &self.canon[req] {
            None => self.canon[req] = Some(answer),
            Some(c) if *c != answer => {
                self.tally.fail(format!(
                    "request {req}: answer differs from its earlier one"
                ));
                return;
            }
            Some(_) => {}
        }
        self.seen[req] += 1;
        self.tally.pass();
    }

    /// Compare every answered request with serial `predict_scores`.
    pub fn verify_serial(&mut self, bundle: &ModelBundle, requests: &[RankRequest]) {
        let expected = ls_par::par_map(requests, |i, req| {
            self.canon[i].as_ref().map(|_| serial_answer(bundle, req))
        });
        self.verify(expected.iter().map(Option::as_ref));
    }

    /// Compare every answered request with precomputed serial answers.
    pub fn verify_against(&mut self, expected: &[(Vec<u64>, Vec<FactId>)]) {
        self.verify(expected.iter().map(Some));
    }

    /// A mismatch fails every response that carried the answer.
    fn verify<'a>(&mut self, expected: impl Iterator<Item = Option<&'a (Vec<u64>, Vec<FactId>)>>) {
        for (i, want) in expected.enumerate() {
            if self.canon[i].is_some() && self.canon[i].as_ref() != want {
                let n = self.seen[i];
                self.tally.failed += n;
                self.tally.note(format!(
                    "request {i}: {n} responses differ from serial predict_scores"
                ));
            }
        }
    }
}

/// Serial `predict_scores` for one request, as (score bits in lineage
/// order, ranking).
pub fn serial_answer(bundle: &ModelBundle, req: &RankRequest) -> (Vec<u64>, Vec<FactId>) {
    let scores = ls_core::predict_scores(
        &bundle.model,
        &bundle.tokenizer,
        &bundle.db,
        &req.query_sql,
        &req.tuple,
        &req.lineage,
        bundle.max_len,
    );
    let bits = req.lineage.iter().map(|f| scores[f].to_bits()).collect();
    (bits, ls_shapley::rank_descending(&scores))
}

/// Warm the server on the workload's own traffic: with the cache on, one
/// pass over every distinct request fills it; then `warmup` seconds of the
/// stream. Every reply is verified.
pub fn warm_up(env: &mut RankEnv, cache: bool, warmup: f64, checker: &mut Checker) {
    if cache {
        let n = env.requests.len();
        env.pass(Pass::count(n), |r| checker.observe(&r, false));
    }
    env.pass(Pass::timed(warmup, false), |r| checker.observe(&r, cache));
}

/// Length of one throughput slice.
pub const SLICE_SECONDS: f64 = 0.25;

/// Each request's weight in a throughput count: its lineage size over the
/// mean lineage size of the set. Over whole cycles of the stream the
/// weights of the completed requests sum to their number.
pub fn request_weights(requests: &[RankRequest]) -> Vec<f64> {
    let facts: usize = requests.iter().map(|r| r.lineage.len()).sum();
    let mean = facts as f64 / requests.len() as f64;
    requests
        .iter()
        .map(|r| r.lineage.len() as f64 / mean)
        .collect()
}

/// Requests per second over consecutive slices of at least
/// [`SLICE_SECONDS`], fed the (instant, weight) of every completion of a
/// pass. Weighting by lineage size keeps a slice's rate independent of
/// which requests happened to complete in it.
pub struct SliceMeter {
    from: Instant,
    weight: f64,
    /// Rate of every closed slice.
    pub rates: Vec<f64>,
}

impl SliceMeter {
    /// A meter whose first slice starts at `start`.
    pub fn new(start: Instant) -> SliceMeter {
        SliceMeter {
            from: start,
            weight: 0.0,
            rates: Vec::new(),
        }
    }

    /// Count a completion.
    pub fn record(&mut self, at: Instant, weight: f64) {
        self.weight += weight;
        let secs = (at - self.from).as_secs_f64();
        if secs >= SLICE_SECONDS {
            self.rates.push(self.weight / secs);
            self.from = at;
            self.weight = 0.0;
        }
    }
}

/// One timed `rank_cold` run.
///
/// Throughput is the median slice rate of a [`SliceMeter`] over the timed
/// pass.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut setup_s = Vec::new();
    let mut env: Option<RankEnv> = None;
    for _ in 0..cfg.setup_reps {
        if let Some(old) = env.take() {
            old.stop();
        }
        let t = Instant::now();
        env = Some(RankEnv::start(&cfg.size, cfg.seed, cfg.threads, false));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let n = env.requests.len();
    let mut checker = Checker::new(n);
    warm_up(&mut env, false, cfg.warmup, &mut checker);
    let weights = request_weights(&env.requests);
    let mut latencies_ms: Vec<f32> = Vec::new();
    let mut meter = SliceMeter::new(Instant::now());
    // At least one latency window, however short `--seconds` is.
    let timed = Pass::timed(cfg.seconds, false).at_least(stats::WINDOW);
    let totals = env.pass(timed, |r| {
        meter.record(Instant::now(), weights[r.req]);
        latencies_ms.push((r.latency.as_secs_f64() * 1e3) as f32);
        checker.observe(&r, false);
    });
    checker.verify_serial(&env.bundle, &env.requests);
    env.stop();
    let rates = meter.rates;

    let mut out = Outcome::new(checker.tally);
    out.note(format!(
        "{} timed responses over {:.3} s ({n} distinct requests, {CONNECTIONS} connections x \
         {DEPTH} pipelined); req/s per {SLICE_SECONDS} s slice: quartiles {:?} of {}",
        totals.completed,
        totals.wall.as_secs_f64(),
        stats::quartiles(&rates),
        rates.len(),
    ));
    out.setup(&setup_s);
    if rates.is_empty() {
        out.tally
            .fail("the timed pass completed no slice".to_string());
    } else {
        out.metric("throughput_per_s", stats::median(&rates), "1/s");
    }
    out.latencies("request", &latencies_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_sits_at_the_patched_offset() {
        let req = RankRequest {
            query_sql: "SELECT a FROM t".into(),
            tuple: ls_relational::OutputTuple {
                values: vec![ls_relational::Value::Int(1)],
                derivations: Vec::new(),
            },
            lineage: vec![FactId(3)],
            deadline: None,
            slo: None,
        };
        let mut frame = proto::encode_binary_request(0, &req, None);
        frame[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&77u64.to_le_bytes());
        let fresh = proto::encode_binary_request(77, &req, None);
        assert_eq!(frame, fresh);
        match proto::decode_binary_frame(&frame[4..]).expect("decodes") {
            proto::Frame::Rank(id, _, _) => assert_eq!(id, 77),
            _ => panic!("not a rank frame"),
        }
    }

    #[test]
    fn slices_weigh_completions_by_lineage() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two 0.25 s slices: weights 1 + 3 in the first, 2 in the second.
        let done = [
            (at(100), 1.0),
            (at(250), 3.0),
            (at(400), 1.0),
            (at(500), 1.0),
            (at(600), 9.0),
        ];
        let mut meter = SliceMeter::new(t0);
        for (at, w) in done {
            meter.record(at, w);
        }
        let rates = meter.rates;
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 16.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }
}
