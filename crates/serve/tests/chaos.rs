//! Chaos suite: seeded fault plans drive the serving stack and every
//! request must end in exactly one of two states — a **typed error** or a
//! response **bit-identical** to what the fault-free serial `rank_lineage`
//! path produces. Nothing in between: no partial scores, no poisoned cache
//! entries, no silently-wrong rankings.
//!
//! The plans are compiled from fixed seeds ([`FaultPlan::compile`]), so a
//! failing run reproduces exactly: same seed, same schedule, same faults.

use ls_core::{
    save_model, FallbackScorer, LearnShapleyModel, NearestFallback, Tokenizer, UniformFallback,
};
use ls_dbshap::{
    generate_imdb, imdb_spec, Dataset, DatasetConfig, ImdbConfig, QueryGenConfig, Split,
};
use ls_fault::{BreakerState, ChaosProxy, FaultKind, FaultPlan, FaultRule, FaultSpec};
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::proto;
use ls_serve::{
    ModelBundle, RankRequest, RankResponse, RetryPolicy, ServeConfig, ServeError, Server,
    TcpRankClient, TcpServer, Tier,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MAX_LEN: usize = 48;

// ---------------------------------------------------------------------------
// Fixtures (mirrors tests/serve.rs: hand-built movie db + untrained model —
// inference cost and determinism do not depend on the weight values).
// ---------------------------------------------------------------------------

fn fixture_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[("title", ColType::Str), ("year", ColType::Int)],
    ));
    let titles = [
        "Memento", "Dune", "Arrival", "Heat", "Alien", "Solaris", "Gattaca", "Brazil", "Akira",
        "Contact", "Moon", "Primer",
    ];
    for (i, t) in titles.iter().enumerate() {
        db.insert(
            "movies",
            vec![Value::Str(t.to_string()), Value::Int(1980 + i as i64 * 3)],
        );
    }
    db
}

fn bundle_from_db(db: Database, corpus: &[String]) -> Arc<ModelBundle> {
    let tokenizer = Tokenizer::build(corpus.iter().map(String::as_str), 2000);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ));
    let dir = std::env::temp_dir().join(format!(
        "ls-chaos-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.lsmd");
    save_model(&mut model, &tokenizer, &path).expect("save");
    let bundle = ModelBundle::load(&path, db, MAX_LEN).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(bundle)
}

fn fixture_bundle() -> Arc<ModelBundle> {
    let db = fixture_db();
    let mut corpus = vec![
        "SELECT title FROM movies WHERE year > 1990".to_string(),
        "movies Memento Dune Arrival Heat Alien Solaris Gattaca Brazil Akira Contact Moon Primer"
            .to_string(),
    ];
    corpus.push("Title 0 1 2 3 4 5 6 7 1980 1995 2010".to_string());
    bundle_from_db(db, &corpus)
}

fn requests(bundle: &ModelBundle) -> Vec<RankRequest> {
    let n = bundle.db.fact_count() as u32;
    (0..8u32)
        .map(|i| RankRequest {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1980 + i),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("Title {i}")), Value::Int(i as i64)],
                derivations: Vec::new(),
            },
            lineage: (0..6).map(|j| FactId((i * 5 + j * 3) % n)).collect(),
            deadline: None,
            slo: None,
        })
        .collect()
}

fn serial_answer(bundle: &ModelBundle, req: &RankRequest) -> RankResponse {
    let scores = ls_core::predict_scores(
        &bundle.model,
        &bundle.tokenizer,
        &bundle.db,
        &req.query_sql,
        &req.tuple,
        &req.lineage,
        bundle.max_len,
    );
    RankResponse {
        scores: req.lineage.iter().map(|f| scores[f]).collect(),
        ranking: ls_shapley::rank_descending(&scores),
        cached: false,
        degraded: false,
        stages: None,
        tier: Some(Tier::Learned),
    }
}

fn assert_bit_identical(served: &RankResponse, serial: &RankResponse) {
    assert_eq!(served.ranking, serial.ranking, "ranking differs");
    assert_eq!(served.scores.len(), serial.scores.len());
    for (i, (a, b)) in served.scores.iter().zip(&serial.scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {i} not bit-identical: {a} vs {b}"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism of the schedule itself
// ---------------------------------------------------------------------------

/// Same `(seed, spec)` ⇒ same realized fault schedule; a different seed
/// realizes a different one. This is what makes any chaos failure below
/// replayable from its seed alone.
#[test]
fn same_seed_compiles_the_same_schedule() {
    let spec = FaultSpec::new()
        .rule(FaultRule::bernoulli(
            "serve.worker.score",
            FaultKind::Error,
            150,
        ))
        .rule(FaultRule::bernoulli(
            "serve.worker.score",
            FaultKind::Panic,
            60,
        ))
        .rule(FaultRule::bernoulli(
            "serve.tcp.read",
            FaultKind::Truncate,
            40,
        ));
    let a = FaultPlan::compile(2024, &spec);
    let b = FaultPlan::compile(2024, &spec);
    for site in ["serve.worker.score", "serve.tcp.read"] {
        assert_eq!(a.schedule(site, 4096), b.schedule(site, 4096), "{site}");
    }
    let c = FaultPlan::compile(2025, &spec);
    assert_ne!(
        a.schedule("serve.worker.score", 4096),
        c.schedule("serve.worker.score", 4096)
    );
}

// ---------------------------------------------------------------------------
// The chaos invariant
// ---------------------------------------------------------------------------

/// A matrix of fixed seeds, each realizing a different mix of injected
/// scoring errors, scoring panics, and worker-thread aborts. Under every
/// plan, every request must end in a typed error or a response
/// bit-identical to the fault-free serial path — across three rounds so
/// requests also land on respawned workers and warmed caches.
#[test]
fn chaos_matrix_typed_error_or_bit_identical() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    for seed in [3u64, 17, 92] {
        let spec = FaultSpec::new()
            .rule(FaultRule::bernoulli(
                "serve.worker.score",
                FaultKind::Error,
                120,
            ))
            .rule(FaultRule::bernoulli(
                "serve.worker.score",
                FaultKind::Panic,
                60,
            ))
            .rule(FaultRule::every("serve.worker.poll", FaultKind::Panic, 31, 7).limit(2));
        let plan = Arc::new(FaultPlan::compile(seed, &spec));
        let server = Server::start_with(
            bundle.clone(),
            ServeConfig {
                workers: 3,
                cache_capacity: 64,
                ..Default::default()
            },
            plan.clone(),
            None,
        );
        let handle = server.handle();
        let mut ok = 0usize;
        let mut failed = 0usize;
        for _round in 0..3 {
            let results: Vec<Result<RankResponse, ServeError>> = std::thread::scope(|scope| {
                let joins: Vec<_> = reqs
                    .iter()
                    .map(|r| {
                        let handle = handle.clone();
                        let r = r.clone();
                        scope.spawn(move || handle.rank(r))
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            for (i, res) in results.into_iter().enumerate() {
                match res {
                    Ok(resp) => {
                        ok += 1;
                        assert!(!resp.degraded, "no breaker configured in this run");
                        assert_bit_identical(&resp, &serial[i]);
                    }
                    Err(ServeError::Internal(_)) => failed += 1,
                    Err(other) => panic!("seed {seed}: untyped/unexpected error {other:?}"),
                }
            }
        }
        assert!(
            plan.fired() > 0,
            "seed {seed}: plan injected nothing — rates too low to test anything"
        );
        assert!(ok > 0, "seed {seed}: every request failed");
        server.shutdown();
        eprintln!(
            "chaos seed {seed}: {ok} ok, {failed} typed failures, {} faults fired",
            plan.fired()
        );
    }
}

/// The acceptance pin: one injected worker panic fails exactly one job with
/// a typed Internal error; every subsequent request succeeds bit-identically
/// on the same (still alive) worker.
#[test]
fn injected_worker_panic_fails_exactly_one_job() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let spec = FaultSpec::new().rule(FaultRule::at("serve.worker.score", FaultKind::Panic, &[0]));
    let plan = Arc::new(FaultPlan::compile(7, &spec));
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
        plan.clone(),
        None,
    );
    let handle = server.handle();
    let mut failures = 0usize;
    for (i, req) in reqs.iter().enumerate() {
        match handle.rank(req.clone()) {
            Ok(resp) => assert_bit_identical(&resp, &serial[i]),
            Err(ServeError::Internal(msg)) => {
                failures += 1;
                assert!(msg.contains("panicked"), "unexpected message {msg:?}");
                assert_eq!(i, 0, "only the faulted hit may fail");
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(failures, 1, "exactly one job fails, exactly once");
    assert_eq!(plan.fired(), 1);
    server.shutdown();
}

/// A panic at the poll site (outside `catch_unwind`) kills the worker
/// thread itself; the `RespawnGuard` replaces it and serving continues with
/// no lost requests. Shutdown then joins the replacement threads too.
#[test]
fn worker_thread_abort_respawns_the_pool() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    // Both initial workers die on their first poll; their replacements serve.
    let spec = FaultSpec::new().rule(FaultRule::at(
        "serve.worker.poll",
        FaultKind::Panic,
        &[0, 1],
    ));
    let plan = Arc::new(FaultPlan::compile(5, &spec));
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
        plan.clone(),
        None,
    );
    let handle = server.handle();
    for (i, req) in reqs.iter().enumerate() {
        let resp = handle.rank(req.clone()).expect("respawned pool serves");
        assert_bit_identical(&resp, &serial[i]);
    }
    assert_eq!(plan.fired(), 2, "both thread-abort faults fired");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Degraded mode: circuit breaker + sim_w nearest-queries fallback
// ---------------------------------------------------------------------------

fn imdb_dataset() -> Dataset {
    let db = generate_imdb(&ImdbConfig {
        companies: 10,
        actors: 40,
        movies: 50,
        roles_per_movie: 2,
        seed: 9,
    });
    let cfg = DatasetConfig {
        query_gen: QueryGenConfig {
            num_queries: 10,
            ..Default::default()
        },
        max_tuples_per_query: 4,
        max_lineage: 25,
        ..Default::default()
    };
    Dataset::build(db, &imdb_spec(), &cfg)
}

/// End-to-end degraded mode over real data: repeated injected scoring
/// failures open the breaker, dispatch flips to the paper's `sim_w` Nearest
/// Queries fallback with responses explicitly marked `degraded`, and after
/// the cooldown a half-open probe on the healthy model path closes the
/// breaker again — full-fidelity responses resume, bit-identical to serial.
#[test]
fn breaker_degrades_to_nearest_fallback_and_recovers() {
    let ds = imdb_dataset();
    let train = ds.split_indices(Split::Train);
    let fallback = Arc::new(NearestFallback::fit(&ds, &train, 3));

    // Serve over the dataset's own database, with requests drawn from its
    // query log so the fallback has meaningful neighbors.
    let mut corpus: Vec<String> = ds.queries.iter().map(|q| q.sql.clone()).collect();
    for f in 0..ds.db.fact_count() {
        if let Some((table, row)) = ds.db.fact(FactId(f as u32)) {
            corpus.push(format!("{table} {}", row.tuple_string()));
        }
    }
    let reqs: Vec<RankRequest> = ds
        .queries
        .iter()
        .filter(|q| !q.tuples.is_empty())
        .take(4)
        .map(|q| {
            let t = &q.tuples[0];
            RankRequest {
                query_sql: q.sql.clone(),
                tuple: q.result.tuples[t.tuple_idx].clone(),
                lineage: t.shapley.keys().copied().collect(),
                deadline: None,
                slo: None,
            }
        })
        .collect();
    assert!(reqs.len() >= 3, "dataset produced too few servable queries");
    let bundle = bundle_from_db(ds.db.clone(), &corpus);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    // The first scoring hit fails; breaker_failures = 1 opens immediately.
    let spec = FaultSpec::new().rule(FaultRule::at("serve.worker.score", FaultKind::Error, &[0]));
    let plan = Arc::new(FaultPlan::compile(13, &spec));
    let cooldown = Duration::from_millis(500);
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            breaker_failures: 1,
            breaker_cooldown: cooldown,
            ..Default::default()
        },
        plan,
        Some(fallback.clone()),
    );
    let handle = server.handle();

    // 1. The injected failure surfaces typed and trips the breaker.
    match handle.rank(reqs[0].clone()) {
        Err(ServeError::Internal(msg)) => assert!(msg.contains("injected"), "{msg:?}"),
        other => panic!("expected injected Internal error, got {other:?}"),
    }
    assert_eq!(server.breaker_state(), BreakerState::Open);

    // 2. While open, requests are answered by the fallback, marked degraded,
    //    and carry exactly the nearest-queries scores (bit-identical to
    //    calling the fallback directly).
    let degraded = handle.rank(reqs[1].clone()).expect("fallback answers");
    assert!(degraded.degraded, "response must be marked degraded");
    assert!(!degraded.cached, "degraded responses are never cached");
    assert_eq!(
        degraded.tier, None,
        "degraded responses are no tier's answer and must not claim one"
    );
    let expected = fallback
        .score(&reqs[1].query_sql, &reqs[1].lineage)
        .expect("nearest fallback must answer a log query");
    assert_eq!(degraded.scores.len(), expected.len());
    for (a, b) in degraded.scores.iter().zip(&expected) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "degraded scores must be the fallback's"
        );
    }

    // 3. After the cooldown, the half-open probe takes the (now healthy)
    //    model path, succeeds, and closes the breaker: full fidelity again.
    std::thread::sleep(cooldown + Duration::from_millis(100));
    let recovered = handle.rank(reqs[2].clone()).expect("probe succeeds");
    assert!(!recovered.degraded, "model path is back");
    assert_bit_identical(&recovered, &serial[2]);
    assert_eq!(server.breaker_state(), BreakerState::Closed);
    server.shutdown();
}

/// With the breaker open and no fallback configured, requests fail with a
/// typed Internal error — never a hang, never a fabricated ranking.
#[test]
fn open_breaker_without_fallback_fails_typed() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let spec = FaultSpec::new().rule(FaultRule::at("serve.worker.score", FaultKind::Error, &[0]));
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            breaker_failures: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..Default::default()
        },
        Arc::new(FaultPlan::compile(1, &spec)),
        None,
    );
    let handle = server.handle();
    assert!(matches!(
        handle.rank(reqs[0].clone()),
        Err(ServeError::Internal(_))
    ));
    match handle.rank(reqs[1].clone()) {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("no fallback"), "unexpected message {msg:?}")
        }
        other => panic!("expected typed degraded error, got {other:?}"),
    }
    server.shutdown();
}

/// The uniform fallback keeps availability even with no training log: every
/// degraded response exists, is marked, and ranks in fact-id order (the
/// documented tie-break for all-equal scores).
#[test]
fn uniform_fallback_preserves_availability() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let spec = FaultSpec::new().rule(FaultRule::at("serve.worker.score", FaultKind::Error, &[0]));
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            breaker_failures: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..Default::default()
        },
        Arc::new(FaultPlan::compile(1, &spec)),
        Some(Arc::new(UniformFallback)),
    );
    let handle = server.handle();
    let _ = handle.rank(reqs[0].clone()); // trips the breaker
    let resp = handle
        .rank(reqs[1].clone())
        .expect("uniform always answers");
    assert!(resp.degraded);
    assert!(resp.scores.iter().all(|&s| s == 0.0));
    let mut sorted = resp.ranking.clone();
    sorted.sort_by_key(|f| f.0);
    assert_eq!(resp.ranking, sorted, "all-zero scores rank by fact id");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Wire chaos: torn frames, oversized lengths, proxy faults
// ---------------------------------------------------------------------------

/// Open a raw connection and complete the hello, leaving it in the framed
/// state where torn-frame handling lives.
fn greeted_stream(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&proto::encode_hello(proto::BINARY_VERSION))
        .expect("hello");
    let mut ack = [0u8; proto::HELLO_LEN];
    stream.read_exact(&mut ack).expect("hello ack");
    assert_eq!(proto::decode_hello(&ack), Ok(proto::BINARY_VERSION));
    stream
}

/// A client that dies mid-frame (header promises more bytes than ever
/// arrive) tears exactly its own connection; the listener and subsequent
/// connections are untouched.
#[test]
fn mid_frame_disconnect_only_kills_that_connection() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial = serial_answer(&bundle, &reqs[0]);
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    {
        let mut stream = greeted_stream(tcp.local_addr());
        stream
            .write_all(&100u32.to_le_bytes())
            .expect("header promising 100 bytes");
        stream.write_all(b"only ten b").expect("partial body");
        // Drop mid-frame: the server side sees UnexpectedEof and tears down.
    }

    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("fresh connection");
    let resp = client.rank(&reqs[0]).expect("listener still serving");
    assert_bit_identical(&resp, &serial);
    tcp.stop();
    server.shutdown();
}

/// An absurd declared frame length is rejected before any allocation; the
/// offending connection is closed, everyone else keeps going.
#[test]
fn oversized_length_prefix_tears_connection_not_listener() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = greeted_stream(tcp.local_addr());
    stream
        .write_all(&(ls_serve::MAX_FRAME + 1).to_le_bytes())
        .expect("oversized header");
    stream.flush().expect("flush");
    // The server must close this connection without reading a body.
    let mut buf = [0u8; 8];
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed, not answered");

    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("fresh connection");
    client.rank(&reqs[0]).expect("listener still serving");
    tcp.stop();
    server.shutdown();
}

/// Full wire chaos through the [`ChaosProxy`]: the seeded plan tears and
/// errors connections in both directions, and the retrying client still
/// gets every answer, each bit-identical to serial — reconnect + idempotent
/// resend hides transient transport faults completely.
#[test]
fn chaos_proxy_with_retries_still_bit_identical() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    // A bounded number of tears/errors on both directions: enough to force
    // several reconnects, few enough that retries (6 per call) always win.
    let spec = FaultSpec::new()
        .rule(FaultRule::every("proxy.s2c.read", FaultKind::Truncate, 9, 4).limit(2))
        .rule(FaultRule::every("proxy.c2s.read", FaultKind::Error, 11, 6).limit(2));
    let plan = Arc::new(FaultPlan::compile(31, &spec));
    let proxy = ChaosProxy::start(tcp.local_addr(), plan.clone()).expect("proxy");

    let policy = RetryPolicy {
        attempts: 6,
        backoff: ls_fault::Backoff::new(Duration::from_millis(2), Duration::from_millis(20), 31),
        deadline: None,
    };
    let mut client = TcpRankClient::connect_with(proxy.local_addr(), policy).expect("connect");
    for round in 0..3 {
        for (i, req) in reqs.iter().enumerate() {
            let resp = client
                .rank(req)
                .unwrap_or_else(|e| panic!("round {round} req {i}: {e}"));
            assert_bit_identical(&resp, &serial[i]);
        }
    }
    assert!(plan.fired() > 0, "proxy injected nothing");
    proxy.stop();
    tcp.stop();
    server.shutdown();
}

/// A retry policy with a deadline gives up in bounded time against a dead
/// endpoint, with a typed Transport error.
#[test]
fn retry_deadline_bounds_time_against_dead_endpoint() {
    // Bind-then-drop: the port exists but nothing listens.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let policy = RetryPolicy {
        attempts: 10,
        backoff: ls_fault::Backoff::new(Duration::from_millis(50), Duration::from_millis(200), 7),
        deadline: Some(Duration::from_millis(150)),
    };
    // The eager connect in connect_with must itself fail fast.
    assert!(TcpRankClient::connect_with(dead, policy).is_err());
}

// ---------------------------------------------------------------------------
// Concurrency: pause/resume under live submissions
// ---------------------------------------------------------------------------

/// Hammering rank() from many threads while pause()/resume() toggles
/// concurrently must lose no request and deadlock no thread: every
/// submission ends served (bit-identical) or typed-shed (Overloaded).
#[test]
fn pause_resume_under_concurrent_submissions() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handle = server.handle();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let handle = handle.clone();
                let reqs = &reqs;
                let serial = &serial;
                scope.spawn(move || {
                    let mut served = 0usize;
                    for k in 0..25 {
                        let i = (c * 25 + k) % reqs.len();
                        match handle.rank(reqs[i].clone()) {
                            Ok(resp) => {
                                served += 1;
                                assert_bit_identical(&resp, &serial[i]);
                            }
                            Err(ServeError::Overloaded) => {} // typed shed is fine
                            Err(other) => panic!("unexpected error {other:?}"),
                        }
                    }
                    served
                })
            })
            .collect();
        // Toggle pause/resume while the clients run.
        for _ in 0..30 {
            server.pause();
            std::thread::sleep(Duration::from_micros(300));
            server.resume();
            std::thread::sleep(Duration::from_micros(300));
        }
        server.resume(); // leave it running for the tail
        let served: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(served > 0, "pausing starved every request");
    });
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Chaos on the SLO-tiered answer path
// ---------------------------------------------------------------------------

/// Budgets calibrated like tests/tiered.rs against `SloPolicy::default()`
/// for the wide shape below.
const LOOSE: Duration = Duration::from_millis(100);
const MEDIUM: Duration = Duration::from_millis(1);
const TIGHT: Duration = Duration::from_micros(100);

fn wide_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "orders",
        &[("id", ColType::Int), ("item", ColType::Str)],
    ));
    db.create_table(TableSchema::new(
        "parts",
        &[("id", ColType::Int), ("name", ColType::Str)],
    ));
    for i in 0..32i64 {
        db.insert(
            "orders",
            vec![Value::Int(i), Value::Str(format!("item {i}"))],
        );
    }
    for i in 0..32i64 {
        db.insert(
            "parts",
            vec![Value::Int(i), Value::Str(format!("part {i}"))],
        );
    }
    db
}

fn wide_bundle() -> Arc<ModelBundle> {
    let corpus = vec![
        "SELECT item FROM orders JOIN parts ON orders.id = parts.id".to_string(),
        "orders parts item part id 0 1 2 3 4 5 6 7".to_string(),
    ];
    bundle_from_db(wide_db(), &corpus)
}

/// A wide-join request (30 two-fact derivations, 60 players).
fn wide_request(slo: Option<Duration>) -> RankRequest {
    let derivations: Vec<ls_relational::Monomial> = (0..30u32)
        .map(|i| ls_relational::Monomial::from_facts(vec![FactId(i), FactId(32 + i)]))
        .collect();
    let lineage: Vec<FactId> = derivations
        .iter()
        .flat_map(|m| m.facts().to_vec())
        .collect();
    RankRequest {
        query_sql: "SELECT item FROM orders JOIN parts ON orders.id = parts.id".into(),
        tuple: OutputTuple {
            values: vec![Value::Str("item 0".into())],
            derivations,
        },
        lineage,
        deadline: None,
        slo,
    }
}

/// A chain-shaped lineage the pairing request never warms (see
/// tests/tiered.rs): its cold probes exercise the sampled tier.
fn chain_request(slo: Option<Duration>) -> RankRequest {
    let derivations: Vec<ls_relational::Monomial> = (0..30u32)
        .map(|i| ls_relational::Monomial::from_facts(vec![FactId(i), FactId(i + 1)]))
        .collect();
    RankRequest {
        query_sql: "SELECT item FROM orders JOIN parts ON orders.id = parts.id".into(),
        tuple: OutputTuple {
            values: vec![Value::Str("item 1".into())],
            derivations,
        },
        lineage: (0..31).map(FactId).collect(),
        deadline: None,
        slo,
    }
}

/// A fixed request schedule covering all three tiers, run twice against the
/// same store directory: phase 1 cold (compiles + persists), phase 2 on a
/// fresh store instance (the exact tier *loads* from disk — the injection
/// point for `circuit.store.read` faults).
fn tiered_schedule() -> Vec<RankRequest> {
    vec![
        chain_request(Some(TIGHT)), // cold chain probe → sampled
        wide_request(Some(MEDIUM)), // model pipeline → learned
        wide_request(Some(LOOSE)),  // circuit store → exact
        wide_request(Some(TIGHT)),  // warm wide shape → exact
        chain_request(Some(TIGHT)), // sampled never persists → sampled again
        wide_request(Some(MEDIUM)),
        wide_request(Some(LOOSE)),
    ]
}

fn run_tiered_phases(
    bundle: &Arc<ModelBundle>,
    dir: &std::path::Path,
    injector: Arc<dyn ls_fault::Injector>,
) -> (Vec<Vec<Result<RankResponse, ServeError>>>, u64) {
    let mut phases = Vec::new();
    let mut load_errors = 0;
    for _phase in 0..2 {
        let store = Arc::new(
            ls_circuit::CircuitStore::open_with(dir, 16, injector.clone()).expect("store"),
        );
        let server = Server::start_full(
            bundle.clone(),
            ServeConfig {
                workers: 2,
                cache_capacity: 16,
                ..Default::default()
            },
            injector.clone(),
            None,
            Some(store.clone()),
        );
        let handle = server.handle();
        phases.push(
            tiered_schedule()
                .into_iter()
                .map(|req| handle.rank(req))
                .collect(),
        );
        load_errors += store.stats().load_errors;
        server.shutdown();
    }
    (phases, load_errors)
}

/// The chaos invariant extended to the tiered path: SLO-budgeted requests
/// under injected store-read corruption and scoring faults must each end in
/// a typed error or a response bit-identical — scores, ranking, **and tier
/// tag** — to the fault-free run at the same schedule position. Store-read
/// faults must be *invisible* in the responses (the store falls back to a
/// fresh compile with identical scores); only scoring faults may surface,
/// and only as typed `Internal` errors.
#[test]
fn tiered_chaos_typed_error_or_bit_identical() {
    let bundle = wide_bundle();

    let baseline_dir = std::env::temp_dir().join(format!(
        "ls-chaos-tiered-base-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let chaos_dir = std::env::temp_dir().join(format!(
        "ls-chaos-tiered-fault-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    for d in [&baseline_dir, &chaos_dir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("temp dir");
    }

    let (baseline, base_errors) =
        run_tiered_phases(&bundle, &baseline_dir, Arc::new(ls_fault::NoFaults));
    assert_eq!(base_errors, 0, "baseline must be fault-free");
    for (p, phase) in baseline.iter().enumerate() {
        for (i, r) in phase.iter().enumerate() {
            assert!(r.is_ok(), "baseline phase {p} request {i} failed: {r:?}");
        }
    }
    // The schedule really does cover all three tiers.
    let tiers: Vec<_> = baseline
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().ok().and_then(|resp| resp.tier))
        .collect();
    for (tier, label) in [
        (Tier::Exact, "exact"),
        (Tier::Learned, "learned"),
        (Tier::Sampled, "sampled"),
    ] {
        assert!(tiers.contains(&tier), "no {label}-tier coverage");
    }

    // Corrupt the first store reads (phase 2's disk load) and sprinkle
    // scoring faults over the learned pipeline.
    let spec = FaultSpec::new()
        .rule(FaultRule::every("circuit.store.read", FaultKind::Corrupt, 1, 0).limit(2))
        .rule(FaultRule::bernoulli(
            "serve.worker.score",
            FaultKind::Error,
            150,
        ));
    let plan = Arc::new(FaultPlan::compile(47, &spec));
    let (chaotic, load_errors) = run_tiered_phases(&bundle, &chaos_dir, plan.clone());
    assert!(plan.fired() > 0, "plan injected nothing");
    assert!(
        load_errors >= 1,
        "the corrupted store read never fired — phase 2 did not load from disk"
    );

    let mut ok = 0usize;
    let mut failed = 0usize;
    for (p, (base_phase, chaos_phase)) in baseline.iter().zip(&chaotic).enumerate() {
        for (i, (base, chaos)) in base_phase.iter().zip(chaos_phase).enumerate() {
            let want = base.as_ref().expect("baseline all ok");
            match chaos {
                Ok(resp) => {
                    ok += 1;
                    assert!(!resp.degraded, "no breaker configured in this run");
                    assert_eq!(
                        resp.tier, want.tier,
                        "phase {p} request {i}: tier tag diverged under faults"
                    );
                    assert_eq!(resp.ranking, want.ranking, "phase {p} request {i}");
                    for (a, b) in resp.scores.iter().zip(&want.scores) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "phase {p} request {i}: score not bit-identical ({a} vs {b})"
                        );
                    }
                }
                Err(ServeError::Internal(_)) => failed += 1,
                Err(other) => {
                    panic!("phase {p} request {i}: untyped/unexpected error {other:?}")
                }
            }
        }
    }
    assert!(ok > 0, "every tiered request failed under chaos");
    eprintln!("tiered chaos: {ok} ok, {failed} typed failures, {load_errors} store load errors");

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
