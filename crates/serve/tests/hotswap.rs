//! Zero-downtime snapshot hot-swap, and the serve-side online-learning
//! engine end to end.
//!
//! The contract under test: [`ls_serve::ServeHandle::swap_model`] may land
//! at any moment, under concurrent load, and
//!
//! * **zero requests drop** — every rank call admitted before, during, or
//!   after a swap returns `Ok`;
//! * **no response mixes snapshots** — each is bit-identical to the serial
//!   answer of *one* of the snapshots (whichever one scored it);
//! * **the cache never replays a retired snapshot** — once the swap
//!   returns, every response matches the new snapshot.

use ls_core::{
    save_model, FeedbackRecord, LearnShapleyModel, OnlineConfig, OnlineTrainer, Tokenizer,
};
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    ModelBundle, OnlineOptions, RankRequest, ServeConfig, ServeError, Server, TcpRankClient,
    TcpServer,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_LEN: usize = 48;

fn fixture_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[("title", ColType::Str), ("year", ColType::Int)],
    ));
    let titles = [
        "Memento", "Dune", "Arrival", "Heat", "Alien", "Solaris", "Gattaca", "Brazil",
    ];
    for (i, t) in titles.iter().enumerate() {
        db.insert(
            "movies",
            vec![Value::Str(t.to_string()), Value::Int(1980 + i as i64 * 4)],
        );
    }
    db
}

fn fixture_tokenizer() -> Tokenizer {
    let corpus = [
        "SELECT title FROM movies WHERE year > 1990",
        "movies Memento Dune Arrival Heat Alien Solaris Gattaca Brazil",
    ];
    Tokenizer::build(corpus.iter().copied(), 600)
}

fn fixture_model(tokenizer: &Tokenizer, seed: u64) -> LearnShapleyModel {
    LearnShapleyModel::new(EncoderConfig {
        seed,
        ..EncoderConfig::small_ablation(tokenizer.vocab_size(), MAX_LEN)
    })
}

/// A serving bundle whose weights are seeded by `seed` — distinct seeds give
/// distinguishable scores, which is what lets the assertions below tell the
/// snapshots apart.
fn fixture_bundle(seed: u64) -> Arc<ModelBundle> {
    let tokenizer = fixture_tokenizer();
    let mut model = fixture_model(&tokenizer, seed);
    let dir = tmp_dir(&format!("bundle-{seed}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.lsmd");
    save_model(&mut model, &tokenizer, &path).expect("save");
    let bundle = ModelBundle::load(&path, fixture_db(), MAX_LEN).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(bundle)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ls-hotswap-{tag}-{}", std::process::id()))
}

fn requests(db: &Database) -> Vec<RankRequest> {
    let n = db.fact_count() as u32;
    (0..6u32)
        .map(|i| RankRequest {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1980 + i),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("Title {i}")), Value::Int(i as i64)],
                derivations: Vec::new(),
            },
            lineage: (0..5).map(|j| FactId((i * 3 + j * 2) % n)).collect(),
            deadline: None,
            slo: None,
        })
        .collect()
}

/// The serial model path's scores for `req`, as raw f64 bit patterns.
fn serial_bits(bundle: &ModelBundle, req: &RankRequest) -> Vec<u64> {
    let scores = ls_core::predict_scores(
        &bundle.model,
        &bundle.tokenizer,
        &bundle.db,
        &req.query_sql,
        &req.tuple,
        &req.lineage,
        bundle.max_len,
    );
    req.lineage.iter().map(|f| scores[f].to_bits()).collect()
}

#[test]
fn concurrent_swaps_drop_nothing_and_never_mix_snapshots() {
    let a = fixture_bundle(21);
    let b = fixture_bundle(22);
    let reqs = requests(&a.db);
    let answers_a: Vec<Vec<u64>> = reqs.iter().map(|r| serial_bits(&a, r)).collect();
    let answers_b: Vec<Vec<u64>> = reqs.iter().map(|r| serial_bits(&b, r)).collect();
    // The seeds must actually disagree, or "never mixes" is vacuous.
    assert_ne!(answers_a, answers_b, "fixture snapshots are identical");

    let server = Server::start(
        a.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    let clients: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            let reqs = reqs.clone();
            let answers_a = answers_a.clone();
            let answers_b = answers_b.clone();
            std::thread::spawn(move || {
                for i in 0..150 {
                    let which = (t + i) % reqs.len();
                    let resp = handle
                        .rank(reqs[which].clone())
                        .expect("no request may drop during a swap");
                    let bits: Vec<u64> = resp.scores.iter().map(|s| s.to_bits()).collect();
                    assert!(
                        bits == answers_a[which] || bits == answers_b[which],
                        "response for request {which} matches neither snapshot \
                         (mixed or corrupted scores): {bits:?}"
                    );
                }
            })
        })
        .collect();

    // Swap back and forth under load; end on B.
    let mut swaps = 0;
    for round in 0..20 {
        std::thread::sleep(Duration::from_millis(2));
        let next = if round % 2 == 0 { a.clone() } else { b.clone() };
        let generation = handle.swap_model(next);
        swaps += 1;
        assert_eq!(generation, swaps, "generations must count every swap");
    }
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(handle.model_generation(), swaps);

    // Quiesced on B (the 20th swap): every response — cached or fresh — must
    // now be B's, including keys the cache held for A before the swaps.
    for (i, req) in reqs.iter().enumerate() {
        for _ in 0..2 {
            let resp = handle.rank(req.clone()).expect("post-swap rank");
            let bits: Vec<u64> = resp.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(
                bits, answers_b[i],
                "request {i} answered by a retired snapshot after the swap"
            );
        }
    }
    server.shutdown();
}

#[test]
fn swap_clears_the_cache_atomically() {
    let a = fixture_bundle(31);
    let b = fixture_bundle(32);
    let reqs = requests(&a.db);
    let server = Server::start(a.clone(), ServeConfig::default());
    let handle = server.handle();

    // Prime the cache with A's answers.
    for req in &reqs {
        let _ = handle.rank(req.clone()).expect("prime");
    }
    let cached = handle.rank(reqs[0].clone()).expect("cached");
    assert!(cached.cached, "second identical request must hit the cache");

    handle.swap_model(b.clone());
    let fresh = handle.rank(reqs[0].clone()).expect("post-swap");
    assert!(
        !fresh.cached,
        "the swap must clear cached entries of the old snapshot"
    );
    let want = serial_bits(&b, &reqs[0]);
    let bits: Vec<u64> = fresh.scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, want, "post-swap answer must come from the new model");
    server.shutdown();
}

/// Feedback appended through the handle flows WAL → trainer → published
/// snapshot → hot-swap, and the published state survives a server restart.
#[test]
fn online_engine_trains_publishes_swaps_and_recovers() {
    let bundle = fixture_bundle(41);
    let wal_dir = tmp_dir("online-wal");
    let snap_dir = tmp_dir("online-snap");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let online_cfg = OnlineConfig {
        batch: 4,
        lr: 1e-3,
        max_len: MAX_LEN,
        seed: 9,
    };
    let opts = OnlineOptions {
        wal_dir: wal_dir.clone(),
        snapshot_dir: snap_dir.clone(),
        publish_every: 4,
        poll: Duration::from_millis(5),
    };
    let feedback: Vec<FeedbackRecord> = (0..8)
        .map(|i| FeedbackRecord {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1980 + i),
            tuple_fact: format!("(Title {i}) | movies({i}, 'Memento', 2000)"),
            target: 0.25 * (i % 4) as f32,
        })
        .collect();

    let server = Server::start(bundle.clone(), ServeConfig::default());
    let handle = server.handle();
    // Feedback before enable_online fails typed, not silently.
    assert!(matches!(
        handle.feedback(&feedback[0]),
        Err(ServeError::BadRequest(_))
    ));

    let trainer = OnlineTrainer::new(
        fixture_model(&bundle.tokenizer, 41),
        fixture_tokenizer(),
        online_cfg.clone(),
    );
    let online = server.enable_online(trainer, opts.clone()).expect("enable");
    assert!(
        server
            .enable_online(
                OnlineTrainer::new(
                    fixture_model(&bundle.tokenizer, 41),
                    fixture_tokenizer(),
                    online_cfg.clone(),
                ),
                opts.clone(),
            )
            .is_err(),
        "second enable_online must fail"
    );

    for rec in &feedback {
        handle.feedback(rec).expect("append feedback");
    }
    assert_eq!(online.appended(), feedback.len() as u64);

    // 8 records / batch 4 / publish_every 4 → at least one publish + swap.
    let deadline = Instant::now() + Duration::from_secs(30);
    while online.published_generation() == 0 {
        assert!(Instant::now() < deadline, "trainer never published");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(online.trained() >= 4);
    assert!(handle.model_generation() >= 1, "publish must hot-swap");
    let state = handle.state_json();
    assert!(
        state.contains("\"online\":{\"appended\":"),
        "state must expose online progress: {state}"
    );

    // Serving still answers on the swapped-in snapshot.
    let req = requests(&bundle.db).remove(0);
    handle.rank(req).expect("rank after online swap");

    // Feedback over TCP lands in the same WAL.
    let tcp = TcpServer::start(handle.clone(), "127.0.0.1:0").expect("tcp");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("client");
    let lsn = client.feedback(&feedback[0]).expect("tcp feedback");
    assert_eq!(
        lsn,
        feedback.len() as u64,
        "LSNs are dense across transports"
    );
    tcp.stop();

    // Read only after shutdown has joined the trainer: until then it may
    // still publish, and the restart below must see the final generation.
    server.shutdown();
    let generation_before = online.published_generation();

    // Restart against the same directories: the published snapshot is
    // swapped back in at enable time and the trainer resumes its watermark.
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let trainer = OnlineTrainer::new(
        fixture_model(&bundle.tokenizer, 41),
        fixture_tokenizer(),
        online_cfg,
    );
    let online = server.enable_online(trainer, opts).expect("re-enable");
    assert_eq!(online.published_generation(), generation_before);
    assert!(
        server.handle().model_generation() >= 1,
        "recovery must swap the published snapshot in"
    );
    assert!(
        online.trained() >= 4,
        "trainer checkpoint must restore the consumption watermark"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// Perf probe backing the EXPERIMENTS.md hot-swap table (not an
/// assertion). Measures `swap_model` call latency and rank latency with
/// swaps landing every ~2ms under 4-client closed-loop load. Run with:
///
/// ```bash
/// cargo test -p ls-serve --release --test hotswap -- --ignored --nocapture
/// ```
#[test]
#[ignore = "perf probe, run with --ignored --nocapture"]
fn hot_swap_latency_probe() {
    let a = fixture_bundle(51);
    let b = fixture_bundle(52);
    let reqs = requests(&a.db);
    let server = Server::start(
        a.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let results = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|t| {
                let handle = handle.clone();
                let reqs = reqs.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut i = t;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let req = reqs[i % reqs.len()].clone();
                        i += 1;
                        let t0 = Instant::now();
                        handle.rank(req).expect("rank under swaps");
                        lat.push(t0.elapsed());
                    }
                    lat
                })
            })
            .collect();

        let mut swap_lat = Vec::with_capacity(200);
        for round in 0..200 {
            std::thread::sleep(Duration::from_millis(2));
            let next = if round % 2 == 0 { b.clone() } else { a.clone() };
            let t0 = Instant::now();
            handle.swap_model(next);
            swap_lat.push(t0.elapsed());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let rank_lat: Vec<Duration> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect();
        (swap_lat, rank_lat)
    });
    let (mut swap_lat, mut rank_lat) = results;
    for (label, lat) in [
        ("swap_model call", &mut swap_lat),
        ("rank during swaps", &mut rank_lat),
    ] {
        lat.sort();
        let pct = |p: f64| lat[((lat.len() as f64 - 1.0) * p).round() as usize];
        println!(
            "{label:<24} n {:>6}  p50 {:>9.3?}  p99 {:>9.3?}  max {:>9.3?}",
            lat.len(),
            pct(0.50),
            pct(0.99),
            lat.last().copied().unwrap_or(Duration::ZERO),
        );
    }
    server.shutdown();
}
