//! Wire-protocol tests: decoder robustness, the hello version check, and
//! equivalence with the serial path.
//!
//! Three contracts are pinned here:
//!
//! 1. **The decoder never panics.** Arbitrary byte soups and every
//!    truncation of a valid frame must come back as a typed [`FrameError`],
//!    not a panic or a bogus decode — the server feeds it bytes straight
//!    off the network.
//! 2. **The hello is a version check, never a negotiation.** A connection
//!    that does not open with `LSBP` is closed unanswered while the
//!    listener keeps serving, and a client facing a bad ack fails with a
//!    typed `Transport` error instead of switching codecs.
//! 3. **The wire is invisible in the answers.** Requests served over TCP
//!    yield scores bit-identical to the serial oracle and the same ranking,
//!    on the epoll and poll backends, with one shard or several, pipelined
//!    or not.

use ls_core::{save_model, LearnShapleyModel, Tokenizer};
use ls_fault::NoFaults;
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    proto, Backend, FrameError, ModelBundle, RankRequest, RankResponse, ServeConfig, ServeError,
    Server, TcpOptions, TcpRankClient, TcpServer, Tier,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

const MAX_LEN: usize = 48;

// ---------------------------------------------------------------------------
// Fixture (mirrors tests/serve.rs: persist a small model, load a bundle)
// ---------------------------------------------------------------------------

fn fixture_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[("title", ColType::Str), ("year", ColType::Int)],
    ));
    db.create_table(TableSchema::new(
        "actors",
        &[("name", ColType::Str), ("movie", ColType::Str)],
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
    for (i, t) in titles.iter().enumerate().take(6) {
        db.insert(
            "actors",
            vec![Value::Str(format!("Actor {i}")), Value::Str(t.to_string())],
        );
    }
    db
}

fn fixture_bundle() -> Arc<ModelBundle> {
    let db = fixture_db();
    let corpus = [
        "SELECT title FROM movies WHERE year > 1990",
        "SELECT name FROM actors WHERE movie = Dune",
        "movies Memento Dune Arrival Heat Alien Solaris Gattaca Brazil Akira Contact Moon Primer",
        "actors Actor 0 1 2 3 4 5 1980 1995 2010",
    ];
    let tokenizer = Tokenizer::build(corpus.iter().copied(), 600);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ));
    let dir = std::env::temp_dir().join(format!(
        "ls-wire-test-{}-{:?}",
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
// 1. Decoder robustness: typed errors, never panics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes through every binary decode entry point: the only
    /// acceptable outcomes are a successful decode or a typed [`FrameError`].
    /// (Calling them at all is the assertion — a panic fails the test.)
    #[test]
    fn binary_decoders_never_panic_on_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = proto::decode_binary_frame(&bytes);
        let _ = proto::decode_binary_response(&bytes);
        let _ = proto::decode_binary_feedback_response(&bytes);
        let _ = proto::decode_binary_admin_response(&bytes);
    }

    /// Valid request frames truncated at every prefix length must decode to
    /// a typed error, never a panic and never a bogus success.
    #[test]
    fn truncated_request_frames_yield_typed_errors(seed in 0u32..64) {
        let req = RankRequest {
            query_sql: format!("SELECT x FROM t WHERE y > {seed}"),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("v{seed}")), Value::Int(seed as i64)],
                derivations: Vec::new(),
            },
            lineage: (0..(seed % 7)).map(FactId).collect(),
            deadline: None,
            slo: None,
        };
        let frame = proto::encode_binary_request(seed as u64, &req, None);
        let payload = &frame[4..]; // strip the length prefix
        prop_assert!(proto::decode_binary_frame(payload).is_ok());
        for cut in 0..payload.len() {
            // The Err type IS FrameError — any Err is a typed rejection.
            prop_assert!(
                proto::decode_binary_frame(&payload[..cut]).is_err(),
                "cut {cut}: truncated frame decoded",
            );
        }
    }

    /// Same for response frames, through the client-side decoder.
    #[test]
    fn truncated_response_frames_yield_typed_errors(seed in 0u32..64) {
        let resp = RankResponse {
            scores: (0..(seed % 5) as usize).map(|i| (i as f64) * 0.25 - 0.5).collect(),
            ranking: (0..(seed % 5)).map(FactId).collect(),
            cached: seed % 2 == 0,
            degraded: false,
            stages: None,
            tier: None,
        };
        let frame = proto::encode_binary_response(seed as u64, &Ok(resp));
        let payload = &frame[4..];
        prop_assert!(proto::decode_binary_response(payload).is_ok());
        for cut in 0..payload.len() {
            prop_assert!(
                proto::decode_binary_response(&payload[..cut]).is_err(),
                "cut {cut}: truncated frame decoded",
            );
        }
    }
}

#[test]
fn hello_rejects_wrong_magic_and_version_mismatch_is_visible() {
    // Round trip at the current version.
    let hello = proto::encode_hello(proto::BINARY_VERSION);
    assert_eq!(proto::decode_hello(&hello), Ok(proto::BINARY_VERSION));
    // A future version decodes (the caller decides compatibility).
    assert_eq!(proto::decode_hello(&proto::encode_hello(7)), Ok(7));
    // Wrong magic is a typed error.
    let mut bad = hello;
    bad[0] ^= 0xFF;
    assert!(matches!(
        proto::decode_hello(&bad),
        Err(FrameError::BadMagic(_))
    ));
    // Read as a length prefix the magic exceeds MAX_FRAME, so no peer that
    // opens with a bare frame can ever pass the server's hello check.
    let as_len = u32::from_le_bytes(proto::MAGIC);
    assert!(as_len > proto::MAX_FRAME, "magic must exceed MAX_FRAME");
}

// ---------------------------------------------------------------------------
// 2. The hello version check
// ---------------------------------------------------------------------------

/// A fake server that answers each connection's hello with the next ack
/// from `acks` (then hangs up). Joining it yields every connection's first
/// `HELLO_LEN` bytes.
fn spawn_scripted_acker(
    acks: Vec<[u8; proto::HELLO_LEN]>,
) -> (SocketAddr, JoinHandle<Vec<[u8; proto::HELLO_LEN]>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let mut openers = Vec::new();
        for (ack, stream) in acks.into_iter().zip(listener.incoming()) {
            let mut stream = stream.expect("accept");
            let mut opener = [0u8; proto::HELLO_LEN];
            stream.read_exact(&mut opener).expect("read opener");
            openers.push(opener);
            let _ = stream.write_all(&ack);
            // Dropping the stream hangs up after the ack.
        }
        openers
    });
    (addr, server)
}

/// Both halves of the hello contract. Server side: an opener that is not
/// `LSBP` — here an old-style JSON frame — is closed without an answer,
/// and the listener keeps serving. Client side: a wrong-magic or version-0
/// ack is a typed `Transport` error carrying the [`FrameError`] text, and
/// every reconnect opens with the hello again — there is nothing to fall
/// back to.
#[test]
fn hello_is_required_and_a_bad_ack_is_a_typed_transport_error() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial = serial_answer(&bundle, &reqs[0]);
    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    let json = br#"{"id":1,"query":"SELECT title FROM movies","tuple":[],"lineage":[0]}"#;
    stream
        .write_all(&(json.len() as u32).to_le_bytes())
        .expect("length prefix");
    stream.write_all(json).expect("json body");
    // Closed means EOF or a reset; an answer or a timeout fails.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("a non-LSBP opener must be closed, not answered: {other:?}"),
    }
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("fresh connection");
    assert_bit_identical(
        &client.rank(&reqs[0]).expect("listener still serving"),
        &serial,
    );
    tcp.stop();
    server.shutdown();

    // Eager connect against a wrong-magic ack: the io::Error carries the
    // typed FrameError.
    let hello = proto::encode_hello(proto::BINARY_VERSION);
    let (addr, fake) = spawn_scripted_acker(vec![*b"LSBQ\x01\x00"]);
    let err = TcpRankClient::connect(addr)
        .err()
        .expect("bad ack must fail connect");
    assert_eq!(
        proto::frame_error(&err),
        Some(&FrameError::BadMagic(*b"LSBQ"))
    );
    assert_eq!(fake.join().expect("fake server"), [hello]);

    // A good first ack, then the server hangs up; reconnects meet a
    // wrong-magic ack and then a version-0 ack. Each call fails typed.
    let (addr, fake) = spawn_scripted_acker(vec![hello, *b"LSBQ\x01\x00", proto::encode_hello(0)]);
    let mut client = TcpRankClient::connect(addr).expect("good ack connects");
    match client.rank(&reqs[0]) {
        Err(ServeError::Transport(_)) => {}
        other => panic!("expected Transport after hang-up, got {other:?}"),
    }
    let bad_magic = FrameError::BadMagic(*b"LSBQ").to_string();
    match client.rank(&reqs[0]) {
        Err(ServeError::Transport(msg)) => assert!(msg.contains(&bad_magic), "{msg}"),
        other => panic!("expected Transport on a wrong-magic ack, got {other:?}"),
    }
    let version0 = FrameError::UnsupportedVersion(0).to_string();
    match client.rank(&reqs[0]) {
        Err(ServeError::Transport(msg)) => assert!(msg.contains(&version0), "{msg}"),
        other => panic!("expected Transport on a version-0 ack, got {other:?}"),
    }
    let openers = fake.join().expect("fake server");
    assert_eq!(openers.len(), 3, "one connection per ack");
    assert!(
        openers.iter().all(|o| *o == hello),
        "every connection must open with the hello: {openers:?}"
    );
}

// ---------------------------------------------------------------------------
// 3. Equivalence with the serial path: backends, shards, pipelining
// ---------------------------------------------------------------------------

/// The differential contract: every request served over TCP is
/// bit-identical to the serial oracle.
#[test]
fn tcp_answers_are_bit_identical_to_serial() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");
    for (req, oracle) in reqs.iter().zip(&serial) {
        assert_bit_identical(&client.rank(req).expect("rank"), oracle);
    }
    tcp.stop();
    server.shutdown();
}

/// The poll(2) backend with two shards serves the same answers — the
/// fallback path gets real coverage, not just the platform default.
#[test]
fn poll_backend_two_shards_round_trip() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start_opts(
        server.handle(),
        "127.0.0.1:0",
        Arc::new(NoFaults),
        TcpOptions {
            shards: 2,
            backend: Some(Backend::Poll),
            ..TcpOptions::default()
        },
    )
    .expect("bind poll backend");
    let addr = tcp.local_addr();

    // Several clients so both shards see connections (round-robin accept).
    let mut clients: Vec<TcpRankClient> = (0..4)
        .map(|_| TcpRankClient::connect(addr).expect("client"))
        .collect();
    for (i, (req, oracle)) in reqs.iter().zip(&serial).enumerate() {
        let client = &mut clients[i % 4];
        assert_bit_identical(&client.rank(req).expect("rank"), oracle);
    }
    tcp.stop();
    server.shutdown();
}

/// Pipelining: many requests written back-to-back on one raw binary
/// connection, responses read afterward. Every response id must map to a
/// request and carry that request's answer — no mixing, no reordering of
/// payloads across ids.
#[test]
fn pipelined_binary_requests_never_mix() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    stream
        .write_all(&proto::encode_hello(proto::BINARY_VERSION))
        .expect("hello");
    let mut ack = [0u8; proto::HELLO_LEN];
    stream.read_exact(&mut ack).expect("hello ack");
    assert_eq!(proto::decode_hello(&ack), Ok(proto::BINARY_VERSION));

    // Burst: ids 10..10+n, two rounds through the request set, all written
    // before any response is read.
    let n = reqs.len() * 2;
    for i in 0..n {
        let id = 10 + i as u64;
        let frame = proto::encode_binary_request(id, &reqs[i % reqs.len()], None);
        stream.write_all(&frame).expect("write");
    }
    let mut reader = std::io::BufReader::new(stream);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let payload = proto::read_frame(&mut reader)
            .expect("read")
            .expect("eof before all responses");
        let (id, result) = proto::decode_binary_response(&payload).expect("decode");
        let i = (id - 10) as usize;
        assert!(i < n, "unknown response id {id}");
        assert!(!seen[i], "duplicate response for id {id}");
        seen[i] = true;
        assert_bit_identical(&result.expect("rank ok"), &serial[i % reqs.len()]);
    }
    assert!(seen.iter().all(|&s| s), "missing responses");
    tcp.stop();
    server.shutdown();
}

/// Garbage inside a well-formed binary frame gets a typed id-0 error reply
/// and the connection keeps serving — only torn framing poisons it.
#[test]
fn binary_garbage_frame_gets_typed_reply_connection_survives() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial = serial_answer(&bundle, &reqs[0]);

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    stream
        .write_all(&proto::encode_hello(proto::BINARY_VERSION))
        .expect("hello");
    let mut ack = [0u8; proto::HELLO_LEN];
    stream.read_exact(&mut ack).expect("hello ack");

    // A correctly length-prefixed frame whose payload is junk.
    let junk = [0xEEu8; 13];
    stream
        .write_all(&(junk.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(&junk).expect("junk");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let payload = proto::read_frame(&mut reader)
        .expect("read reply")
        .expect("server must reply, not hang up");
    let (id, result) = proto::decode_binary_response(&payload).expect("typed reply");
    assert_eq!(id, 0, "garbage frames are answered under the sentinel id");
    assert!(
        matches!(result, Err(ls_serve::ServeError::BadRequest(_))),
        "expected BadRequest, got {result:?}"
    );

    // The same connection still serves a real request afterward.
    stream
        .write_all(&proto::encode_binary_request(42, &reqs[0], None))
        .expect("write real request");
    let payload = proto::read_frame(&mut reader)
        .expect("read")
        .expect("connection should have survived the garbage frame");
    let (id, result) = proto::decode_binary_response(&payload).expect("decode");
    assert_eq!(id, 42);
    assert_bit_identical(&result.expect("rank ok"), &serial);
    tcp.stop();
    server.shutdown();
}
