//! The traced run: per-layer metrics, measured from outside by timing the
//! benchmark's own calls into each crate's public functions, plus the
//! telemetry tax of the run's workload.
//!
//! Every traced run prints every metric of [`METRICS`]: each layer is
//! probed on the traffic of the workload it serves (see `README.md` for
//! the layer → end-to-end map). The spans come back with the outcome.

use crate::gen::{self, TmpDir, MAX_LEN};
use crate::rank::{self, Checker, Pass, RankEnv};
use crate::replay::{self, ReplayEnv};
use crate::span::Tracer;
use crate::stats::{self, median};
use crate::{label, Metric, Outcome, RunConfig, Tally, Workload};
use ls_core::{render_featured_hoisted, render_tuple, split_words, FeedbackRecord, OnlineTrainer};
use ls_nn::kernels::{gemm, Op};
use ls_nn::{
    EncoderBlock, FeedForward, InferScratch, LayerNorm, Linear, MultiHeadAttention, Tensor,
};
use ls_relational::FactId;
use ls_serve::{proto, RankResponse};
use ls_wal::WalOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric, in print order, with its unit.
pub const METRICS: [(&str, &str); 41] = [
    ("serve.stage.probe_ms", "ms"),
    ("serve.stage.queue_ms", "ms"),
    ("serve.stage.batch_ms", "ms"),
    ("serve.stage.score_ms", "ms"),
    ("serve.stage.other_ms", "ms"),
    ("serve.batch_facts", "count"),
    ("serve.wire_ms", "ms"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.bytes_in_per_req", "B"),
    ("serve.bytes_out_per_req", "B"),
    ("serve.cache_hit_ratio", "ratio"),
    ("core.context_us", "us"),
    ("core.render_us", "us"),
    ("core.tokenize_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.tokens_per_fact", "count"),
    ("nn.attention_us", "us"),
    ("nn.ffn_us", "us"),
    ("nn.norm_us", "us"),
    ("nn.block_us", "us"),
    ("nn.head_us", "us"),
    ("nn.gemm_gflops", "GFLOP/s"),
    ("nn.gemm_calls_per_fact", "count"),
    ("nn.train_forward_us", "us"),
    ("nn.train_backward_us", "us"),
    ("relational.evaluate_us", "us"),
    ("relational.clauses_per_lineage", "count"),
    ("provenance.compile_us", "us"),
    ("provenance.circuit_nodes", "count"),
    ("provenance.memo_hit_ratio", "ratio"),
    ("shapley.exact_us", "us"),
    ("shapley.players", "count"),
    ("par.speedup", "ratio"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.replay_ms", "ms"),
    ("core.online.decode_us", "us"),
    ("core.online.step_ms", "ms"),
    ("core.online.publish_ms", "ms"),
    ("obs.tax_pct", "%"),
];

/// Query logs (per database) the labeling probe runs.
const LABEL_LOGS: u64 = 2;
/// Samples the training forward/backward probe runs.
const TRAIN_SAMPLES: usize = 200;
/// Token lengths the standalone module probe sweeps.
const MODULE_LENGTHS: usize = 64;
/// Cap on the traced warm pass, which would otherwise record hundreds of
/// thousands of spans.
const WARM_TRACED_REQUESTS: usize = 20_000;
/// Calls per module span (so span overhead stays out of the figure).
const MODULE_REPS: usize = 20;

type Values = HashMap<&'static str, f64>;

/// Run `f` with the program's own telemetry on, as a traced deployment
/// would.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
    ls_obs::set_level(ls_obs::Level::Summary);
    let out = f();
    ls_obs::set_level(ls_obs::Level::Off);
    out
}

/// Median of a span family, or NaN (an incorrect run) when it is empty.
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// The traced run of `workload`: the per-layer metrics and every span.
pub fn run_traced(workload: Workload, cfg: &RunConfig) -> (Outcome, Tracer) {
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut v = Values::new();
    let (untraced, traced) = obs_tax(workload, cfg, &tracer, &mut tally);
    v.insert("obs.tax_pct", 100.0 * (1.0 - traced / untraced));
    let serial = rank_cold_layers(cfg, &tracer, &mut v, &mut tally);
    rank_warm_layers(cfg, &tracer, &serial, &mut v, &mut tally);
    label_layers(cfg, &tracer, &mut v, &mut tally);
    online_layers(cfg, &tracer, &mut v, &mut tally);

    let mut out = Outcome::new(tally);
    out.note(format!(
        "obs.tax_pct: median {untraced:.1}/s untraced vs {traced:.1}/s traced, alternating \
         over {:.1} s",
        2.0 * tax_seconds(cfg)
    ));
    for (name, unit) in METRICS {
        out.metrics.push(Metric::new(
            name,
            v.get(name).copied().unwrap_or(f64::NAN),
            unit,
        ));
    }
    (out, tracer)
}

fn tax_seconds(cfg: &RunConfig) -> f64 {
    cfg.seconds / 4.0
}

fn layer_pass_seconds(cfg: &RunConfig) -> f64 {
    (cfg.seconds / 5.0).clamp(0.05, 2.0)
}

/// The workload's own operations, alternating untraced and traced
/// (program telemetry on, a trace context on every request, a benchmark
/// span per operation) so host drift hits both alike; returns the median
/// throughput of each mode.
fn obs_tax(workload: Workload, cfg: &RunConfig, tracer: &Tracer, tally: &mut Tally) -> (f64, f64) {
    let budget = 2.0 * tax_seconds(cfg);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut alternate = |tally: &mut Tally, one: &mut dyn FnMut(bool, &mut Tally) -> f64| {
        while rates[0].is_empty() || start.elapsed().as_secs_f64() < budget {
            for traced in [false, true] {
                let rate = if traced {
                    with_telemetry(|| one(true, tally))
                } else {
                    one(false, tally)
                };
                rates[usize::from(traced)].push(rate);
            }
        }
    };
    match workload {
        Workload::RankCold => {
            let mut env = RankEnv::start(&cfg.size, cfg.seed, cfg.threads, false);
            let mut checker = Checker::new(env.requests.len());
            rank::warm_up(&mut env, false, cfg.warmup, &mut checker);
            let weights = rank::request_weights(&env.requests);
            let mut seq = 0u64;
            alternate(tally, &mut |traced, _| {
                let mut weight = 0.0;
                let totals = env.pass(Pass::timed(2.0 * rank::SLICE_SECONDS, traced), |r| {
                    checker.observe(&r, false);
                    weight += weights[r.req];
                    if traced {
                        seq += 1;
                        tracer.record("tax.request", 0, seq, r.sent, r.latency);
                    }
                });
                weight / totals.wall.as_secs_f64().max(1e-9)
            });
            checker.verify_serial(&env.bundle, &env.requests);
            env.stop();
            tally.merge(checker.tally);
        }
        Workload::LabelExact => {
            let dbs = gen::databases();
            label::label_pair(&dbs, &cfg.size, gen::label_seeds(cfg.seed, u64::MAX), tally);
            let mut build = 0u64;
            // Both modes label the same log pair, one after the other.
            alternate(tally, &mut |traced, tally| {
                let seeds = gen::label_seeds(cfg.seed, build);
                build += u64::from(traced);
                let l = if traced {
                    tracer.span("tax.label", 0, build, |_| {
                        label::label_pair(&dbs, &cfg.size, seeds, tally)
                    })
                } else {
                    label::label_pair(&dbs, &cfg.size, seeds, tally)
                };
                l.quartets as f64 / l.busy.as_secs_f64().max(1e-9)
            });
        }
        Workload::OnlineReplay => {
            let env = ReplayEnv::new(&cfg.size, cfg.seed);
            let reference = replay::reference_hash(&env);
            replay::check(&env, &replay::iterate(&env), reference, tally);
            alternate(tally, &mut |traced, tally| {
                let it = if traced {
                    tracer.span("tax.replay", 0, 0, |_| replay::iterate(&env))
                } else {
                    replay::iterate(&env)
                };
                replay::check(&env, &it, reference, tally);
                env.records.len() as f64 / it.wall.as_secs_f64().max(1e-9)
            });
        }
    }
    (median(&rates[0]), median(&rates[1]))
}

/// Record the client and server spans of one traced response; the
/// client span's self time is the wire (and client) share of the latency.
/// Checks that the five stages sum to the server total.
fn record_stages(
    tracer: &Tracer,
    root_name: &'static str,
    seq: u64,
    reply: &rank::Reply,
    stages: &mut Vec<ls_serve::StageBreakdown>,
    tally: &mut Tally,
) {
    let Ok(resp) = &reply.result else {
        return; // counted by the checker
    };
    let Some(b) = resp.stages else {
        tally.fail(format!(
            "request {}: traced response without stages",
            reply.req
        ));
        return;
    };
    if b.probe_us + b.queue_us + b.batch_us + b.score_us + b.other_us == b.total_us {
        tally.pass();
    } else {
        tally.fail(format!(
            "request {}: stages {b:?} do not sum to the total",
            reply.req
        ));
    }
    let root = tracer.id();
    tracer.record(
        "serve.server",
        root,
        seq,
        reply.sent,
        Duration::from_micros(b.total_us),
    );
    tracer.record_as(root, root_name, 0, seq, reply.sent, reply.latency);
    stages.push(b);
}

/// Serial answers (score bits in lineage order, ranking) per request.
type Answers = Vec<(Vec<u64>, Vec<FactId>)>;

/// `rank_cold` layers: server stages from a traced cold pass, then a serial
/// replay of the request stream split at every `ls-core` and `ls-nn` call,
/// then the encoder's modules and GEMM standalone at the model's shapes.
/// Returns the serial answers, which both rank probes are checked against.
fn rank_cold_layers(
    cfg: &RunConfig,
    tracer: &Tracer,
    v: &mut Values,
    tally: &mut Tally,
) -> Answers {
    let mut env = RankEnv::start(&cfg.size, cfg.seed, cfg.threads, false);
    let mut checker = Checker::new(env.requests.len());
    rank::warm_up(&mut env, false, cfg.warmup.min(1.0), &mut checker);
    let batch_items = ls_obs::histogram("serve.batch_items");
    batch_items.reset();
    let mut stages = Vec::new();
    let mut seq = 0u64;
    with_telemetry(|| {
        env.pass(Pass::timed(layer_pass_seconds(cfg), true), |r| {
            checker.observe(&r, false);
            seq += 1;
            record_stages(tracer, "rank_cold.request", seq, &r, &mut stages, tally);
        })
    });
    if stages.is_empty() {
        tally.fail("no traced cold response".to_string());
    }
    let stage_ms = |f: fn(&ls_serve::StageBreakdown) -> u64| {
        median_or_nan(&stages.iter().map(|b| f(b) as f64 / 1e3).collect::<Vec<_>>())
    };
    v.insert("serve.stage.probe_ms", stage_ms(|b| b.probe_us));
    v.insert("serve.stage.queue_ms", stage_ms(|b| b.queue_us));
    v.insert("serve.stage.batch_ms", stage_ms(|b| b.batch_us));
    v.insert("serve.stage.score_ms", stage_ms(|b| b.score_us));
    v.insert("serve.stage.other_ms", stage_ms(|b| b.other_us));
    v.insert("serve.batch_facts", batch_items.stats().mean);

    let (serial, lengths) = serial_replay(&env, tracer, v);
    checker.verify_against(&serial);
    tally.merge(checker.tally);
    gemm_calls(&env, v);
    modules(&env, &lengths, tracer, v);
    env.stop();
    serial
}

/// One serial pass over every distinct request, each `ls-core` / `ls-nn`
/// call in a span of its own. Returns the answers and an even sample of
/// the facts' token lengths.
fn serial_replay(env: &RankEnv, tracer: &Tracer, v: &mut Values) -> (Answers, Vec<usize>) {
    let b = &env.bundle;
    let mut scratch = InferScratch::new();
    let mut tokens_seen = Vec::new();
    let mut answers = Vec::with_capacity(env.requests.len());
    for (i, req) in env.requests.iter().enumerate() {
        let req_id = i as u64;
        // The parts ScoreContext holds, for the per-fact calls below.
        let query_tokens = b.tokenizer.tokenize(&req.query_sql);
        let query_words = split_words(&req.query_sql);
        let tuple_text = render_tuple(&req.tuple);
        let tuple_words = split_words(&tuple_text);
        let scores = tracer.span("core.request", 0, req_id, |root| {
            tracer.span("core.context", root, req_id, |_| {
                black_box(ls_core::ScoreContext::new(
                    &b.tokenizer,
                    &req.query_sql,
                    &req.tuple,
                ))
            });
            let mut scores = ls_shapley::FactScores::new();
            for &f in &req.lineage {
                tracer.span("core.fact", root, req_id, |fact| {
                    let text = tracer.span("core.render", fact, req_id, |_| {
                        render_featured_hoisted(&b.db, &query_words, &tuple_text, &tuple_words, f)
                    });
                    let (tokens, segs) = tracer.span("core.tokenize", fact, req_id, |_| {
                        b.tokenizer
                            .encode_pair_pretokenized(&query_tokens, &text, b.max_len)
                    });
                    let score = tracer.span("nn.forward", fact, req_id, |_| {
                        b.model.infer_value(&tokens, &segs, &mut scratch)
                    });
                    tokens_seen.push(tokens.len() as f64);
                    scores.insert(f, f64::from(score));
                });
            }
            scores
        });
        let bits = req.lineage.iter().map(|f| scores[f].to_bits()).collect();
        answers.push((bits, ls_shapley::rank_descending(&scores)));
    }
    v.insert(
        "core.context_us",
        median_or_nan(&tracer.durations_us("core.context")),
    );
    v.insert(
        "core.render_us",
        median_or_nan(&tracer.durations_us("core.render")),
    );
    v.insert(
        "core.tokenize_us",
        median_or_nan(&tracer.durations_us("core.tokenize")),
    );
    v.insert(
        "nn.forward_us",
        median_or_nan(&tracer.durations_us("nn.forward")),
    );
    v.insert("nn.tokens_per_fact", stats::mean(&tokens_seen));
    let step = tokens_seen.len().div_ceil(MODULE_LENGTHS).max(1);
    let lengths = tokens_seen
        .iter()
        .step_by(step)
        .map(|&l| l as usize)
        .collect();
    (answers, lengths)
}

/// GEMM calls per scored fact, read from the program's own
/// `kernel.matmul` histogram over a telemetry-on scoring pass.
fn gemm_calls(env: &RankEnv, v: &mut Values) {
    let b = &env.bundle;
    let calls = ls_obs::histogram("kernel.matmul");
    let mut facts = 0usize;
    with_telemetry(|| {
        calls.reset();
        let mut scorer = ls_core::LineageScorer::new(&b.model, &b.tokenizer, &b.db, b.max_len);
        for req in env.requests.iter().take(8) {
            let ctx = ls_core::ScoreContext::new(&b.tokenizer, &req.query_sql, &req.tuple);
            for &f in &req.lineage {
                black_box(scorer.score_fact(&ctx, f));
                facts += 1;
            }
        }
    });
    v.insert(
        "nn.gemm_calls_per_fact",
        calls.stats().count as f64 / facts.max(1) as f64,
    );
}

/// The encoder's modules and GEMM, standalone at the model's shapes and
/// the stream's real token lengths.
fn modules(env: &RankEnv, lengths: &[usize], tracer: &Tracer, v: &mut Values) {
    let c = env.bundle.model.encoder.config;
    let mut rng = StdRng::seed_from_u64(c.seed);
    let attention = MultiHeadAttention::new(c.d_model, c.heads, &mut rng);
    let ffn = FeedForward::new(c.d_model, c.ff_dim, &mut rng);
    let norm = LayerNorm::new(c.d_model);
    let block = EncoderBlock::new(c.d_model, c.heads, c.ff_dim, &mut rng);
    let head = Linear::new(c.d_model, 1, &mut rng);
    let mut per_call: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut time = |name: &'static str, len: usize, f: &dyn Fn() -> Tensor| {
        let us = tracer.span(name, 0, len as u64, |_| {
            let t = Instant::now();
            for _ in 0..MODULE_REPS {
                black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e6 / MODULE_REPS as f64
        });
        per_call.entry(name).or_default().push(us);
    };
    for &len in lengths {
        let x = Tensor::randn(len, c.d_model, 1.0, &mut rng);
        let cls = Tensor::randn(1, c.d_model, 1.0, &mut rng);
        time("nn.attention", len, &|| attention.forward_infer(&x));
        time("nn.ffn", len, &|| ffn.forward_infer(&x));
        time("nn.norm", len, &|| norm.forward_infer(&x));
        time("nn.block", len, &|| block.forward_infer(&x));
        time("nn.head", len, &|| head.forward_infer(&cls));
    }
    for (metric, name) in [
        ("nn.attention_us", "nn.attention"),
        ("nn.ffn_us", "nn.ffn"),
        ("nn.norm_us", "nn.norm"),
        ("nn.block_us", "nn.block"),
        ("nn.head_us", "nn.head"),
    ] {
        v.insert(
            metric,
            median_or_nan(per_call.get(name).map_or(&[][..], |x| x)),
        );
    }

    // GEMM at the projections' (tokens x d)(d x d) and the feed-forward's
    // (tokens x d)(d x ff) shapes, tokens = the stream's median length.
    let n = median_or_nan(&lengths.iter().map(|&l| l as f64).collect::<Vec<_>>()) as usize;
    let (mut flops, mut secs) = (0.0f64, 0.0f64);
    for m in [c.d_model, c.ff_dim] {
        let k = c.d_model;
        let a: Vec<f32> = (0..n * k).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
        let bm: Vec<f32> = (0..k * m).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
        let mut out = vec![0.0f32; n * m];
        let reps = 2000;
        let us = tracer.span("nn.gemm", 0, m as u64, |_| {
            let t = Instant::now();
            for _ in 0..reps {
                gemm(Op::NN, black_box(&a), black_box(&bm), n, k, m, &mut out);
            }
            t.elapsed().as_secs_f64()
        });
        black_box(&out);
        flops += (2 * n * k * m * reps) as f64;
        secs += us;
    }
    v.insert("nn.gemm_gflops", flops / secs.max(1e-12) / 1e9);
}

/// Warm-path layers, on the `rank_cold` traffic against a cache-on server
/// primed with every distinct request: bytes per request from an untraced
/// all-hit pass, wire time and hit ratio from a traced one, and the binary
/// codec timed on the same frames.
fn rank_warm_layers(
    cfg: &RunConfig,
    tracer: &Tracer,
    serial: &Answers,
    v: &mut Values,
    tally: &mut Tally,
) {
    let mut env = RankEnv::start(&cfg.size, cfg.seed, cfg.threads, true);
    let mut checker = Checker::new(env.requests.len());
    rank::warm_up(&mut env, true, cfg.warmup.min(1.0), &mut checker);
    let mut responses: Vec<Option<RankResponse>> = vec![None; env.requests.len()];
    let totals = env.pass(Pass::timed(layer_pass_seconds(cfg), false), |r| {
        checker.observe(&r, true);
        if let Ok(resp) = &r.result {
            responses[r.req].get_or_insert_with(|| resp.clone());
        }
    });
    let done = totals.completed.max(1) as f64;
    // From the server's side: requests come in, responses go out.
    v.insert("serve.bytes_in_per_req", totals.bytes_out as f64 / done);
    v.insert("serve.bytes_out_per_req", totals.bytes_in as f64 / done);

    let (mut hits, mut answered, mut seq) = (0u64, 0u64, 0u64);
    let mut stages = Vec::new();
    let traced = Pass {
        limit: Some(WARM_TRACED_REQUESTS),
        ..Pass::timed(layer_pass_seconds(cfg), true)
    };
    with_telemetry(|| {
        env.pass(traced, |r| {
            checker.observe(&r, true);
            if let Ok(resp) = &r.result {
                answered += 1;
                hits += u64::from(resp.cached);
            }
            seq += 1;
            record_stages(tracer, "rank_warm.request", seq, &r, &mut stages, tally);
        })
    });
    let ratio = hits as f64 / answered.max(1) as f64;
    v.insert("serve.cache_hit_ratio", ratio);
    v.insert(
        "serve.wire_ms",
        median_or_nan(&tracer.self_times_us("rank_warm.request")) / 1e3,
    );
    checker.verify_against(serial);
    tally.merge(checker.tally);

    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for (i, (req, resp)) in env.requests.iter().zip(&responses).enumerate() {
        let Some(resp) = resp else { continue };
        let id = i as u64 + 1;
        let result = Ok(resp.clone());
        let (req_frame, resp_frame) = (
            proto::encode_binary_request(id, req, None),
            proto::encode_binary_response(id, &result),
        );
        encode_us.push(tracer.span("serve.proto.encode", 0, id, |_| {
            let t = Instant::now();
            for _ in 0..MODULE_REPS {
                black_box(proto::encode_binary_request(id, black_box(req), None));
                black_box(proto::encode_binary_response(id, black_box(&result)));
            }
            t.elapsed().as_secs_f64() * 1e6 / MODULE_REPS as f64
        }));
        decode_us.push(tracer.span("serve.proto.decode", 0, id, |_| {
            let t = Instant::now();
            for _ in 0..MODULE_REPS {
                black_box(proto::decode_binary_frame(black_box(&req_frame[4..])).is_ok());
                black_box(proto::decode_binary_response(black_box(&resp_frame[4..])).is_ok());
            }
            t.elapsed().as_secs_f64() * 1e6 / MODULE_REPS as f64
        }));
        match proto::decode_binary_response(&resp_frame[4..]) {
            Ok((got, Ok(back))) if got == id && back == *resp => tally.pass(),
            _ => tally.fail(format!("request {i}: response frame does not round-trip")),
        }
    }
    v.insert("serve.proto.encode_us", median_or_nan(&encode_us));
    v.insert("serve.proto.decode_us", median_or_nan(&decode_us));
    env.stop();
}

/// `label_exact` layers: fresh query logs labeled query by query across
/// the pool, with evaluate, compile and Shapley in spans of their own.
fn label_layers(cfg: &RunConfig, tracer: &Tracer, v: &mut Values, tally: &mut Tally) {
    let size = &cfg.size;
    let dbs = gen::databases();
    let mut wall = Duration::ZERO;
    let mut probes = Vec::new();
    for log in 0..LABEL_LOGS {
        for ((db, spec), seed) in dbs.iter().zip(gen::label_seeds(cfg.seed, log)) {
            let qcfg = size.dataset_config(seed).query_gen;
            let queries = ls_dbshap::generate_query_log(db, spec, &qcfg);
            let t = Instant::now();
            let per_query = ls_par::par_map(&queries, |qi, query| {
                let req = (log << 32) | qi as u64;
                tracer.span("label.query", 0, req, |root| {
                    label::label_query_traced(db, query, size, (tracer, root, req))
                })
            });
            wall += t.elapsed();
            probes.extend(per_query.into_iter().flatten());
        }
    }
    for p in &probes {
        if (p.sum - 1.0).abs() <= label::SUM_TOLERANCE {
            tally.pass();
        } else {
            tally.fail(format!("labeling probe: Shapley values sum to {}", p.sum));
        }
    }
    let mean_of = |f: fn(&label::TupleLabel) -> usize| {
        stats::mean(&probes.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    v.insert(
        "relational.evaluate_us",
        median_or_nan(&tracer.durations_us("relational.evaluate")),
    );
    v.insert("relational.clauses_per_lineage", mean_of(|p| p.clauses));
    v.insert(
        "provenance.compile_us",
        median_or_nan(&tracer.durations_us("provenance.compile")),
    );
    v.insert("provenance.circuit_nodes", mean_of(|p| p.nodes));
    // CompileStats counts memo hits and built nodes but not misses; every
    // miss builds at least one node, so this is a lower bound on the ratio.
    let hits: usize = probes.iter().map(|p| p.memo_hits).sum();
    let nodes: usize = probes.iter().map(|p| p.nodes).sum();
    v.insert(
        "provenance.memo_hit_ratio",
        hits as f64 / (hits + nodes).max(1) as f64,
    );
    v.insert(
        "shapley.exact_us",
        median_or_nan(&tracer.durations_us("shapley.exact")),
    );
    v.insert("shapley.players", mean_of(|p| p.players));
    let busy_us: f64 = tracer.durations_us("label.query").iter().sum();
    v.insert("par.speedup", busy_us / 1e6 / wall.as_secs_f64().max(1e-9));
}

/// `online_replay` layers: the iteration split into its calls — each
/// append and its fsync as two spans, replay, decode, one
/// training step per batch, publish — checked against `replay_train`'s
/// model bytes; then the training forward and backward per sample.
fn online_layers(cfg: &RunConfig, tracer: &Tracer, v: &mut Values, tally: &mut Tally) {
    let env = ReplayEnv::new(&cfg.size, cfg.seed);
    let reference = replay::reference_hash(&env);
    let tmp = TmpDir::new("replay-layers");
    let wal_dir = tmp.path().join("wal");
    let n = env.records.len();
    // Never sync on its own: the probe syncs after every append, which is
    // the timed workload's fsync per append split into its write and its
    // fsync.
    let mut wal = replay::open_wal(
        &wal_dir,
        WalOptions {
            fsync_every: usize::MAX,
            ..Default::default()
        },
    );
    for (i, rec) in env.records.iter().enumerate() {
        let payload = rec.encode();
        tracer
            .span("wal.append", 0, i as u64, |_| wal.append(&payload))
            .expect("wal append");
        tracer
            .span("wal.sync", 0, i as u64, |_| wal.sync())
            .expect("wal sync");
    }
    drop(wal);
    let (records, _) = tracer
        .span("wal.replay", 0, 0, |_| ls_wal::replay(&wal_dir))
        .expect("wal replay");
    let mut trainer =
        OnlineTrainer::new(env.model.clone(), env.tokenizer.clone(), env.online.clone());
    for chunk in records.chunks(env.online.batch.max(1)) {
        for (lsn, payload) in chunk {
            let rec = tracer
                .span("core.online.decode", 0, *lsn, |_| {
                    FeedbackRecord::decode(payload)
                })
                .expect("decode feedback record");
            trainer.ingest(*lsn, rec);
        }
        tracer.span("core.online.step", 0, chunk[0].0, |_| {
            trainer.train_pending();
            trainer.flush();
        });
    }
    let published = tracer
        .span("core.online.publish", 0, 0, |_| {
            trainer.publish(&tmp.path().join("snapshots"), 1)
        })
        .expect("publish snapshot");
    if trainer.consumed() == n as u64 && replay::file_hash(&published) == reference {
        tally.pass();
    } else {
        tally.fail(format!(
            "split replay consumed {} of {n} records or published other bytes than replay_train",
            trainer.consumed()
        ));
    }
    let ms = |name: &str| median_or_nan(&tracer.durations_us(name)) / 1e3;
    v.insert(
        "wal.append_us",
        median_or_nan(&tracer.durations_us("wal.append")),
    );
    v.insert("wal.sync_ms", ms("wal.sync"));
    v.insert("wal.replay_ms", ms("wal.replay"));
    v.insert(
        "core.online.decode_us",
        median_or_nan(&tracer.durations_us("core.online.decode")),
    );
    v.insert("core.online.step_ms", ms("core.online.step"));
    v.insert("core.online.publish_ms", ms("core.online.publish"));

    let mut model = env.model.clone();
    for (i, rec) in env.records.iter().take(TRAIN_SAMPLES).enumerate() {
        let (tokens, segs) = env
            .tokenizer
            .encode_pair(&rec.query_sql, &rec.tuple_fact, MAX_LEN);
        let pred = tracer.span("nn.train_forward", 0, i as u64, |_| {
            model.forward_value(&tokens, &segs)
        });
        tracer.span("nn.train_backward", 0, i as u64, |_| {
            model.backward_value(2.0 * (pred - rec.target))
        });
    }
    v.insert(
        "nn.train_forward_us",
        median_or_nan(&tracer.durations_us("nn.train_forward")),
    );
    v.insert(
        "nn.train_backward_us",
        median_or_nan(&tracer.durations_us("nn.train_backward")),
    );
}
