//! `label_exact`: offline DBShap ground-truth labeling — query-log
//! generation, evaluation, knowledge compilation and exact Shapley — on the
//! Academic and IMDB databases at the `Scale::full` caps, one fresh pair of
//! query logs per build, alternating with per-query labeling latency.

use crate::gen::{self, Size};
use crate::span::Tracer;
use crate::stats::{self, Fnv};
use crate::{Outcome, RunConfig, Tally};
use ls_dbshap::{Dataset, SchemaSpec};
use ls_provenance::{compile, CompileOptions, Dnf};
use ls_relational::{Database, MonoRef, Query};
use std::time::{Duration, Instant};

/// Efficiency tolerance: a tuple's Shapley values must sum to 1.
pub const SUM_TOLERANCE: f64 = 1e-9;
/// Untimed warm-up builds (pairs of logs) before timing.
const WARMUP_BUILDS: u64 = 6;
/// Warm-up builds draw their logs from a stream of their own.
const WARMUP_STREAM: u64 = 0x5741_524d;
/// Logs per database in the per-query latency pool: 192 queries, so a
/// latency window of 1000 spans five whole cycles of the pool.
const LATENCY_LOGS: u64 = 2;

/// Result of labeling one pair of query logs.
#[derive(Debug, Default)]
pub struct Labeled {
    /// (query, tuple, fact) quartets labeled.
    pub quartets: u64,
    /// Time spent inside `Dataset::build`.
    pub busy: Duration,
    /// Checksum over every Shapley value, in build order.
    pub checksum: u64,
}

/// Label one query log per database, checking efficiency on every tuple.
pub fn label_pair(
    dbs: &[(Database, SchemaSpec); 2],
    size: &Size,
    gen_seeds: [u64; 2],
    tally: &mut Tally,
) -> Labeled {
    let mut out = Labeled::default();
    let mut hash = Fnv::default();
    for ((db, spec), gen_seed) in dbs.iter().zip(gen_seeds) {
        let db = db.clone();
        let cfg = size.dataset_config(gen_seed);
        let t = Instant::now();
        let ds = Dataset::build(db, spec, &cfg);
        out.busy += t.elapsed();
        for q in &ds.queries {
            for t in &q.tuples {
                out.quartets += t.shapley.len() as u64;
                let sum: f64 = t.shapley.values().sum();
                for (f, v) in &t.shapley {
                    hash.u64(u64::from(f.0));
                    hash.u64(v.to_bits());
                }
                if (sum - 1.0).abs() <= SUM_TOLERANCE {
                    tally.pass();
                } else {
                    tally.fail(format!(
                        "{} query {} tuple {}: Shapley values sum to {sum}",
                        ds.db_name, q.id, t.tuple_idx
                    ));
                }
            }
        }
    }
    out.checksum = hash.finish();
    out
}

/// Set-up: generate both databases and label the fixed `Scale::full`
/// logs once. Every repetition must reproduce the same reference checksum.
fn set_up(size: &Size, tally: &mut Tally) -> ([(Database, SchemaSpec); 2], u64) {
    let dbs = gen::databases();
    let reference = label_pair(
        &dbs,
        size,
        [gen::FULL_SEED ^ 0x22, gen::FULL_SEED ^ 0x11],
        tally,
    );
    (dbs, reference.checksum)
}

/// One timed workload run. The window alternates one build of a fresh log
/// pair through `Dataset::build` (throughput) with a slice as long of
/// per-query labeling (latency per query, the exact side of the paper's
/// latency comparison with the learned ranker), so both metrics sample
/// the whole window.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut dbs = None;
    let mut reference = None;
    for _ in 0..cfg.setup_reps {
        drop(dbs.take());
        let t = Instant::now();
        let (fresh, checksum) = set_up(&cfg.size, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        if *reference.get_or_insert(checksum) != checksum {
            tally.fail("set-up labeling is not deterministic".to_string());
        }
        dbs = Some(fresh);
    }
    let dbs = dbs.expect("at least one set-up");
    for i in 0..WARMUP_BUILDS {
        label_pair(
            &dbs,
            &cfg.size,
            gen::label_seeds(cfg.seed ^ WARMUP_STREAM, i),
            &mut tally,
        );
    }
    let mut pool = QueryPool::new(&dbs, &cfg.size, cfg.seed, cfg.threads);
    let (mut rates, mut quartets, mut busy) = (Vec::new(), 0u64, Duration::ZERO);
    let (mut first_checksum, mut latencies) = (0, Vec::new());
    let start = Instant::now();
    // At least one latency window, however short `--seconds` is.
    while latencies.len() < stats::WINDOW || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = rates.len() as u64;
        let l = label_pair(&dbs, &cfg.size, gen::label_seeds(cfg.seed, i), &mut tally);
        if i == 0 {
            first_checksum = l.checksum;
        }
        quartets += l.quartets;
        busy += l.busy;
        rates.push(l.quartets as f64 / l.busy.as_secs_f64().max(1e-9));
        latencies.extend(pool.label_for(l.busy, &mut tally));
    }
    let mut out = Outcome::new(tally);
    out.note(format!(
        "{} timed builds (2 logs each), {quartets} quartets, {:.3} s inside Dataset::build; \
         quartets/s per build: quartiles {:?}; reference checksum {:016x}, \
         first timed build checksum {first_checksum:016x}",
        rates.len(),
        busy.as_secs_f64(),
        stats::quartiles(&rates),
        reference.expect("reference checksum"),
    ));
    out.setup(&setup_s);
    out.metric("throughput_per_s", stats::median(&rates), "1/s");
    out.latencies("query labeled", &latencies);
    out
}

/// One output tuple labeled by [`label_query_traced`].
pub struct TupleLabel {
    /// Clauses of its lineage.
    pub clauses: usize,
    /// Players (facts) of its lineage.
    pub players: usize,
    /// Nodes of its compiled circuit.
    pub nodes: usize,
    /// Compiler memo hits.
    pub memo_hits: usize,
    /// Sum of its Shapley values (1 by efficiency).
    pub sum: f64,
}

/// The derivations of the output tuples `Dataset::build` labels: every
/// tuple at a stride that keeps at most `max_tuples`, if its lineage is
/// non-empty and at most `max_lineage` facts.
fn sampled<'a>(
    result: &'a ls_relational::QueryResult,
    size: &Size,
) -> impl Iterator<Item = &'a [MonoRef]> + 'a {
    let n = result.len();
    let stride = n.div_ceil(size.max_tuples).max(1);
    let max_lineage = size.max_lineage;
    let interned = &result.interned;
    (0..n).step_by(stride).filter_map(move |i| {
        let derivations = &interned.tuples[i].derivations;
        let lineage = interned.arena.union_facts(derivations).len();
        (lineage > 0 && lineage <= max_lineage).then_some(derivations.as_slice())
    })
}

/// Label one query through the calls `Dataset::build` makes: evaluate it,
/// then `shapley_values_recovered` per sampled output tuple. Returns each
/// tuple's Shapley sum.
pub fn label_query(db: &Database, query: &Query, size: &Size) -> Vec<f64> {
    let result = ls_relational::evaluate(db, query).expect("generated query evaluates");
    let arena = &result.interned.arena;
    sampled(&result, size)
        .map(|d| {
            ls_shapley::shapley_values_recovered(arena, d)
                .values()
                .sum()
        })
        .collect()
}

/// [`label_query`] split into its layers, each call a span under
/// (`tracer`, `parent`, `req`): evaluate, then per sampled tuple compile
/// its provenance and compute exact Shapley values on the circuit.
pub fn label_query_traced(
    db: &Database,
    query: &Query,
    size: &Size,
    (tracer, parent, req): (&Tracer, u64, u64),
) -> Vec<TupleLabel> {
    let result = tracer.span("relational.evaluate", parent, req, |_| {
        ls_relational::evaluate(db, query).expect("generated query evaluates")
    });
    let arena = &result.interned.arena;
    sampled(&result, size)
        .map(|derivations| {
            let dnf = Dnf::from_recovered(arena, derivations);
            let players = dnf.variables();
            let compiled = tracer.span("provenance.compile", parent, req, |_| {
                compile(&dnf, CompileOptions::default())
            });
            let values = tracer.span("shapley.exact", parent, req, |_| {
                ls_shapley::shapley_values_compiled(&compiled, &players)
            });
            TupleLabel {
                clauses: derivations.len(),
                players: players.len(),
                nodes: compiled.stats.nodes,
                memo_hits: compiled.stats.cache_hits,
                sum: values.values().sum(),
            }
        })
        .collect()
}

/// The per-query latency pool: a fixed set of queries — [`LATENCY_LOGS`]
/// logs per database, the same for every seed — labeled by one thread per
/// core, each in its own order drawn from the seed, so every latency
/// window samples the same mix. A single labeler's latency would follow
/// whichever core it runs on, and on the benchmark host the two cores'
/// speeds drift apart.
pub struct QueryPool<'a> {
    queries: Vec<(&'a Database, Query)>,
    size: Size,
    orders: Vec<gen::Stream>,
}

impl<'a> QueryPool<'a> {
    /// The pool over both databases, with `labelers` seeded orders.
    pub fn new(
        dbs: &'a [(Database, SchemaSpec); 2],
        size: &Size,
        seed: u64,
        labelers: usize,
    ) -> QueryPool<'a> {
        let mut queries = Vec::new();
        for log in 0..LATENCY_LOGS {
            for ((db, spec), gen_seed) in dbs.iter().zip(gen::label_seeds(gen::FULL_SEED, log)) {
                let qcfg = size.dataset_config(gen_seed).query_gen;
                queries.extend(
                    ls_dbshap::generate_query_log(db, spec, &qcfg)
                        .into_iter()
                        .map(|q| (db, q)),
                );
            }
        }
        let orders = (0..labelers.max(1) as u64)
            .map(|id| gen::Stream::new(queries.len(), gen::derive(seed, id)))
            .collect();
        QueryPool {
            queries,
            size: *size,
            orders,
        }
    }

    /// Label queries for `slice` (at least one per labeler), each labeler
    /// one query at a time; returns each query's latency in ms, in
    /// completion order.
    pub fn label_for(&mut self, slice: Duration, tally: &mut Tally) -> Vec<f32> {
        let (queries, size) = (&self.queries, &self.size);
        let mut done = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .orders
                .iter_mut()
                .map(|order| {
                    s.spawn(move || {
                        let (mut done, mut tally) = (Vec::new(), Tally::default());
                        let start = Instant::now();
                        while done.is_empty() || start.elapsed() < slice {
                            let (db, query) = &queries[order.next_index()];
                            let t = Instant::now();
                            // One thread per query: the exact Shapley fan-out
                            // would otherwise fork and join per tuple across
                            // the labelers.
                            let sums = ls_par::with_threads(1, || label_query(db, query, size));
                            let end = Instant::now();
                            done.push((end, ((end - t).as_secs_f64() * 1e3) as f32));
                            for sum in sums {
                                if (sum - 1.0).abs() <= SUM_TOLERANCE {
                                    tally.pass();
                                } else {
                                    tally.fail(format!(
                                        "query labeling: Shapley values sum to {sum}"
                                    ));
                                }
                            }
                        }
                        (done, tally)
                    })
                })
                .collect();
            for h in handles {
                let (d, t) = h.join().expect("labeler thread");
                done.extend(d);
                tally.merge(t);
            }
        });
        done.sort_by_key(|&(end, _)| end);
        done.into_iter().map(|(_, ms)| ms).collect()
    }
}
