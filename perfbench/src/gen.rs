//! Seed-deterministic inputs: the databases, the DBShap datasets drawn from
//! them, the rank request stream, the label generator seeds and the
//! feedback records. The same seed gives byte-identical inputs.
//!
//! The serving and replay datasets are the fixed `Scale::full` logs (the
//! seed orders the traffic over them); the labeling workload draws a fresh
//! query log per build from seeds derived from the workload seed.

use ls_core::{feedback_from_gold, render_fact, FeedbackRecord, LearnShapleyModel, Tokenizer};
use ls_dbshap::{
    academic_spec, drift_feedback_events, generate_academic, generate_imdb, imdb_spec,
    AcademicConfig, Dataset, DatasetConfig, DriftConfig, ImdbConfig, QueryGenConfig, SchemaSpec,
    Split,
};
use ls_nn::EncoderConfig;
use ls_relational::{Database, FactId, OutputTuple};
use ls_serve::RankRequest;
use std::path::{Path, PathBuf};

/// Master seed of the repository's `Scale::full` experiments.
pub const FULL_SEED: u64 = 20240101;
/// Sequence-length budget of the packed (query, tuple+fact) pairs.
pub const MAX_LEN: usize = 64;
/// Tokenizer vocabulary cap.
const MAX_VOCAB: usize = 2000;

/// How much work one workload item is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Queries per generated log.
    pub queries_per_db: usize,
    /// Ground-truth tuples sampled per query.
    pub max_tuples: usize,
    /// Lineage cap for exact Shapley ground truth.
    pub max_lineage: usize,
    /// Feedback records appended and trained per `online_replay` iteration.
    pub records: usize,
    /// Records per training step.
    pub train_batch: usize,
}

impl Size {
    /// The measured size: the `Scale::full` dataset caps.
    pub fn full() -> Size {
        Size {
            queries_per_db: 48,
            max_tuples: 10,
            max_lineage: 60,
            records: 2048,
            train_batch: 8,
        }
    }

    /// A smoke-test size: every code path, a fraction of a second each.
    pub fn tiny() -> Size {
        Size {
            queries_per_db: 8,
            max_tuples: 3,
            max_lineage: 20,
            records: 128,
            train_batch: 8,
        }
    }

    /// DBShap build configuration for one query log.
    pub fn dataset_config(&self, gen_seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed: FULL_SEED,
            query_gen: QueryGenConfig {
                num_queries: self.queries_per_db,
                max_join_width: 5,
                union_prob: 0.12,
                mutations_per_base: 3,
                seed: gen_seed,
                ..Default::default()
            },
            max_tuples_per_query: self.max_tuples,
            max_lineage: self.max_lineage,
        }
    }
}

/// SplitMix64 step: the benchmark's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th value derived from `seed`.
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut s)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// An order over a fixed set of `n` inputs: cycle after cycle through the
/// set, each cycle a fresh seeded permutation. Every whole cycle carries
/// the same mix, while each input meets different neighbours from cycle to
/// cycle.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    next: usize,
    order: Vec<usize>,
}

impl Stream {
    /// The stream over `n` inputs.
    pub fn new(n: usize, seed: u64) -> Stream {
        assert!(n > 0, "empty input set");
        Stream {
            seed,
            next: 0,
            order: (0..n).collect(),
        }
    }

    /// The next input index.
    pub fn next_index(&mut self) -> usize {
        let n = self.order.len();
        if self.next.is_multiple_of(n) {
            self.order.sort_unstable();
            shuffle(&mut self.order, derive(self.seed, (self.next / n) as u64));
        }
        let i = self.order[self.next % n];
        self.next += 1;
        i
    }
}

/// The two DBShap databases with their log specs, as `Scale::full` seeds
/// them.
pub fn databases() -> [(Database, SchemaSpec); 2] {
    [
        (
            generate_academic(&AcademicConfig {
                seed: FULL_SEED ^ 0x2,
                ..Default::default()
            }),
            academic_spec(),
        ),
        (
            generate_imdb(&ImdbConfig {
                seed: FULL_SEED ^ 0x1,
                ..Default::default()
            }),
            imdb_spec(),
        ),
    ]
}

/// The fixed Academic dataset the rank workloads serve.
pub fn academic_dataset(size: &Size) -> Dataset {
    let [(db, spec), _] = databases();
    Dataset::build(db, &spec, &size.dataset_config(FULL_SEED ^ 0x22))
}

/// The fixed IMDB dataset the replay workload draws feedback from.
pub fn imdb_dataset(size: &Size) -> Dataset {
    let [_, (db, spec)] = databases();
    Dataset::build(db, &spec, &size.dataset_config(FULL_SEED ^ 0x11))
}

/// Query-log generator seed of labeling build `i` (one per database).
pub fn label_seeds(seed: u64, i: u64) -> [u64; 2] {
    let s = derive(seed, i);
    [s ^ 0x22, s ^ 0x11]
}

/// Every recorded (query SQL, tuple, lineage) triple of `ds`. The tuple
/// carries its values only: a deployed client sends the lineage, not the
/// provenance.
pub fn rank_requests(ds: &Dataset) -> Vec<RankRequest> {
    let mut out = Vec::new();
    for q in &ds.queries {
        for t in &q.tuples {
            out.push(RankRequest {
                query_sql: q.sql.clone(),
                tuple: OutputTuple {
                    values: q.result.tuples[t.tuple_idx].values.clone(),
                    derivations: Vec::new(),
                },
                lineage: t.shapley.keys().copied().collect(),
                deadline: None,
                slo: None,
            });
        }
    }
    out
}

/// `n` feedback records: gold Shapley targets for a drifting stream of
/// recorded training tuples.
pub fn feedback_records(ds: &Dataset, seed: u64, n: usize) -> Vec<FeedbackRecord> {
    let events = drift_feedback_events(
        ds,
        Split::Train,
        &DriftConfig {
            events: n,
            drift_per_mille: 300,
            seed,
        },
    );
    let mut recs = feedback_from_gold(ds, &events);
    assert!(recs.len() >= n, "feedback stream too short: {}", recs.len());
    recs.truncate(n);
    recs
}

/// A tokenizer over the dataset's query log and rendered facts.
pub fn tokenizer(ds: &Dataset) -> Tokenizer {
    let mut corpus: Vec<String> = ds.queries.iter().map(|q| q.sql.clone()).collect();
    for f in 0..ds.db.fact_count() {
        corpus.push(render_fact(&ds.db, FactId(f as u32)));
    }
    Tokenizer::build(corpus.iter().map(String::as_str), MAX_VOCAB)
}

/// A freshly initialized model of the paper's small-ablation shape.
pub fn fresh_model(tokenizer: &Tokenizer) -> LearnShapleyModel {
    LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ))
}

/// A scratch directory inside the working directory, removed on drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Create `.bench_tmp/<tag>-<pid>-<n>` under the working directory.
    pub fn new(tag: &str) -> TmpDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TmpDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another scratch directory is still in use.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_dbshap::generate_query_log;
    use ls_relational::to_sql;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        shuffle(&mut c, 6);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn request_stream_is_byte_identical_per_seed() {
        let bytes = |seed| -> Vec<u8> {
            let requests = rank_requests(&academic_dataset(&Size::tiny()));
            let mut stream = Stream::new(requests.len(), seed);
            (0..3 * requests.len())
                .flat_map(|_| {
                    let r = &requests[stream.next_index()];
                    ls_serve::proto::encode_binary_request(0, r, None)
                })
                .collect()
        };
        assert!(!bytes(1).is_empty());
        assert_eq!(bytes(1), bytes(1));
        assert_ne!(bytes(1), bytes(2));
    }

    #[test]
    fn every_stream_cycle_is_a_permutation() {
        let mut stream = Stream::new(50, 7);
        let cycles: Vec<Vec<usize>> = (0..3)
            .map(|_| (0..50).map(|_| stream.next_index()).collect())
            .collect();
        for c in &cycles {
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
        assert_ne!(cycles[0], cycles[1]);
    }

    #[test]
    fn query_logs_are_identical_per_seed() {
        let size = Size::tiny();
        let [(db, spec), _] = databases();
        let log = |seed: u64, i: u64| -> Vec<String> {
            let cfg = size.dataset_config(label_seeds(seed, i)[0]);
            generate_query_log(&db, &spec, &cfg.query_gen)
                .iter()
                .map(to_sql)
                .collect()
        };
        assert_eq!(log(3, 0), log(3, 0));
        assert_eq!(log(3, 1), log(3, 1));
        assert_ne!(log(3, 0), log(3, 1));
        assert_ne!(log(3, 0), log(4, 0));
    }

    #[test]
    fn wal_bytes_are_identical_per_seed() {
        let size = Size::tiny();
        let ds = imdb_dataset(&size);
        let wal_bytes = |seed: u64| -> Vec<u8> {
            let tmp = TmpDir::new("gen-wal");
            crate::replay::append_all(tmp.path(), &feedback_records(&ds, seed, size.records));
            let mut files: Vec<PathBuf> = std::fs::read_dir(tmp.path())
                .expect("list wal")
                .map(|e| e.expect("wal entry").path())
                .collect();
            files.sort();
            files
                .iter()
                .flat_map(|p| std::fs::read(p).expect("read wal segment"))
                .collect()
        };
        let a = wal_bytes(9);
        assert!(!a.is_empty());
        assert_eq!(a, wal_bytes(9));
        assert_ne!(a, wal_bytes(10));
    }
}
