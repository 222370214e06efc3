//! `online_replay`: the serving trainer loop's calls, in its order, on one
//! thread. Feedback records go to a fresh write-ahead log opened with the
//! options the serving path uses (an fsync per append); every
//! `publish_every` records the log is replayed into the trainer, which
//! trains every complete batch, checkpoints and publishes a snapshot.

use crate::gen::{self, Size, TmpDir, MAX_LEN};
use crate::stats::{self, Fnv};
use crate::{Outcome, RunConfig, Tally};
use ls_core::{FeedbackRecord, LearnShapleyModel, OnlineConfig, OnlineTrainer, Tokenizer};
use ls_serve::OnlineOptions;
use ls_wal::{Wal, WalOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed warm-up iterations before timing.
const WARMUP_ITERATIONS: usize = 1;

/// Everything one iteration starts from.
pub struct ReplayEnv {
    /// The records appended per iteration.
    pub records: Vec<FeedbackRecord>,
    /// The model's vocabulary.
    pub tokenizer: Tokenizer,
    /// The freshly initialized model every iteration trains a copy of.
    pub model: LearnShapleyModel,
    /// Trainer settings.
    pub online: OnlineConfig,
    /// Newly trained records per publish, the serving default.
    pub publish_every: usize,
}

impl ReplayEnv {
    /// Set-up: dataset, feedback stream, tokenizer and model init.
    pub fn new(size: &Size, seed: u64) -> ReplayEnv {
        let ds = gen::imdb_dataset(size);
        let records = gen::feedback_records(&ds, seed, size.records);
        let tokenizer = gen::tokenizer(&ds);
        let model = gen::fresh_model(&tokenizer);
        ReplayEnv {
            records,
            tokenizer,
            model,
            online: OnlineConfig {
                batch: size.train_batch,
                lr: 3e-4,
                max_len: MAX_LEN,
                seed: 99,
            },
            publish_every: OnlineOptions::default().publish_every as usize,
        }
    }
}

/// Open a fresh log with the given options and no injected faults.
pub fn open_wal(dir: &Path, opts: WalOptions) -> Wal {
    Wal::open_with(dir, opts, Arc::new(ls_fault::NoFaults)).expect("open wal")
}

/// Append every record to a log opened with the serving path's options.
pub fn append_all(dir: &Path, records: &[FeedbackRecord]) {
    let mut wal = open_wal(dir, WalOptions::default());
    for rec in records {
        wal.append(&rec.encode()).expect("wal append");
    }
}

/// FNV-1a of a file's bytes.
pub fn file_hash(path: &Path) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&std::fs::read(path).expect("read published snapshot"));
    h.finish()
}

/// The model bytes `replay_train` publishes from a log of every record:
/// what each iteration's last snapshot must hold.
pub fn reference_hash(env: &ReplayEnv) -> u64 {
    let tmp = TmpDir::new("replay-reference");
    let wal_dir = tmp.path().join("wal");
    append_all(&wal_dir, &env.records);
    let mut trainer = ls_core::replay_train(
        &wal_dir,
        env.model.clone(),
        env.tokenizer.clone(),
        env.online.clone(),
    )
    .expect("replay train");
    let published = trainer
        .publish(&tmp.path().join("snapshots"), 1)
        .expect("publish snapshot");
    file_hash(&published)
}

/// One iteration's outcome.
pub struct Iteration {
    /// Every cycle, end to end.
    pub wall: Duration,
    /// Records whose append returned with them durable.
    pub acked: u64,
    /// Records the trainer consumed.
    pub consumed: u64,
    /// Hash of the last published model bytes.
    pub model_hash: u64,
    /// Each record's latency from the start of its append to the return
    /// of the publish of the first snapshot trained on it, in append
    /// order (ms).
    pub publish_ms: Vec<f32>,
}

/// Feed every record through the trainer loop's cycle: append
/// `publish_every` records, replay the log into the trainer (records it
/// already holds are skipped), train the complete batches, checkpoint,
/// publish.
pub fn iterate(env: &ReplayEnv) -> Iteration {
    let tmp = TmpDir::new("replay");
    let wal_dir = tmp.path().join("wal");
    let snap_dir = tmp.path().join("snapshots");
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let mut trainer =
        OnlineTrainer::new(env.model.clone(), env.tokenizer.clone(), env.online.clone());
    let mut publish_ms = Vec::with_capacity(env.records.len());
    let mut acked = 0;
    let mut published = None;
    let t = Instant::now();
    let mut wal = open_wal(&wal_dir, WalOptions::default());
    for (generation, cycle) in (1..).zip(env.records.chunks(env.publish_every.max(1))) {
        let mut started = Vec::with_capacity(cycle.len());
        for rec in cycle {
            let payload = rec.encode();
            started.push(Instant::now());
            let lsn = wal.append(&payload).expect("wal append");
            acked += u64::from(wal.durable_lsn() > lsn);
        }
        let (records, _) = ls_wal::replay(&wal_dir).expect("wal replay");
        for (lsn, payload) in records {
            let rec = FeedbackRecord::decode(&payload).expect("decode feedback record");
            trainer.ingest(lsn, rec);
        }
        trainer.train_pending();
        trainer
            .checkpoint(&snap_dir.join("trainer.lstc"))
            .expect("trainer checkpoint");
        published = Some(
            trainer
                .publish(&snap_dir, generation)
                .expect("publish snapshot"),
        );
        let now = Instant::now();
        publish_ms.extend(
            started
                .iter()
                .map(|s| ((now - *s).as_secs_f64() * 1e3) as f32),
        );
    }
    let wall = t.elapsed();
    Iteration {
        wall,
        acked,
        consumed: trainer.consumed(),
        model_hash: published.as_deref().map_or(0, file_hash),
        publish_ms,
    }
}

/// Check one iteration: every record acked by its own append, every
/// appended record trained, and the model bytes `replay_train` publishes
/// from the same records.
pub fn check(env: &ReplayEnv, it: &Iteration, reference: u64, tally: &mut Tally) {
    let n = env.records.len() as u64;
    if it.acked != n {
        tally.fail(format!("{} of {n} appends returned acked", it.acked));
    } else if it.consumed != n {
        tally.fail(format!("trainer consumed {} of {n} records", it.consumed));
    } else if it.model_hash != reference {
        tally.fail(format!(
            "model bytes hash {:016x} differs from replay_train's {reference:016x}",
            it.model_hash
        ));
    } else {
        tally.pass();
    }
}

/// One timed workload run.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..cfg.setup_reps {
        drop(env.take());
        let t = Instant::now();
        let fresh = ReplayEnv::new(&cfg.size, cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        env = Some(fresh);
    }
    let env = env.expect("at least one set-up");
    let reference = reference_hash(&env);
    for _ in 0..WARMUP_ITERATIONS {
        check(&env, &iterate(&env), reference, &mut tally);
    }
    let (mut rates, mut publish_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // At least one latency window, however short `--seconds` is.
    while publish_ms.len() < stats::WINDOW || start.elapsed().as_secs_f64() < cfg.seconds {
        let it = iterate(&env);
        check(&env, &it, reference, &mut tally);
        rates.push(env.records.len() as f64 / it.wall.as_secs_f64().max(1e-9));
        publish_ms.extend(it.publish_ms);
    }
    let mut out = Outcome::new(tally);
    out.note(format!(
        "{} timed iterations of {} records (batch {}, a publish every {}, an fsync per \
         append); records/s per iteration {:?}; model bytes hash {reference:016x}",
        rates.len(),
        env.records.len(),
        env.online.batch,
        env.publish_every,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));
    out.setup(&setup_s);
    out.metric("throughput_per_s", stats::median(&rates), "1/s");
    out.latencies("feedback record, append to publish", &publish_ms);
    out
}
