//! End-to-end and per-layer benchmark of the LearnShapley workspace.
//!
//! Three workloads, one per process run, each stressing one part of the
//! system while leaving the others nearly idle:
//!
//! * `rank_cold` — learned-tier ranking over binary TCP, cache off
//!   (`ls-serve` → `ls-core` → `ls-nn`);
//! * `label_exact` — DBShap ground-truth labeling (`ls-dbshap`,
//!   `ls-relational`, `ls-provenance`, `ls-shapley`, `ls-par`);
//! * `online_replay` — WAL append, replay training, snapshot publish
//!   (`ls-wal`, `ls-core::online`, the training side of `ls-nn`).
//!
//! A timed run prints the end-to-end metrics; a traced run (see [`layers`])
//! prints the per-layer metrics, the warm (all cache hits) serving path's
//! among them. See `README.md` in this directory.

pub mod gen;
pub mod label;
pub mod layers;
pub mod rank;
pub mod replay;
pub mod span;
pub mod stats;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Binary-TCP ranking with the response cache off.
    RankCold,
    /// Exact-Shapley labeling of fresh query logs.
    LabelExact,
    /// WAL append, replay training and publish.
    OnlineReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::RankCold,
        Workload::LabelExact,
        Workload::OnlineReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RankCold => "rank_cold",
            Workload::LabelExact => "label_exact",
            Workload::OnlineReplay => "online_replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Work-item size.
    pub size: gen::Size,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Untimed warm-up seconds (time-bounded warm-ups only).
    pub warmup: f64,
    /// Pinned pool width and server worker count.
    pub threads: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count a passing operation.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Count a failing operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    /// Keep a failure reason (the first ten).
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 10 {
            self.notes.push(why);
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            self.note(n);
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness tally.
    pub tally: Tally,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome carrying a tally.
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            ..Default::default()
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Add a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Add `setup_s`, the median of the run's set-up times.
    pub fn setup(&mut self, samples_s: &[f64]) {
        self.note(format!("set-up times (s): {samples_s:?}"));
        self.metric("setup_s", stats::median(samples_s), "s");
    }

    /// Add `latency_p50_ms` and `latency_p99_ms` from per-operation
    /// latencies in arrival order (see [`stats::windowed_percentile`]), or
    /// fail the run without a whole window of samples.
    pub fn latencies(&mut self, what: &str, samples_ms: &[f32]) {
        self.note(format!(
            "latency per {what}: {} samples, {} windows of {}",
            samples_ms.len(),
            samples_ms.len() / stats::WINDOW,
            stats::WINDOW
        ));
        let p50 = stats::windowed_percentile(samples_ms, 0.5);
        let p99 = stats::windowed_percentile(samples_ms, 0.99);
        match (p50, p99) {
            (Some(p50), Some(p99)) => {
                self.metric("latency_p50_ms", p50, "ms");
                self.metric("latency_p99_ms", p99, "ms");
            }
            _ => self.tally.fail(format!(
                "{} latency samples are fewer than one window of {}",
                samples_ms.len(),
                stats::WINDOW
            )),
        }
    }

    /// Correct: something was attempted, nothing failed, every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0
            && self.tally.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One timed run of `workload`: every end-to-end metric.
pub fn run_timed(workload: Workload, cfg: &RunConfig) -> Outcome {
    let mut out = match workload {
        Workload::RankCold => rank::run(cfg),
        Workload::LabelExact => label::run(cfg),
        Workload::OnlineReplay => replay::run(cfg),
    };
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            size: gen::Size::tiny(),
            seed,
            seconds,
            warmup: 0.1,
            threads: 2,
            setup_reps: 1,
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("rank"), None);
    }

    #[test]
    fn smoke_every_workload_passes_its_checks() {
        for w in Workload::ALL {
            // Every run needs a window of a thousand latency samples.
            let seconds = match w {
                Workload::RankCold => 6.0,
                Workload::LabelExact | Workload::OnlineReplay => 3.0,
            };
            let out = run_timed(w, &tiny(3, seconds));
            assert!(
                out.correct(),
                "{}: {} of {} failed: {:?}",
                w.name(),
                out.tally.failed,
                out.tally.attempted,
                out.tally.notes
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert!(names.contains(&"setup_s") && names.contains(&"throughput_per_s"));
            assert!(names.contains(&"peak_rss_mb"));
        }
    }

    #[test]
    fn smoke_traced_run_prints_every_layer_metric() {
        let (out, spans) = layers::run_traced(Workload::RankCold, &tiny(4, 0.2));
        assert!(!spans.is_empty());
        assert!(
            out.correct(),
            "{} of {} failed: {:?}",
            out.tally.failed,
            out.tally.attempted,
            out.tally.notes
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            layers::METRICS.iter().map(|m| m.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn replay_model_hash_repeats_for_a_seed() {
        let env = replay::ReplayEnv::new(&gen::Size::tiny(), 5);
        let a = replay::iterate(&env);
        let b = replay::iterate(&env);
        assert_eq!(a.consumed, env.records.len() as u64);
        assert_eq!(a.model_hash, b.model_hash);
        assert_eq!(a.model_hash, replay::reference_hash(&env));
        let other = replay::ReplayEnv::new(&gen::Size::tiny(), 5);
        assert_eq!(replay::iterate(&other).model_hash, a.model_hash);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut out = Outcome::default();
        out.tally.pass();
        out.metric("setup_s", 0.25, "s");
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
