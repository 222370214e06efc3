//! Experiment scale presets and dataset construction.
//!
//! The paper's DBShap has 293 queries / 1M tuples / 18M fact contributions
//! and took days of offline compute plus GPU training. `Scale` maps that
//! pipeline onto laptop budgets; `full` is the default for the reported
//! experiments, `quick` is a smoke-test setting used by the integration
//! tests.

use ls_core::{PipelineConfig, TrainConfig};
use ls_dbshap::{
    academic_spec, generate_academic, generate_imdb, imdb_spec, AcademicConfig, Dataset,
    DatasetConfig, ImdbConfig, QueryGenConfig,
};

/// Knobs shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Queries per database log.
    pub queries_per_db: usize,
    /// Ground-truth tuples sampled per query.
    pub max_tuples: usize,
    /// Lineage-size cap for exact Shapley ground truth.
    pub max_lineage: usize,
    /// Pre-training epochs.
    pub pre_epochs: usize,
    /// Fine-tuning epochs.
    pub fine_epochs: usize,
    /// Per-epoch sample cap for both stages.
    pub samples_per_epoch: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The scale used for all reported experiments (minutes per table).
    pub fn full() -> Self {
        Scale {
            queries_per_db: 48,
            max_tuples: 10,
            max_lineage: 60,
            pre_epochs: 5,
            fine_epochs: 10,
            samples_per_epoch: 1600,
            seed: 20240101,
        }
    }

    /// A smoke-test scale (seconds end to end) for integration tests.
    pub fn quick() -> Self {
        Scale {
            queries_per_db: 12,
            max_tuples: 4,
            max_lineage: 25,
            pre_epochs: 1,
            fine_epochs: 1,
            samples_per_epoch: 60,
            seed: 20240101,
        }
    }

    /// Dataset-construction config for this scale.
    pub fn dataset_config(&self, gen_seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed: self.seed,
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

    /// The IMDB-side dataset.
    pub fn imdb_dataset(&self) -> Dataset {
        let db = generate_imdb(&ImdbConfig {
            seed: self.seed ^ 0x1,
            ..Default::default()
        });
        Dataset::build(db, &imdb_spec(), &self.dataset_config(self.seed ^ 0x11))
    }

    /// The Academic-side dataset.
    pub fn academic_dataset(&self) -> Dataset {
        let db = generate_academic(&AcademicConfig {
            seed: self.seed ^ 0x2,
            ..Default::default()
        });
        Dataset::build(db, &academic_spec(), &self.dataset_config(self.seed ^ 0x22))
    }

    /// Training config for one stage.
    fn train_cfg(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            lr: 3e-4,
            max_len: 64,
            max_samples_per_epoch: self.samples_per_epoch,
            batch: 8,
            negatives: 0,
            seed: self.seed ^ 0x7a,
        }
    }

    /// The standard LearnShapley pipeline config at this scale.
    pub fn pipeline(&self, encoder: ls_core::EncoderKind) -> PipelineConfig {
        PipelineConfig {
            encoder,
            pretrain: Some(ls_core::PretrainObjectives::default()),
            pretrain_cfg: self.train_cfg(self.pre_epochs),
            finetune_cfg: self.train_cfg(self.fine_epochs),
            max_vocab: 2400,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_dbshap::Split;

    #[test]
    fn quick_datasets_build() {
        let s = Scale::quick();
        let imdb = s.imdb_dataset();
        let academic = s.academic_dataset();
        assert_eq!(imdb.db_name, "IMDB");
        assert_eq!(academic.db_name, "Academic");
        assert_eq!(imdb.queries.len(), s.queries_per_db);
        assert_eq!(academic.queries.len(), s.queries_per_db);
        assert!(!imdb.split_indices(Split::Test).is_empty());
        assert!(!academic.split_indices(Split::Test).is_empty());
    }

    /// The `Scale::full` query logs, pinned by a 64-bit FNV-1a hash over
    /// every query's SQL text in log order: a change to how the generator
    /// validates, deduplicates or evaluates its candidates must not change
    /// which queries it keeps, or their order.
    #[test]
    fn full_scale_query_logs_are_pinned() {
        let s = Scale::full();
        let academic = generate_academic(&AcademicConfig {
            seed: s.seed ^ 0x2,
            ..Default::default()
        });
        let imdb = generate_imdb(&ImdbConfig {
            seed: s.seed ^ 0x1,
            ..Default::default()
        });
        let logs = [
            (&academic, academic_spec(), s.seed ^ 0x22),
            (&imdb, imdb_spec(), s.seed ^ 0x11),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (db, spec, gen_seed) in &logs {
            let log =
                ls_dbshap::generate_query_log(db, spec, &s.dataset_config(*gen_seed).query_gen);
            assert_eq!(log.len(), s.queries_per_db);
            for q in &log {
                for b in ls_relational::to_sql(q).bytes().chain([b'\n']) {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            hash, 0xdc02_ce80_240e_35d3,
            "query logs changed: {hash:016x}"
        );
    }

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.queries_per_db < f.queries_per_db);
        assert!(q.fine_epochs <= f.fine_epochs);
    }
}
