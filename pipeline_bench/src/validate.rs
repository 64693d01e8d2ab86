//! The validation phase: the backtranslation study over a curated project,
//! then execution-accuracy grading of its log for the Figure-1 models.

use std::time::Instant;

use bp_core::{
    backtranslation_study, execution_accuracy_cached, execution_accuracy_opts,
    BacktranslationResult, BacktranslationStudy, Project,
};
use bp_llm::{
    predict_sql, Backtranslator, ExecOptions, ExecutionAccuracyReport, ModelKind,
    WorkloadDifficulty,
};
use bp_metrics::{grade, ClarityLevel, RubricOutcome};
use bp_storage::{results_match, PlanCache};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::{Digest, Ops};
use crate::trace::Tracer;

/// The models of the paper's Figure 1.
pub const FIGURE1_MODELS: [ModelKind; 4] = [
    ModelKind::Gpt4o,
    ModelKind::Llama70B,
    ModelKind::Llama8B,
    ModelKind::ContextModel,
];

/// The vanilla model that backtranslates accepted descriptions.
pub const BACKTRANSLATION_MODEL: ModelKind = ModelKind::Gpt4o;

/// A curated project plus the grading parameters derived from its corpus.
pub struct ValidateInput {
    pub project: Project,
    pub schema_ambiguity: f64,
    /// The simulated models' seed: every grading of a model grades the
    /// same predictions.
    pub seed: u64,
    pub threads: usize,
}

/// One backtranslation study over the project.
pub struct StudyUnit {
    pub items: usize,
    pub secs: f64,
    pub histogram_matches_finalized: bool,
    pub study: Option<BacktranslationStudy>,
}

/// One grading call for one Figure-1 model.
pub struct GradeUnit {
    pub model: usize,
    pub items: usize,
    pub secs: f64,
    pub report: Option<ExecutionAccuracyReport>,
}

/// Plan-cache counters summed over grading calls.
#[derive(Default, Clone, Copy)]
pub struct CacheTotals {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub estimated_rows: u64,
    pub actual_rows: u64,
    pub index_scans: u64,
    pub full_scans: u64,
}

impl CacheTotals {
    pub fn add(&mut self, cache: &PlanCache) {
        let stats = cache.stats();
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.invalidations += stats.invalidations;
        let card = cache.cardinality_stats();
        self.estimated_rows += card.estimated_rows;
        self.actual_rows += card.actual_rows;
        let access = cache.access_stats();
        self.index_scans += access.index_scan;
        self.full_scans += access.full_scan;
    }
}

pub fn study_unit(input: &ValidateInput, ops: &mut Ops) -> StudyUnit {
    let project = &input.project;
    let finalized = project.finalized_count();
    let started = Instant::now();
    let study = ops.run_many("backtranslation study", finalized as u64, || {
        Ok(backtranslation_study(project, BACKTRANSLATION_MODEL))
    });
    StudyUnit {
        items: finalized,
        secs: started.elapsed().as_secs_f64(),
        histogram_matches_finalized: study
            .as_ref()
            .is_some_and(|s| s.histogram.total() == finalized),
        study,
    }
}

/// Grade the project's log for `FIGURE1_MODELS[model]` with at most
/// `input.threads` grading threads.
pub fn grade_unit(input: &ValidateInput, model: usize, ops: &mut Ops) -> GradeUnit {
    let project = &input.project;
    let items = project.log().len();
    let cache = PlanCache::with_default_capacity();
    let started = Instant::now();
    let report = ops.run_many("grading", items as u64, || {
        Ok(execution_accuracy_cached(
            project,
            FIGURE1_MODELS[model],
            input.schema_ambiguity,
            input.seed,
            ExecOptions::default().with_threads(input.threads),
            &cache,
        ))
    });
    GradeUnit {
        model,
        items,
        secs: started.elapsed().as_secs_f64(),
        report,
    }
}

/// The `ExecOptions::serial()` grading of `FIGURE1_MODELS[model]`, whose
/// report every threaded grading of that model must equal.
pub fn serial_reference(input: &ValidateInput, model: usize, ops: &mut Ops) -> GradeUnit {
    let items = input.project.log().len();
    let started = Instant::now();
    let report = ops.run_many("serial grading", items as u64, || {
        Ok(execution_accuracy_opts(
            &input.project,
            FIGURE1_MODELS[model],
            input.schema_ambiguity,
            input.seed,
            ExecOptions::serial(),
        ))
    });
    GradeUnit {
        model,
        items,
        secs: started.elapsed().as_secs_f64(),
        report,
    }
}

/// The traced pass: each real call is a span, followed by a replay of its
/// per-item layer steps through public functions, recorded as the call's
/// children. Grading runs serially, as the replay does, so the replay can
/// account for the call's time. Returns whether every replay's output
/// equals its call's, and the serial report of each model.
pub fn validate_traced(
    input: &ValidateInput,
    ops: &mut Ops,
    tr: &mut Tracer,
    cache_totals: &mut CacheTotals,
) -> (bool, Vec<Option<ExecutionAccuracyReport>>) {
    let project = &input.project;
    let finalized = project.finalized_count();
    let span = tr.open("core.study", None);
    let study = ops.run_many("backtranslation study", finalized as u64, || {
        Ok(backtranslation_study(project, BACKTRANSLATION_MODEL))
    });
    tr.close(span);
    let p = Some(span);
    let backtranslator = Backtranslator::new(
        project.database().catalog(),
        BACKTRANSLATION_MODEL.profile(),
    );
    let mut replay = BacktranslationStudy::default();
    for record in project.records() {
        tr.set_item(record.query_id as u64);
        let regenerated_sql = tr.time("llm.backtranslate", p, || {
            backtranslator.backtranslate(&record.description)
        });
        let original = tr.time("sql.parse", p, || bp_sql::parse_query(&record.sql));
        let outcome = tr.time("metrics.rubric_grade", p, || match original {
            Ok(original) => grade(&original, &regenerated_sql, Some(project.database())),
            Err(e) => RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("original SQL failed to parse: {e}"),
            },
        });
        replay.histogram.record(outcome.level);
        replay.results.push(BacktranslationResult {
            query_id: record.query_id,
            description: record.description.clone(),
            regenerated_sql,
            outcome,
        });
    }
    let mut same = study.as_ref() == Some(&replay);

    let lexicon = project.lexicon();
    let mut serial_reports = Vec::with_capacity(FIGURE1_MODELS.len());
    for model in FIGURE1_MODELS {
        let cache = PlanCache::with_default_capacity();
        let span = tr.open("core.grade", None);
        let report = ops.run_many("serial grading", project.log().len() as u64, || {
            Ok(execution_accuracy_cached(
                project,
                model,
                input.schema_ambiguity,
                input.seed,
                ExecOptions::serial(),
                &cache,
            ))
        });
        tr.close(span);
        cache_totals.add(&cache);

        // Replay of the per-item grading steps, as the grader runs them.
        let profile = model.profile();
        let replay_cache = PlanCache::with_default_capacity();
        let snapshot = project.database().snapshot();
        let serial = ExecOptions::serial();
        let mut replayed = ExecutionAccuracyReport {
            model: profile.kind.name().to_string(),
            total: project.log().len(),
            correct: 0,
            invalid: 0,
            gold_invalid: 0,
        };
        let p = Some(span);
        for (index, item) in project.log().iter().enumerate() {
            tr.set_item(index as u64);
            let difficulty = WorkloadDifficulty {
                schema_ambiguity: input.schema_ambiguity,
                domain_terms: lexicon.terms_in(&item.sql).len(),
            };
            let mut rng = ChaCha8Rng::seed_from_u64(
                input.seed
                    ^ bp_llm::sql2nl::stable_hash(&item.sql)
                    ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let prepare = |sql: &str, tr: &mut Tracer| {
                let misses = replay_cache.stats().misses;
                let id = tr.open("storage.prepare", p);
                let prepared = replay_cache.get(&snapshot, sql);
                tr.close(id);
                if replay_cache.stats().misses == misses {
                    // A hit: the span timed a lookup, not a compile.
                    tr.rename(id, "storage.plan_lookup");
                }
                prepared
            };
            let Ok(gold) = prepare(&item.sql, tr) else {
                replayed.gold_invalid += 1;
                continue;
            };
            let Ok(gold_result) = tr.time("storage.execute", p, || gold.execute(serial)) else {
                replayed.gold_invalid += 1;
                continue;
            };
            let prediction = tr.time("llm.predict", p, || {
                predict_sql(
                    &profile,
                    gold.query(),
                    difficulty,
                    snapshot.catalog(),
                    &mut rng,
                )
            });
            let predicted = prepare(&prediction.sql, tr)
                .and_then(|q| tr.time("storage.execute", p, || q.execute(serial)));
            match predicted {
                Err(_) => replayed.invalid += 1,
                Ok(result) => {
                    if tr.time("storage.compare", p, || {
                        results_match(&gold_result, &result)
                    }) {
                        replayed.correct += 1;
                    }
                }
            }
        }
        same &= report.as_ref() == Some(&replayed);
        serial_reports.push(report);
    }
    (same, serial_reports)
}

/// Digest of a study's outputs, comparable across runs of one seed.
pub fn study_digest(study: &BacktranslationStudy) -> Digest {
    let mut d = Digest::default();
    for r in &study.results {
        d.feed_str(&format!(
            "{} {} {}",
            r.query_id,
            r.outcome.level.as_u8(),
            r.regenerated_sql
        ));
    }
    d
}
