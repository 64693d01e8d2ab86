//! The curation phase: one simulated annotator curates a SQL log in a
//! closed loop (annotate, seeded feedback, finalize), then a review and
//! export pass closes the project.

use std::time::Instant;

use bp_core::{
    export_json, export_records, import_json, review_metrics, FeedbackAction, KnowledgeBase,
    Project, TaskConfig,
};
use bp_datasets::GeneratedBenchmark;
use bp_llm::{generate_candidates, GenerationRequest, PromptBuilder, CANDIDATES_PER_QUERY};
use bp_sql::{decompose, should_decompose, AnnotationUnit, Decomposition, UnitDescription};

use crate::stats::{mix, Digest, Ops};
use crate::trace::{SpanId, Tracer};

/// The annotator's feedback for one log entry, derived from the seed and
/// the entry id so every pass (and the validation set-up) makes the same
/// choices: mostly `SelectCandidate`, plus `Rank`, `Edit` with the gold
/// question, `Discard`, and an occasional `AddKnowledge` for a domain term
/// the knowledge base does not explain yet. Returns the actions and
/// whether the entry is finalized afterwards.
pub fn feedback_for(project: &Project, seed: u64, query_id: usize) -> (Vec<FeedbackAction>, bool) {
    let roll = mix(seed ^ (query_id as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut actions = Vec::with_capacity(2);
    if roll % 100 < 30 {
        let item = &project.log()[query_id];
        let known = project.knowledge().knowledge_texts();
        let unresolved = project.lexicon().terms_in(&item.sql).into_iter().find(|t| {
            let term = t.term.to_lowercase();
            !known.iter().any(|k| k.to_lowercase().contains(&term))
        });
        if let Some(term) = unresolved {
            actions.push(FeedbackAction::AddKnowledge {
                topic: term.term.clone(),
                note: term.explanation.clone(),
            });
        }
    }
    let pick = ((roll >> 8) % CANDIDATES_PER_QUERY as u64) as usize;
    let kind = (roll >> 16) % 100;
    let finalize = kind >= 6;
    actions.push(if kind < 6 {
        FeedbackAction::Discard
    } else if kind < 14 {
        FeedbackAction::Edit(
            project.log()[query_id]
                .gold_question
                .clone()
                .unwrap_or_default(),
        )
    } else if kind < 26 {
        FeedbackAction::Rank(
            (0..CANDIDATES_PER_QUERY)
                .map(|i| (i + pick) % CANDIDATES_PER_QUERY)
                .collect(),
        )
    } else {
        FeedbackAction::SelectCandidate(pick)
    });
    (actions, finalize)
}

/// Curate every entry of `project` with the seeded feedback mix, without
/// timing: the validation phase's set-up.
pub fn curate_untimed(project: &mut Project, seed: u64, ops: &mut Ops) -> bool {
    let mut drafts_ok = true;
    for query_id in 0..project.log().len() {
        let Some(draft) = ops.run("annotate", || project.annotate(query_id)) else {
            continue;
        };
        drafts_ok &= draft.candidates.len() == CANDIDATES_PER_QUERY;
        let (actions, finalize) = feedback_for(project, seed, query_id);
        for action in actions {
            ops.run("feedback", || project.apply_feedback(query_id, action));
        }
        if finalize {
            ops.run("finalize", || project.finalize(query_id));
        }
    }
    drafts_ok
}

/// What one curation pass produced.
pub struct CuratePass {
    /// `Project::annotate` latency per entry, ms.
    pub draft_ms: Vec<f64>,
    /// Entries taken through the annotate, feedback, finalize loop.
    pub items: usize,
    /// Wall time of that loop, s.
    pub loop_s: f64,
    /// Wall time of the whole pass including review and export, s.
    pub pass_s: f64,
    pub drafts_ok: bool,
    pub export_round_trips: bool,
    pub digest: Digest,
}

/// Counters the traced replay gathers besides its spans.
#[derive(Default)]
pub struct CurateCounts {
    /// Size of the knowledge-base collection each retrieval searched.
    pub kb_docs: Vec<f64>,
    pub units_per_query: Vec<f64>,
    pub prompt_tokens: Vec<f64>,
    pub replay_mismatches: usize,
    /// Wall time the pass spent replaying calls and feeding the mirrored
    /// knowledge base, s: work the untraced pass does not do.
    pub replay_s: f64,
}

/// One closed-loop curation pass over the whole log of `corpus`, in a
/// fresh project. With a tracer, every call is a span and each annotate is
/// replayed through the public functions of the crates it calls.
pub fn curate_pass(
    corpus: &GeneratedBenchmark,
    seed: u64,
    ops: &mut Ops,
    mut tracer: Option<(&mut Tracer, &mut CurateCounts)>,
) -> CuratePass {
    let pass_start = Instant::now();
    let config = TaskConfig::default().with_seed(seed);
    let mut project = Project::new("curate", config);
    project.ingest_benchmark(corpus);
    // The traced replay's copy of the project knowledge base, fed the same
    // writes.
    let mut mirror = KnowledgeBase::new();
    let mut digest = Digest::default();
    let mut draft_ms = Vec::with_capacity(corpus.log.len());
    let mut drafts_ok = true;
    let items = project.log().len();
    for query_id in 0..items {
        let started = Instant::now();
        let drafted = match tracer.as_mut() {
            None => ops.run("annotate", || project.annotate(query_id)),
            Some((tr, counts)) => {
                tr.set_item(query_id as u64);
                let span = tr.open("core.annotate", None);
                let drafted = ops.run("annotate", || project.annotate(query_id));
                tr.close(span);
                if let Some(draft) = &drafted {
                    let started = Instant::now();
                    let replayed = replay_annotate(&project, &mirror, query_id, span, tr, counts);
                    counts.replay_s += started.elapsed().as_secs_f64();
                    if replayed.as_ref() != Some(&draft.candidates) {
                        counts.replay_mismatches += 1;
                    }
                }
                drafted
            }
        };
        draft_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let Some(draft) = drafted else { continue };
        drafts_ok &= draft.candidates.len() == CANDIDATES_PER_QUERY;
        if query_id < 64 {
            for candidate in &draft.candidates {
                digest.feed_str(candidate);
            }
        }
        let (actions, finalize) = feedback_for(&project, seed, query_id);
        for action in actions {
            match tracer.as_mut() {
                None => ops.run("feedback", || project.apply_feedback(query_id, action)),
                Some((tr, counts)) => {
                    if let FeedbackAction::AddKnowledge { topic, note } = &action {
                        let started = Instant::now();
                        mirror.add_knowledge(topic.clone(), note.clone());
                        counts.replay_s += started.elapsed().as_secs_f64();
                    }
                    tr.time("core.feedback", None, || {
                        ops.run("feedback", || project.apply_feedback(query_id, action))
                    })
                }
            };
        }
        if !finalize {
            continue;
        }
        let record = match tracer.as_mut() {
            None => ops.run("finalize", || project.finalize(query_id)),
            Some((tr, _)) => tr.time("core.finalize", None, || {
                ops.run("finalize", || project.finalize(query_id))
            }),
        };
        if let (Some(record), Some((tr, counts))) = (record, tracer.as_mut()) {
            let started = Instant::now();
            tr.time("embed.add", None, || {
                mirror.add_annotation(record.sql, record.description)
            });
            counts.replay_s += started.elapsed().as_secs_f64();
        }
    }
    let loop_s = pass_start.elapsed().as_secs_f64();

    // Review and export close the pass.
    let review = match tracer.as_mut() {
        None => review_metrics(&project),
        Some((tr, _)) => tr.time("metrics.review", None, || review_metrics(&project)),
    };
    let exported = ops.run("export", || export_json(&project));
    let export_round_trips = exported
        .as_deref()
        .and_then(|json| import_json(json).ok())
        .is_some_and(|back| back == export_records(&project));
    digest.feed_str(&format!(
        "{} {} {:.9} {:.9}",
        project.finalized_count(),
        review.compared,
        review.mean_bleu,
        review.mean_rouge_l
    ));
    digest.feed_str(exported.as_deref().unwrap_or(""));
    CuratePass {
        draft_ms,
        items,
        loop_s,
        pass_s: pass_start.elapsed().as_secs_f64(),
        drafts_ok,
        export_round_trips,
        digest,
    }
}

/// Re-run `Project::annotate`'s layer steps for one entry through the
/// public functions of bp-sql, bp-embed (via the mirrored knowledge base),
/// bp-llm and bp-datasets, recording each as a child span of the real
/// call. Returns the whole-query candidates, which must equal the real
/// draft's.
fn replay_annotate(
    project: &Project,
    kb: &KnowledgeBase,
    query_id: usize,
    parent: SpanId,
    tr: &mut Tracer,
    counts: &mut CurateCounts,
) -> Option<Vec<String>> {
    let config = project.config();
    let sql = &project.log()[query_id].sql;
    let p = Some(parent);
    let query = tr.time("sql.parse", p, || bp_sql::parse_query(sql)).ok()?;
    let decomposition = tr.time("sql.decompose", p, || {
        if config.auto_decompose && should_decompose(&query) {
            decompose(&query)
        } else {
            flat_decomposition(&query)
        }
    });
    counts
        .units_per_query
        .push(decomposition.units.len() as f64);
    let profile = config.model.profile();
    let knowledge_texts = kb.knowledge_texts();
    let mut unit_candidates = Vec::with_capacity(decomposition.units.len());
    for unit in &decomposition.units {
        counts.kb_docs.push(kb.annotation_count() as f64);
        let examples = tr.time("embed.search", p, || {
            kb.retrieve_examples(&unit.sql, config.top_k_examples)
        });
        let schema_context = tr.time("sql.schema_link", p, || schema_context(project, &unit.sql));
        counts.kb_docs.push(kb.knowledge_notes().len() as f64);
        let notes = tr.time("embed.search", p, || kb.retrieve_knowledge(&unit.sql, 3));
        let prompt = tr.time("llm.prompt_build", p, || {
            let mut builder = PromptBuilder::new(unit.sql.clone());
            for ddl in &schema_context {
                builder = builder.schema_table(ddl.clone());
            }
            for example in &examples {
                builder = builder.example(
                    example.sql.clone(),
                    example.description.clone(),
                    example.similarity,
                );
            }
            for note in notes {
                builder = builder.knowledge(note);
            }
            for priority in kb.priorities() {
                builder = builder.priority(priority.clone());
            }
            builder.build()
        });
        counts
            .prompt_tokens
            .push(prompt.approximate_tokens() as f64);
        let unresolved = tr.time("datasets.unresolved_terms", p, || {
            project
                .lexicon()
                .unresolved_terms_in(&unit.sql, &knowledge_texts)
        });
        let request = GenerationRequest {
            query: &unit.query,
            prompt: &prompt,
            unresolved_domain_terms: unresolved,
            seed: config.seed ^ bp_llm::sql2nl::stable_hash(&unit.sql),
        };
        let candidates = tr.time("llm.generate", p, || {
            generate_candidates(&profile, &request)
        });
        unit_candidates.push((unit.name.clone(), candidates));
    }
    tr.time("sql.recompose", p, || {
        let count = unit_candidates
            .first()
            .map(|(_, c)| c.len())
            .unwrap_or(CANDIDATES_PER_QUERY);
        (0..count)
            .map(|index| {
                let descriptions: Vec<UnitDescription> = unit_candidates
                    .iter()
                    .map(|(name, c)| {
                        let text = c
                            .get(index)
                            .or_else(|| c.first())
                            .map(|c| c.text.clone())
                            .unwrap_or_default();
                        UnitDescription::new(name.clone(), text)
                    })
                    .collect();
                bp_sql::recompose(&decomposition, &descriptions).ok()
            })
            .collect()
    })
}

/// The single-unit decomposition `Project::annotate` uses for queries it
/// does not decompose.
fn flat_decomposition(query: &bp_sql::Query) -> Decomposition {
    Decomposition {
        units: vec![AnnotationUnit {
            name: "FINAL".to_string(),
            sql: query.to_string(),
            query: query.clone(),
            role: bp_sql::UnitRole::Final,
        }],
        rewritten: query.clone(),
        was_decomposed: false,
    }
}

/// Schema linking as `Project::annotate` does it: the DDL of the tables a
/// unit references, else the first `top_k_tables` tables of the catalog.
fn schema_context(project: &Project, unit_sql: &str) -> Vec<String> {
    let catalog = project.database().catalog();
    let top_k = project.config().top_k_tables;
    let mut context = Vec::new();
    if let Ok(query) = bp_sql::parse_query(unit_sql) {
        for table in &bp_sql::analyze(&query).tables {
            if let Some(schema) = catalog.table(table) {
                context.push(schema.to_create_table_sql());
            }
        }
    }
    if context.is_empty() {
        context = catalog
            .tables()
            .take(top_k)
            .map(|t| t.to_create_table_sql())
            .collect();
    }
    context.truncate(top_k.max(1));
    context
}
