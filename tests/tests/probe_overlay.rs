//! Count-only probes measure what the refined program returns on the
//! rules whose extraction calls all read one input: for every question of
//! the DBLife tasks and every value of its static answer space, the
//! engine's count (`Engine::probe_sizes`) and the refined program
//! (`add_constraint`) run through `run_sampled` have the same expanded
//! size over the sample a session draws, at corpus scales 1 and 3. Every
//! question is counted: its probe starts one run, the base relation's.

use iflex::assistant::{add_constraint, answer_space, question_space};
use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_engine::obs::{Phase, SpanKind, TraceEvent};
use iflex_engine::ProbeSpec;
use std::collections::BTreeSet;

#[test]
fn overlay_probes_match_refined_sizes_on_dblife_tasks() {
    for scale in [1.0, 3.0] {
        let c = Corpus::build(CorpusConfig::scaled(scale));
        for id in TaskId::DBLIFE {
            let task = c.task(id, None);
            let mut engine = task.engine(&c);
            engine.tracer.enable();
            let runs = |engine: &Engine| {
                let events = engine.tracer.events();
                let run = |e: &&TraceEvent| e.ph == Phase::Begin && e.kind == SpanKind::Run;
                events.iter().filter(run).count()
            };
            let input = engine.ext_tables().map(|(_, t)| t.len()).max().unwrap_or(0);
            let sample = Sample::auto(input, SessionConfig::default().sample_seed);
            let program = &task.program;
            let questions = question_space(program, engine.features(), &BTreeSet::new());
            let mut counted = 0;
            for q in questions {
                let values = answer_space(&q.feature);
                let spec = ProbeSpec {
                    pred: &q.attr.pred,
                    pos: q.attr.pos,
                    var: &q.attr.var,
                    feature: &q.feature,
                    values: &values,
                };
                // Every attribute of every DBLife task is counted, Chair's
                // `x` (read only by `extractType(#x, z)`) included.
                let before = runs(&engine);
                let sizes = engine.probe_sizes(program, sample, &[spec]).remove(0);
                let started = runs(&engine) - before;
                assert!(started <= 1, "{id:?}: {} is run, not counted", q.text);
                for (v, (size, _)) in values.iter().zip(sizes.expect("count runs")) {
                    counted += 1;
                    let refined = add_constraint(program, &q.attr, &q.feature, v);
                    let t = engine.run_sampled(&refined, sample).expect("probe runs");
                    let exact = t.expanded_len(engine.store()) as usize;
                    assert_eq!(size, exact, "{id:?} at scale {scale}: {} = {v:?}", q.text);
                }
            }
            assert!(counted > 0, "{id:?}: no probe was counted");
        }
    }
}
