//! Overlay probes measure what the refined program returns on the rules
//! whose extraction calls all read one input: for every question of the
//! DBLife tasks and every value of its static answer space, the split
//! probe (`question::probe_program`) and the refined program
//! (`add_constraint`) have the same expanded size over the sample a
//! session draws.

use iflex::assistant::question::probe_program;
use iflex::assistant::{add_constraint, answer_space, question_space};
use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use std::collections::BTreeSet;

#[test]
fn overlay_probes_match_refined_sizes_on_dblife_tasks() {
    let c = Corpus::build(CorpusConfig::scaled(1.0));
    for id in TaskId::DBLIFE {
        let task = c.task(id, None);
        let mut engine = task.engine(&c);
        let input = engine.ext_tables().map(|(_, t)| t.len()).max().unwrap_or(0);
        let sample = Sample::auto(input, SessionConfig::default().sample_seed);
        let program = &task.program;
        let questions = question_space(program, engine.features(), &BTreeSet::new());
        let mut size = |p: &Program| {
            let t = engine.run_sampled(p, sample).expect("probe runs");
            t.expanded_len(engine.store())
        };
        let mut split = 0;
        for q in questions {
            for v in answer_space(&q.feature) {
                let probe = probe_program(program, &q.attr, &q.feature, &v);
                split += usize::from(probe.query != program.query);
                let overlay = size(&probe);
                let exact = size(&add_constraint(program, &q.attr, &q.feature, &v));
                assert_eq!(overlay, exact, "{id:?}: {} = {v:?}", q.text);
            }
        }
        // Every DBLife task has an attribute that no other atom reads.
        assert!(split > 0, "{id:?}: no probe was split");
    }
}
