//! The paper's IE tasks (Table 2: T1–T9) and the three DBLife tasks
//! (Table 6), as runnable [`Task`]s: initial Alog program, extensional
//! tables, a ground-truth oracle for the simulated developer, and the
//! correct result.

use crate::Corpus;
use iflex::engine::Engine;
use iflex::prelude::{parse_program, Program};
use iflex::{norm_text, OracleSpec, Truth};
use iflex_ctable::Value;
use iflex::engine::similarity::norm_tokens;
use iflex_features::{FeatureArg, FeatureValue};
use iflex_text::{tokenize, DocId, TokenKind};

/// Task identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskId {
    /// IMDB movies with fewer than 25 000 votes.
    T1,
    /// Ebert movies made between 1950 and 1970.
    T2,
    /// Titles in all three movie lists.
    T3,
    /// Garcia-Molina journal publications.
    T4,
    /// VLDB publications of 5 or fewer pages.
    T5,
    /// SIGMOD/ICDE publications sharing authors.
    T6,
    /// Barnes & Noble books over $100.
    T7,
    /// Amazon books with list == new and used < new.
    T8,
    /// Books cheaper at Amazon than at Barnes & Noble.
    T9,
    /// DBLife: panelists at conferences.
    Panel,
    /// DBLife: people and their projects.
    Project,
    /// DBLife: conference chairs and their types.
    Chair,
}

impl TaskId {
    /// The nine Table-2 tasks.
    pub const TABLE2: [TaskId; 9] = [
        TaskId::T1,
        TaskId::T2,
        TaskId::T3,
        TaskId::T4,
        TaskId::T5,
        TaskId::T6,
        TaskId::T7,
        TaskId::T8,
        TaskId::T9,
    ];

    /// The three DBLife tasks (Table 6).
    pub const DBLIFE: [TaskId; 3] = [TaskId::Panel, TaskId::Project, TaskId::Chair];

    /// The name.
    pub fn name(self) -> &'static str {
        match self {
            TaskId::T1 => "T1",
            TaskId::T2 => "T2",
            TaskId::T3 => "T3",
            TaskId::T4 => "T4",
            TaskId::T5 => "T5",
            TaskId::T6 => "T6",
            TaskId::T7 => "T7",
            TaskId::T8 => "T8",
            TaskId::T9 => "T9",
            TaskId::Panel => "Panel",
            TaskId::Project => "Project",
            TaskId::Chair => "Chair",
        }
    }

    /// Domain.
    pub fn domain(self) -> &'static str {
        match self {
            TaskId::T1 | TaskId::T2 | TaskId::T3 => "Movies",
            TaskId::T4 | TaskId::T5 | TaskId::T6 => "DBLP",
            TaskId::T7 | TaskId::T8 | TaskId::T9 => "Books",
            _ => "DBLife",
        }
    }

    /// Description.
    pub fn description(self) -> &'static str {
        match self {
            TaskId::T1 => "IMDB top movies with fewer than 25,000 votes",
            TaskId::T2 => "Ebert top movies made between 1950 and 1970",
            TaskId::T3 => "Movie titles that occur in IMDB, Ebert, and Prasanna's top movies",
            TaskId::T4 => "Garcia-Molina journal pubs",
            TaskId::T5 => "VLDB short publications of 5 or fewer pages",
            TaskId::T6 => "SIGMOD/ICDE pubs sharing authors",
            TaskId::T7 => "B&N books with price over $100",
            TaskId::T8 => "Amazon books whose list price equals the new price and used price is less than the new price",
            TaskId::T9 => "Books that are cheaper at Amazon than at Barnes",
            TaskId::Panel => "Find (x,y) where person x is a panelist at conference y",
            TaskId::Project => "Find (x,y) where person x works on project y",
            TaskId::Chair => "Find (x,y,z) where person x is a chair of type z at conference y",
        }
    }
}

/// A fully-specified runnable task.
pub struct Task {
    /// The id.
    pub id: TaskId,
    /// The initial approximate Alog program.
    pub program: Program,
    /// Extensional doc tables (name, record documents).
    pub tables: Vec<(String, Vec<DocId>)>,
    /// Ground-truth feature knowledge for the simulated developer.
    pub oracle: OracleSpec,
    /// The correct result (normalized rows).
    pub truth: Truth,
    /// Result columns corresponding to truth columns, in order.
    pub truth_cols: Vec<usize>,
    /// True when the task needs the `extractType` cleanup procedure.
    pub needs_type_cleanup: bool,
}

impl Task {
    /// Builds an engine with this task's tables registered.
    pub fn engine(&self, corpus: &Corpus) -> Engine {
        let mut eng = Engine::new(corpus.store.clone());
        for (name, ids) in &self.tables {
            eng.add_doc_table(name, ids);
        }
        if self.needs_type_cleanup {
            register_type_cleanup(&mut eng);
        }
        eng
    }
}

/// Registers the Chair task's cleanup p-predicate `extractType(#x, z)`
/// (§2.2.4): looks at the text immediately before the person span and
/// returns the chair type when the span is labeled `"<Type> Chair:"`.
pub fn register_type_cleanup(engine: &mut Engine) {
    engine
        .procs_mut()
        .register_generator("extractType", 1, |store, args| {
            let Some(Value::Span(s)) = args.first() else {
                return vec![];
            };
            let text = store.doc(s.doc).text();
            let Some(label) = text[..s.start as usize].trim_end().strip_suffix(" Chair:") else {
                return vec![];
            };
            ["PC", "General", "Program", "Demo"]
                .into_iter()
                .find(|ty| label.ends_with(ty))
                .map(|ty| vec![vec![Value::Str(ty.to_string())]])
                .unwrap_or_default()
        });
}

/// Scenario subsetting (Table 3's "Num Tuples per Table" column): the
/// paper sampled input pages randomly; an evenly-spread stride keeps
/// cross-list title overlaps proportional and stays deterministic.
/// Precomputed token sets for fast pairwise `approx_match` over whole
/// lists (the truth computations are O(n·m) pairs).
fn token_sets<'a, T>(items: &'a [(DocId, T)], f: impl Fn(&'a T) -> &'a str) -> Vec<std::collections::BTreeSet<String>> {
    items.iter().map(|(_, r)| norm_tokens(f(r))).collect()
}

fn sets_match(a: &std::collections::BTreeSet<String>, b: &std::collections::BTreeSet<String>) -> bool {
    let smaller = a.len().min(b.len());
    if smaller == 0 {
        return false;
    }
    let inter = a.intersection(b).count();
    inter as f64 / smaller as f64 >= 0.8
}

fn take<T: Clone>(items: &[(DocId, T)], n: Option<usize>) -> Vec<(DocId, T)> {
    match n {
        Some(n) if n < items.len() => (0..n)
            .map(|k| items[k * items.len() / n].clone())
            .collect(),
        _ => items.to_vec(),
    }
}

fn ids<T>(items: &[(DocId, T)]) -> Vec<DocId> {
    items.iter().map(|(id, _)| *id).collect()
}

fn tri(v: FeatureValue) -> FeatureArg {
    FeatureArg::Tri(v)
}

fn text(s: &str) -> FeatureArg {
    FeatureArg::Text(s.to_string())
}

/// Adds `capitalized(attr) = yes` when it holds on every one of `titles`
/// — the titles behind the task's ground-truth tuples — by the
/// `capitalized` feature's own rule: every word token starts uppercase.
/// A developer who has seen "Crimson River of Dawn" does not claim it.
fn capitalized_if<'a>(
    oracle: OracleSpec,
    attr: &str,
    mut titles: impl Iterator<Item = &'a str>,
) -> OracleSpec {
    let capitalized = |title: &str| {
        let mut words = tokenize(title)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Word)
            .peekable();
        words.peek().is_some() && words.all(|t| title[t.range()].starts_with(char::is_uppercase))
    };
    if titles.all(capitalized) {
        oracle.knows(attr, "capitalized", tri(FeatureValue::Yes))
    } else {
        oracle
    }
}

/// Adds truthful "style absent" answers for an attribute: the developer
/// can always answer appearance questions after visual inspection (§5.1.1).
fn deny_styles(mut oracle: OracleSpec, attr: &str, except: &[&str]) -> OracleSpec {
    for f in [
        "bold-font",
        "italic-font",
        "underlined",
        "hyperlinked",
        "in-title",
        "in-list",
        "numeric",
    ] {
        if !except.contains(&f) {
            oracle = oracle.knows(attr, f, tri(FeatureValue::No));
        }
    }
    oracle
}

impl Corpus {
    /// Builds a task over the first `n` records per table (`None` = all).
    pub fn task(&self, id: TaskId, n: Option<usize>) -> Task {
        match id {
            TaskId::T1 => self.t1(n),
            TaskId::T2 => self.t2(n),
            TaskId::T3 => self.t3(n),
            TaskId::T4 => self.t4(n),
            TaskId::T5 => self.t5(n),
            TaskId::T6 => self.t6(n),
            TaskId::T7 => self.t7(n),
            TaskId::T8 => self.t8(n),
            TaskId::T9 => self.t9(n),
            TaskId::Panel => self.panel(),
            TaskId::Project => self.project(),
            TaskId::Chair => self.chair(),
        }
    }

    fn t1(&self, n: Option<usize>) -> Task {
        let recs = take(&self.movies.imdb, n);
        let program = parse_program(
            r#"
            t1(title) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
            extractIMDB(#x, title, votes) :- from(#x, title), from(#x, votes),
                bold-font(title) = distinct-yes, numeric(votes) = yes.
        "#,
        )
        .expect("T1 program");
        let oracle = OracleSpec::new()
            .knows("extractIMDB.title", "followed-by", text("("))
            .knows("extractIMDB.title", "capitalized", tri(FeatureValue::Yes))
            .knows("extractIMDB.votes", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractIMDB.votes", "preceded-by", text("votes"))
            .knows("extractIMDB.votes", "max-value", FeatureArg::Num(500000.0))
            .knows("extractIMDB.votes", "min-value", FeatureArg::Num(1000.0));
        let oracle = deny_styles(oracle, "extractIMDB.votes", &["underlined", "numeric"]);
        let truth = recs
            .iter()
            .filter(|(_, r)| r.votes < 25_000)
            .map(|(_, r)| vec![norm_text(&r.title)])
            .collect();
        Task {
            id: TaskId::T1,
            program,
            tables: vec![("imdb".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t2(&self, n: Option<usize>) -> Task {
        let recs = take(&self.movies.ebert, n);
        let program = parse_program(
            r#"
            t2(title) :- ebert(x), extractEbert(#x, title, year), 1950 <= year, year < 1970.
            extractEbert(#x, title, year) :- from(#x, title), from(#x, year),
                italic-font(title) = distinct-yes, numeric(year) = yes.
        "#,
        )
        .expect("T2 program");
        let oracle = OracleSpec::new()
            .knows("extractEbert.title", "followed-by", text("released"))
            .knows("extractEbert.year", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractEbert.year", "preceded-by", text("released"))
            .knows("extractEbert.year", "max-value", FeatureArg::Num(2010.0))
            .knows("extractEbert.year", "min-value", FeatureArg::Num(1900.0));
        let oracle = deny_styles(oracle, "extractEbert.year", &["numeric", "underlined"]);
        let truth_recs = || {
            recs.iter()
                .map(|(_, r)| r)
                .filter(|r| (1950..1970).contains(&r.year))
        };
        let oracle = capitalized_if(
            oracle,
            "extractEbert.title",
            truth_recs().map(|r| r.title.as_str()),
        );
        let truth = truth_recs().map(|r| vec![norm_text(&r.title)]).collect();
        Task {
            id: TaskId::T2,
            program,
            tables: vec![("ebert".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t3(&self, n: Option<usize>) -> Task {
        let imdb = take(&self.movies.imdb, n);
        let ebert = take(&self.movies.ebert, n);
        let pras = take(&self.movies.prasanna, n.map(|k| k * 2)); // paper: 242-517
        let program = parse_program(
            r#"
            t3(title1) :- imdb(x), extractIMDBt(#x, title1),
                          ebert(y), extractEbertT(#y, title2),
                          prasanna(z), extractPrasT(#z, title3),
                          similar(#title1, #title2), similar(#title2, #title3).
            extractIMDBt(#x, t) :- from(#x, t).
            extractEbertT(#y, t) :- from(#y, t).
            extractPrasT(#z, t) :- from(#z, t).
        "#,
        )
        .expect("T3 program");
        let oracle = OracleSpec::new()
            .knows("extractIMDBt.t", "bold-font", tri(FeatureValue::DistinctYes))
            .knows("extractIMDBt.t", "followed-by", text("("))
            .knows("extractEbertT.t", "italic-font", tri(FeatureValue::DistinctYes))
            .knows("extractEbertT.t", "followed-by", text("released"))
            .knows("extractPrasT.t", "bold-font", tri(FeatureValue::DistinctYes))
            .knows("extractPrasT.t", "followed-by", text("genre"));
        // truth: one row per (imdb, ebert, prasanna) triple whose titles
        // approximately match (the result is a bag of join triples)
        let i_tokens = token_sets(&imdb, |r| r.title.as_str());
        let e_tokens = token_sets(&ebert, |r| r.title.as_str());
        let p_tokens = token_sets(&pras, |r| r.title.as_str());
        let mut truth: Truth = Vec::new();
        // The IMDB and Prasanna titles behind truth triples, for the
        // oracle's `capitalized` facts.
        let (mut i_titles, mut p_titles) = (Vec::new(), Vec::new());
        for ((_, r1), t1) in imdb.iter().zip(&i_tokens) {
            for t2 in &e_tokens {
                if !sets_match(t1, t2) {
                    continue;
                }
                for ((_, r3), t3) in pras.iter().zip(&p_tokens) {
                    if sets_match(t2, t3) {
                        truth.push(vec![norm_text(&r1.title)]);
                        i_titles.push(r1.title.as_str());
                        p_titles.push(r3.title.as_str());
                    }
                }
            }
        }
        let oracle = capitalized_if(oracle, "extractIMDBt.t", i_titles.into_iter());
        let oracle = capitalized_if(oracle, "extractPrasT.t", p_titles.into_iter());
        Task {
            id: TaskId::T3,
            program,
            tables: vec![
                ("imdb".into(), ids(&imdb)),
                ("ebert".into(), ids(&ebert)),
                ("prasanna".into(), ids(&pras)),
            ],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t4(&self, n: Option<usize>) -> Task {
        let recs = take(&self.dblp.gm, n);
        let program = parse_program(
            r#"
            t4(title) :- gm(x), extractPubs(#x, title, jyear), jyear != NULL.
            extractPubs(#x, title, jyear) :- from(#x, title), from(#x, jyear),
                italic-font(title) = distinct-yes.
        "#,
        )
        .expect("T4 program");
        let oracle = OracleSpec::new()
            .knows("extractPubs.title", "followed-by", text("by"))
            .knows("extractPubs.jyear", "numeric", tri(FeatureValue::Yes))
            .knows("extractPubs.jyear", "bold-font", tri(FeatureValue::DistinctYes))
            .knows("extractPubs.jyear", "preceded-by", text("journal year"));
        let oracle = deny_styles(oracle, "extractPubs.jyear", &["numeric", "bold-font"]);
        let truth = recs
            .iter()
            .filter(|(_, r)| r.journal.is_some())
            .map(|(_, r)| vec![norm_text(&r.title)])
            .collect();
        Task {
            id: TaskId::T4,
            program,
            tables: vec![("gm".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t5(&self, n: Option<usize>) -> Task {
        let recs = take(&self.dblp.vldb, n);
        let program = parse_program(
            r#"
            t5(title) :- vldb(x), extractVLDB(#x, title, fp, lp), lp < fp + 5.
            extractVLDB(#x, title, fp, lp) :- from(#x, title), from(#x, fp), from(#x, lp),
                bold-font(title) = distinct-yes, numeric(fp) = yes, numeric(lp) = yes.
        "#,
        )
        .expect("T5 program");
        let oracle = OracleSpec::new()
            .knows("extractVLDB.title", "followed-by", text("by"))
            .knows("extractVLDB.fp", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractVLDB.fp", "preceded-by", text("pages"))
            .knows("extractVLDB.lp", "preceded-by", text("-"))
            .knows("extractVLDB.fp", "max-value", FeatureArg::Num(450.0))
            .knows("extractVLDB.lp", "max-value", FeatureArg::Num(450.0));
        let oracle = deny_styles(oracle, "extractVLDB.fp", &["numeric", "underlined"]);
        let oracle = deny_styles(oracle, "extractVLDB.lp", &["numeric"]);
        let truth = recs
            .iter()
            .filter(|(_, r)| r.last_page < r.first_page + 5)
            .map(|(_, r)| vec![norm_text(&r.title)])
            .collect();
        Task {
            id: TaskId::T5,
            program,
            tables: vec![("vldb".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t6(&self, n: Option<usize>) -> Task {
        let sigmod = take(&self.dblp.sigmod, n);
        let icde = take(&self.dblp.icde, n);
        let program = parse_program(
            r#"
            t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                          icde(y), extractICDE(#y, title2, authors2),
                          similar(#authors1, #authors2).
            extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a),
                bold-font(t) = distinct-yes.
            extractICDE(#y, t, a) :- from(#y, t), from(#y, a),
                bold-font(t) = distinct-yes.
        "#,
        )
        .expect("T6 program");
        let oracle = OracleSpec::new()
            .knows("extractSIGMOD.a", "italic-font", tri(FeatureValue::DistinctYes))
            .knows("extractSIGMOD.a", "capitalized", tri(FeatureValue::Yes))
            .knows("extractSIGMOD.t", "followed-by", text("by"))
            .knows("extractICDE.a", "italic-font", tri(FeatureValue::DistinctYes))
            .knows("extractICDE.a", "capitalized", tri(FeatureValue::Yes))
            .knows("extractICDE.t", "followed-by", text("by"));
        // one row per matching (sigmod, icde) pair — the result is a bag
        let s_tokens = token_sets(&sigmod, |r| r.authors.as_str());
        let i_tokens = token_sets(&icde, |r| r.authors.as_str());
        let mut truth: Truth = Vec::new();
        for ((_, r1), t1) in sigmod.iter().zip(&s_tokens) {
            for t2 in &i_tokens {
                if sets_match(t1, t2) {
                    truth.push(vec![norm_text(&r1.title)]);
                }
            }
        }
        Task {
            id: TaskId::T6,
            program,
            tables: vec![("sigmod".into(), ids(&sigmod)), ("icde".into(), ids(&icde))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t7(&self, n: Option<usize>) -> Task {
        let recs = take(&self.books.barnes, n);
        let program = parse_program(
            r#"
            t7(title) :- barnes(x), extractBarnes(#x, title, price), price > 100.
            extractBarnes(#x, title, price) :- from(#x, title), from(#x, price),
                bold-font(title) = distinct-yes, numeric(price) = yes.
        "#,
        )
        .expect("T7 program");
        let oracle = OracleSpec::new()
            .knows("extractBarnes.title", "followed-by", text("our price"))
            .knows("extractBarnes.price", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractBarnes.price", "preceded-by", text("price $"))
            .knows("extractBarnes.price", "max-value", FeatureArg::Num(200.0));
        let oracle = deny_styles(oracle, "extractBarnes.price", &["numeric", "underlined"]);
        let truth = recs
            .iter()
            .filter(|(_, r)| r.price_cents > 10_000) // $100 in cents
            .map(|(_, r)| vec![norm_text(&r.title)])
            .collect();
        Task {
            id: TaskId::T7,
            program,
            tables: vec![("barnes".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t8(&self, n: Option<usize>) -> Task {
        let recs = take(&self.books.amazon, n);
        let program = parse_program(
            r#"
            t8(title) :- amazon(x), extractAmazon(#x, title, lp, np, up),
                         lp = np, up < np.
            extractAmazon(#x, title, lp, np, up) :- from(#x, title), from(#x, lp),
                from(#x, np), from(#x, up),
                bold-font(title) = distinct-yes,
                numeric(lp) = yes, numeric(np) = yes, numeric(up) = yes.
        "#,
        )
        .expect("T8 program");
        let oracle = OracleSpec::new()
            .knows("extractAmazon.title", "followed-by", text("List:"))
            .knows("extractAmazon.lp", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractAmazon.lp", "preceded-by", text("List: $"))
            .knows("extractAmazon.np", "preceded-by", text("New: $"))
            .knows("extractAmazon.up", "italic-font", tri(FeatureValue::DistinctYes))
            .knows("extractAmazon.up", "preceded-by", text("Used: $"))
            .knows("extractAmazon.lp", "max-value", FeatureArg::Num(200.0))
            .knows("extractAmazon.np", "max-value", FeatureArg::Num(200.0))
            .knows("extractAmazon.up", "max-value", FeatureArg::Num(200.0));
        let truth = recs
            .iter()
            .filter(|(_, r)| r.list_cents == r.new_cents && r.used_cents < r.new_cents)
            .map(|(_, r)| vec![norm_text(&r.title)])
            .collect();
        Task {
            id: TaskId::T8,
            program,
            tables: vec![("amazon".into(), ids(&recs))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn t9(&self, n: Option<usize>) -> Task {
        let amazon = take(&self.books.amazon, n);
        let barnes = take(&self.books.barnes, n.map(|k| k * 2));
        let program = parse_program(
            r#"
            t9(title1) :- amazon(x), extractAmazonT(#x, title1, np),
                          barnes(y), extractBarnesT(#y, title2, bp),
                          similar(#title1, #title2), np < bp.
            extractAmazonT(#x, t, p) :- from(#x, t), from(#x, p), numeric(p) = yes.
            extractBarnesT(#y, t, p) :- from(#y, t), from(#y, p), numeric(p) = yes.
        "#,
        )
        .expect("T9 program");
        let oracle = OracleSpec::new()
            .knows("extractAmazonT.t", "bold-font", tri(FeatureValue::DistinctYes))
            .knows("extractAmazonT.t", "followed-by", text("List:"))
            .knows("extractAmazonT.p", "preceded-by", text("New: $"))
            .knows("extractBarnesT.t", "bold-font", tri(FeatureValue::DistinctYes))
            .knows("extractBarnesT.t", "followed-by", text("our price"))
            .knows("extractBarnesT.p", "underlined", tri(FeatureValue::DistinctYes))
            .knows("extractBarnesT.p", "preceded-by", text("price $"))
            .knows("extractAmazonT.p", "max-value", FeatureArg::Num(200.0))
            .knows("extractBarnesT.p", "max-value", FeatureArg::Num(200.0));
        let oracle = deny_styles(oracle, "extractAmazonT.p", &["numeric"]);
        let oracle = deny_styles(oracle, "extractBarnesT.p", &["numeric", "underlined"]);
        // one row per matching (amazon, barnes) pair with the Amazon copy
        // cheaper — the result is a bag of join pairs
        let a_tokens = token_sets(&amazon, |r| r.title.as_str());
        let b_tokens = token_sets(&barnes, |r| r.title.as_str());
        let mut truth: Truth = Vec::new();
        for ((_, ra), t1) in amazon.iter().zip(&a_tokens) {
            for ((_, rb), t2) in barnes.iter().zip(&b_tokens) {
                if ra.new_cents < rb.price_cents && sets_match(t1, t2) {
                    truth.push(vec![norm_text(&ra.title)]);
                }
            }
        }
        Task {
            id: TaskId::T9,
            program,
            tables: vec![("amazon".into(), ids(&amazon)), ("barnes".into(), ids(&barnes))],
            oracle,
            truth,
            truth_cols: vec![0],
            needs_type_cleanup: false,
        }
    }

    fn panel(&self) -> Task {
        let program = parse_program(
            r#"
            onPanel(x, y) :- docs(d), extractPanelists(#d, x), extractConference(#d, y).
            extractPanelists(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#,
        )
        .expect("Panel program");
        let oracle = OracleSpec::new()
            .knows("extractPanelists.x", "prec-label-contains", text("panel"))
            .knows("extractPanelists.x", "capitalized", tri(FeatureValue::Yes))
            .knows("extractPanelists.x", "prec-label-max-dist", FeatureArg::Num(700.0))
            .knows("extractConference.y", "starts-with", text("[A-Z][A-Z]+"))
            .knows(
                "extractConference.y",
                "ends-with",
                text("0\\d|19\\d\\d|20\\d\\d"),
            )
            .knows("extractConference.y", "max-length", FeatureArg::Num(18.0));
        let truth = self
            .dblife
            .panels
            .iter()
            .map(|(p, c)| vec![norm_text(p), norm_text(c)])
            .collect();
        Task {
            id: TaskId::Panel,
            program,
            tables: vec![("docs".into(), self.dblife.docs.clone())],
            oracle,
            truth,
            truth_cols: vec![0, 1],
            needs_type_cleanup: false,
        }
    }

    fn project(&self) -> Task {
        let program = parse_program(
            r#"
            worksOn(x, y) :- docs(d), extractOwner(#d, x), extractProjects(#d, y).
            extractOwner(#d, x) :- from(#d, x), person-name(x) = yes.
            extractProjects(#d, y) :- from(#d, y), in-title(y) = yes.
        "#,
        )
        .expect("Project program");
        let oracle = OracleSpec::new()
            .knows("extractOwner.x", "prec-label-contains", text("members"))
            .knows("extractOwner.x", "capitalized", tri(FeatureValue::Yes))
            .knows("extractProjects.y", "ends-with", text("Project"))
            .knows("extractProjects.y", "capitalized", tri(FeatureValue::Yes));
        let truth = self
            .dblife
            .projects
            .iter()
            .map(|(p, proj)| vec![norm_text(p), norm_text(proj)])
            .collect();
        Task {
            id: TaskId::Project,
            program,
            tables: vec![("docs".into(), self.dblife.docs.clone())],
            oracle,
            truth,
            truth_cols: vec![0, 1],
            needs_type_cleanup: false,
        }
    }

    fn chair(&self) -> Task {
        let program = parse_program(
            r#"
            chair(x, y, z) :- docs(d), extractChairs(#d, x), extractConference(#d, y),
                              extractType(#x, z).
            extractChairs(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#,
        )
        .expect("Chair program");
        let oracle = OracleSpec::new()
            .knows(
                "extractChairs.x",
                "prec-label-contains",
                text("organization"),
            )
            .knows("extractChairs.x", "capitalized", tri(FeatureValue::Yes))
            .knows("extractConference.y", "starts-with", text("[A-Z][A-Z]+"))
            .knows(
                "extractConference.y",
                "ends-with",
                text("0\\d|19\\d\\d|20\\d\\d"),
            )
            .knows("extractConference.y", "max-length", FeatureArg::Num(18.0));
        let truth = self
            .dblife
            .chairs
            .iter()
            .map(|(p, ty, c)| vec![norm_text(p), norm_text(c), norm_text(ty)])
            .collect();
        Task {
            id: TaskId::Chair,
            program,
            tables: vec![("docs".into(), self.dblife.docs.clone())],
            oracle,
            truth,
            truth_cols: vec![0, 1, 2],
            needs_type_cleanup: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusConfig;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn every_task_has_nonempty_truth_at_tiny_scale() {
        let c = Corpus::build(CorpusConfig::tiny());
        for id in TaskId::TABLE2 {
            let task = c.task(id, Some(30));
            assert!(!task.truth.is_empty(), "{id:?} has an empty answer");
        }
        for id in TaskId::DBLIFE {
            let task = c.task(id, None);
            assert!(!task.truth.is_empty(), "{id:?} has an empty answer");
        }
    }

    #[test]
    fn truths_shrink_with_scenario_size() {
        let c = Corpus::build(CorpusConfig::tiny());
        for id in [TaskId::T1, TaskId::T4, TaskId::T7] {
            let small = c.task(id, Some(10)).truth.len();
            let large = c.task(id, Some(30)).truth.len();
            assert!(small <= large, "{id:?}: {small} > {large}");
        }
    }

    #[test]
    fn initial_programs_validate_against_their_engines() {
        let c = Corpus::build(CorpusConfig::tiny());
        for id in TaskId::TABLE2.iter().chain(TaskId::DBLIFE.iter()) {
            let task = c.task(*id, Some(10));
            let engine = task.engine(&c);
            let errors = iflex::alog::validate(&task.program, &engine.validate_env());
            assert!(errors.is_empty(), "{id:?}: {errors:?}");
        }
    }

    #[test]
    fn oracles_are_truthful() {
        // every oracle answer must actually verify on at least one true
        // value occurrence in the corpus (spot-check T1's votes)
        let c = Corpus::build(CorpusConfig::tiny());
        let task = c.task(TaskId::T1, Some(10));
        let engine = task.engine(&c);
        let reg = engine.features();
        let (doc, rec) = &c.movies.imdb[0];
        let text = c.store.doc(*doc).text().to_string();
        let vs = text.find(&rec.votes.to_string()).unwrap() as u32;
        let span = iflex_text::Span::new(*doc, vs, vs + rec.votes.to_string().len() as u32);
        for (feature, expect) in [
            ("underlined", FeatureArg::distinct_yes()),
            ("numeric", FeatureArg::Tri(FeatureValue::Yes)),
        ] {
            let f = reg.get(feature).unwrap();
            assert!(
                f.verify(&c.store, span, &expect).unwrap(),
                "{feature} should hold on the true votes span"
            );
        }
    }

    /// Checks a claimed `capitalized(attr) = yes` with the feature's own
    /// `Verify` on each title's span in its record document.
    fn assert_capitalized_holds(
        c: &Corpus,
        task: &Task,
        attr: &str,
        titles: &[(DocId, &str)],
    ) {
        if task.oracle.lookup(attr, "capitalized").is_none() {
            return;
        }
        assert!(!titles.is_empty(), "{:?}: no truth titles", task.id);
        let engine = task.engine(c);
        let f = engine.features().get("capitalized").unwrap();
        for &(doc, title) in titles {
            let at = c.store.doc(doc).text().find(title).unwrap() as u32;
            let span = iflex_text::Span::new(doc, at, at + title.len() as u32);
            let yes = FeatureArg::Tri(FeatureValue::Yes);
            assert!(
                f.verify(&c.store, span, &yes).unwrap(),
                "{:?}: the oracle claims {attr} capitalized, but not on {title:?}",
                task.id
            );
        }
    }

    #[test]
    fn capitalized_facts_hold_on_every_truth_title() {
        // T2 and T3 at scale 10 reach the "{adj} {noun} of {noun2}" titles.
        let ten = CorpusConfig::scaled(10.0);
        let c = Corpus::build(CorpusConfig {
            n_imdb: ten.n_imdb,
            n_ebert: ten.n_ebert,
            n_prasanna: ten.n_prasanna,
            ..CorpusConfig::tiny()
        });
        let m = &c.movies;
        let title_of: BTreeMap<DocId, &str> = m
            .imdb
            .iter()
            .map(|(d, r)| (*d, r.title.as_str()))
            .chain(m.ebert.iter().map(|(d, r)| (*d, r.title.as_str())))
            .chain(m.prasanna.iter().map(|(d, r)| (*d, r.title.as_str())))
            .collect();
        // The (document, title) records of one of a task's tables.
        let recs = |task: &Task, table: &str| -> Vec<(DocId, &str)> {
            let (_, ids) = task.tables.iter().find(|(t, _)| t == table).unwrap();
            ids.iter().map(|id| (*id, title_of[id])).collect()
        };

        let t2 = c.task(TaskId::T2, Some(500));
        let year_of: BTreeMap<DocId, u32> = m.ebert.iter().map(|(d, r)| (*d, r.year)).collect();
        let in_years: Vec<(DocId, &str)> = recs(&t2, "ebert")
            .into_iter()
            .filter(|(d, _)| (1950..1970).contains(&year_of[d]))
            .collect();
        assert_capitalized_holds(&c, &t2, "extractEbert.title", &in_years);

        // T3's truth triples chain IMDB ~ Ebert ~ Prasanna: an IMDB or
        // Prasanna title is behind one when it matches an Ebert title
        // that matches on both sides.
        let t3 = c.task(TaskId::T3, Some(500));
        let (i, e, p) = (recs(&t3, "imdb"), recs(&t3, "ebert"), recs(&t3, "prasanna"));
        let i_tok = token_sets(&i, |t| t);
        let p_tok = token_sets(&p, |t| t);
        let joins =
            |a: &BTreeSet<String>, bs: &[BTreeSet<String>]| bs.iter().any(|b| sets_match(a, b));
        let e_mid: Vec<BTreeSet<String>> = token_sets(&e, |t| t)
            .into_iter()
            .filter(|e| joins(e, &i_tok) && joins(e, &p_tok))
            .collect();
        for (attr, recs, toks) in [
            ("extractIMDBt.t", &i, &i_tok),
            ("extractPrasT.t", &p, &p_tok),
        ] {
            let behind: Vec<(DocId, &str)> = recs
                .iter()
                .zip(toks)
                .filter(|(_, t)| joins(t, &e_mid))
                .map(|(r, _)| *r)
                .collect();
            assert_capitalized_holds(&c, &t3, attr, &behind);
        }
    }

    #[test]
    fn benchmark_scale_t3_keeps_its_capitalized_facts() {
        // At scale 1 every truth title is capitalized, so the facts stay.
        let c = Corpus::build(CorpusConfig::default());
        let t3 = c.task(TaskId::T3, None);
        for attr in ["extractIMDBt.t", "extractPrasT.t"] {
            assert!(t3.oracle.lookup(attr, "capitalized").is_some(), "{attr}");
        }
    }

    #[test]
    fn spread_sampling_is_deterministic_and_spreads() {
        let c = Corpus::build(CorpusConfig::tiny());
        let a = c.task(TaskId::T1, Some(10));
        let b = c.task(TaskId::T1, Some(10));
        assert_eq!(a.tables[0].1, b.tables[0].1);
        // spread: not simply the first 10 records
        let first10: Vec<_> = c.movies.imdb.iter().take(10).map(|(d, _)| *d).collect();
        assert_ne!(a.tables[0].1, first10);
    }

    #[test]
    fn chair_cleanup_classifies_both_types() {
        let c = Corpus::build(CorpusConfig::tiny());
        let task = c.task(TaskId::Chair, None);
        let types: std::collections::BTreeSet<&String> =
            task.truth.iter().map(|r| &r[2]).collect();
        assert!(types.len() >= 2, "{types:?}");
    }
}
