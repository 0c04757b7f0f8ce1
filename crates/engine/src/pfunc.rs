//! P-predicates and p-functions (§2.1): procedural escape hatches that an
//! Alog program can call — similarity joins, cleanup procedures (§2.2.4),
//! or any developer-registered Rust closure.

use crate::similarity::approx_match;
use iflex_ctable::Value;
use iflex_text::DocumentStore;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Boolean p-function: all arguments are inputs, result is a filter.
pub type FilterFn = Arc<dyn Fn(&DocumentStore, &[Value]) -> bool + Send + Sync>;

/// Generating p-predicate: takes the bound input values, produces zero or
/// more output tuples (the values of the *output* arguments only).
pub type GenerateFn = Arc<dyn Fn(&DocumentStore, &[Value]) -> Vec<Vec<Value>> + Send + Sync>;

/// A registered procedure.
#[derive(Clone)]
pub enum Procedure {
    /// `approxMatch(#h, #s)`-style boolean function.
    Filter(FilterFn),
    /// `extractLastAuthor(#list, author)`-style generator with the given
    /// number of output columns.
    Generator {
        /// Number of output columns.
        out_arity: usize,
        /// The procedure.
        f: GenerateFn,
    },
}

/// Name → procedure registry.
#[derive(Clone, Default)]
pub struct ProcRegistry {
    procs: BTreeMap<String, Procedure>,
}

impl ProcRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Registers a boolean p-function.
    pub fn register_filter(
        &mut self,
        name: &str,
        f: impl Fn(&DocumentStore, &[Value]) -> bool + Send + Sync + 'static,
    ) {
        self.procs
            .insert(name.to_string(), Procedure::Filter(Arc::new(f)));
    }

    /// Registers a generating p-predicate (e.g. a cleanup procedure).
    pub fn register_generator(
        &mut self,
        name: &str,
        out_arity: usize,
        f: impl Fn(&DocumentStore, &[Value]) -> Vec<Vec<Value>> + Send + Sync + 'static,
    ) {
        self.procs.insert(
            name.to_string(),
            Procedure::Generator {
                out_arity,
                f: Arc::new(f),
            },
        );
    }

    /// Looks up a procedure.
    pub fn get(&self, name: &str) -> Option<&Procedure> {
        self.procs.get(name)
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.procs.contains_key(name)
    }

    /// All registered names (for `ValidateEnv`).
    pub fn names(&self) -> Vec<&str> {
        self.procs.keys().map(String::as_str).collect()
    }
}

impl std::fmt::Debug for ProcRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcRegistry")
            .field("procs", &self.procs.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// The built-in procedures every engine starts with: `approxMatch` and
/// `similar` (token-containment similarity on the values' text).
pub fn builtin_procs() -> ProcRegistry {
    let mut r = ProcRegistry::empty();
    for name in ["approxMatch", "similar"] {
        r.procs.insert(
            name.to_string(),
            Procedure::Filter(builtin_similar().clone()),
        );
    }
    r
}

/// The one instance of the built-in similarity filter, so the engine can
/// tell it from a filter registered later under the same name.
fn builtin_similar() -> &'static FilterFn {
    static SIM: OnceLock<FilterFn> = OnceLock::new();
    SIM.get_or_init(|| {
        Arc::new(|store: &DocumentStore, args: &[Value]| match args {
            [a, b] => approx_match(&a.as_text(store), &b.as_text(store)),
            _ => false,
        })
    })
}

/// True when `f` is the built-in similarity filter, whose semantics the
/// pass over a join's pairs computes from token profiles instead of
/// calling it.
pub(crate) fn is_builtin_similar(f: &FilterFn) -> bool {
    Arc::ptr_eq(f, builtin_similar())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_similar_works_on_spans_and_strings() {
        let r = builtin_procs();
        let mut store = DocumentStore::new();
        let d = store.add_plain("Basktall HS");
        let span = store.doc(d).full_span();
        let Procedure::Filter(f) = r.get("similar").unwrap() else {
            panic!("similar must be a filter");
        };
        assert!(f(
            &store,
            &[Value::Span(span), Value::Str("Basktall".into())]
        ));
        assert!(!f(
            &store,
            &[Value::Str("Vanhise".into()), Value::Str("Basktall".into())]
        ));
        assert!(!f(&store, &[Value::Str("x".into())])); // wrong arity
    }

    #[test]
    fn generator_registration() {
        let mut r = ProcRegistry::empty();
        r.register_generator("dup", 1, |_, args| {
            vec![vec![args[0].clone()], vec![args[0].clone()]]
        });
        let Procedure::Generator { out_arity, f } = r.get("dup").unwrap() else {
            panic!();
        };
        assert_eq!(*out_arity, 1);
        let store = DocumentStore::new();
        assert_eq!(f(&store, &[Value::Num(3.0)]).len(), 2);
        assert!(r.contains("dup"));
        assert_eq!(r.names(), vec!["dup"]);
    }
}
