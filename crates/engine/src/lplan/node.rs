//! The logical plan-node tree: a rewrite-friendly mirror of
//! [`Plan`] — owned children the passes can peel,
//! sink, and reschedule, a join that carries its orientation, and no
//! fused node (fusion is decided when lowering back).

use crate::plan::{FusedOp, Plan};

/// One logical plan node. Built 1:1 from a compiled [`Plan`] by
/// [`build`]; lowered back (with fusion) by [`super::lower::lower`].
#[derive(Debug, Clone)]
pub enum LNode {
    /// A scan leaf — keeps the original `ScanExt` / `ScanRel` node.
    Leaf {
        /// The scan.
        plan: Plan,
    },
    /// `from(#x, y)` expansion; appends one column.
    FromExtract {
        /// Child node.
        input: Box<LNode>,
        /// Column holding the source spans.
        in_col: usize,
    },
    /// Generating p-predicate; appends `out_arity` columns.
    GenerateProc {
        /// Child node.
        input: Box<LNode>,
        /// Procedure name.
        name: String,
        /// Input-argument columns.
        in_cols: Vec<usize>,
        /// Number of appended output columns.
        out_arity: usize,
    },
    /// Any selection (σ, constraint, unification, filter).
    Select {
        /// Child node.
        input: Box<LNode>,
        /// The per-tuple selection body.
        op: FusedOp,
    },
    /// Cross join.
    Join {
        /// Left input.
        left: Box<LNode>,
        /// Right input.
        right: Box<LNode>,
        /// Orientation chosen by the join-ordering pass: iterate the
        /// right side as the outer loop (output order is compensated).
        outer_right: bool,
    },
    /// Projection.
    Project {
        /// Child node.
        input: Box<LNode>,
        /// Projected columns.
        cols: Vec<usize>,
        /// Output column names.
        names: Vec<String>,
    },
    /// ψ annotation.
    Annotate {
        /// Child node.
        input: Box<LNode>,
        /// Existence annotation flag.
        existence: bool,
        /// Attribute-annotated column indices.
        annotated: Vec<usize>,
    },
}

/// Rebuilds a compiled plan as a logical node tree. Returns `None` for
/// shapes the optimizer does not model (an already-`Fused` plan).
pub fn build(p: &Plan) -> Option<LNode> {
    Some(match p {
        Plan::ScanExt { .. } | Plan::ScanRel { .. } => LNode::Leaf { plan: p.clone() },
        Plan::FromExtract { input, in_col } => LNode::FromExtract {
            input: Box::new(build(input)?),
            in_col: *in_col,
        },
        Plan::Select { input, step } => LNode::Select {
            input: Box::new(build(input)?),
            op: step.clone(),
        },
        Plan::GenerateProc {
            input,
            name,
            in_cols,
            out_arity,
        } => LNode::GenerateProc {
            input: Box::new(build(input)?),
            name: name.clone(),
            in_cols: in_cols.clone(),
            out_arity: *out_arity,
        },
        Plan::CrossJoin { left, right } => LNode::Join {
            left: Box::new(build(left)?),
            right: Box::new(build(right)?),
            outer_right: false,
        },
        Plan::Project { input, cols, names } => LNode::Project {
            input: Box::new(build(input)?),
            cols: cols.clone(),
            names: names.clone(),
        },
        Plan::Annotate {
            input,
            existence,
            annotated,
        } => LNode::Annotate {
            input: Box::new(build(input)?),
            existence: *existence,
            annotated: annotated.clone(),
        },
        Plan::Fused { .. } => return None,
    })
}

/// Peels the maximal selection chain off the top of `n`, returning the
/// chain's ops in **application order** (innermost first) and the base
/// node below the chain.
pub fn peel(mut n: LNode) -> (Vec<FusedOp>, LNode) {
    let mut ops = Vec::new();
    while let LNode::Select { input, op } = n {
        ops.push(op);
        n = *input;
    }
    ops.reverse();
    (ops, n)
}
