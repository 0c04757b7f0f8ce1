//! # iflex-ctable
//!
//! The approximate-data representation at the heart of iFlex (§3 of
//! *Toward Best-Effort Information Extraction*, SIGMOD 2008):
//!
//! * [`Value`] — concrete relational values (spans, strings, numbers).
//! * [`Assignment`] — `exact(s)` / `contain(s)`, the text-specific
//!   compression that keeps approximate extracted data tractable.
//! * [`Cell`], [`CompactTuple`], [`CompactTable`] — compact tables with
//!   expansion cells and maybe-tuples.
//! * [`ATable`] — the uncompressed a-table model, used as the reference
//!   semantics and by the default BAnnotate strategy.
//! * [`worlds`] — exact possible-worlds enumeration for property tests of
//!   the processor's superset guarantee.
//!
//! ```
//! use iflex_ctable::{Assignment, Cell, CompactTable, CompactTuple, Value};
//! use iflex_text::{DocumentStore, Span};
//!
//! let mut store = DocumentStore::new();
//! let d = store.add_plain("one two three");
//!
//! // one `contain` assignment stands for all 6 token-aligned sub-spans
//! let cell = Cell::contain(Span::new(d, 0, 13));
//! assert_eq!(cell.value_count(&store), 6);
//!
//! // an expansion cell multiplies tuples instead of offering a choice
//! let mut table = CompactTable::new(vec!["s".into()]);
//! table.push(CompactTuple::new(vec![Cell::expansion(vec![
//!     Assignment::Contain(Span::new(d, 0, 13)),
//! ])]));
//! assert_eq!(table.expanded_len(&store), 6);
//! ```
//!
//! As §3 notes, compact tables are deliberately *not* a complete model:
//! they cannot express mutual exclusion between tuples. They trade that
//! expressiveness for the two approximation kinds best-effort IE actually
//! produces (tuple existence, attribute value) and for text-specific
//! compression (`contain` over token-aligned sub-spans).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod atable;
pub mod cell;
pub mod table;
pub mod tuple;
pub mod value;
pub mod worlds;

pub use assignment::Assignment;
pub use atable::{condense_values, ATable, ATuple, TooLarge};
pub use cell::Cell;
pub use table::{CompactTable, TableStats};
pub use tuple::CompactTuple;
pub use value::Value;
