//! An HTL-style coordination-language front-end.
//!
//! The paper extends the Hierarchical Timing Language (HTL) "to capture the
//! timing and reliability requirements of a set of software tasks"; its
//! compiler performs the joint schedulability/reliability analysis and
//! generates distributed code. This crate provides the textual front-end of
//! that pipeline:
//!
//! * [`lexer`] — a hand-written scanner producing spanned tokens;
//! * [`ast`] — the abstract syntax tree: programs, communicators, modules,
//!   modes, task invocations, mode switches, architecture and mapping
//!   blocks;
//! * [`parser`] — recursive descent with precise diagnostics;
//! * [`elaborate`](mod@crate::elaborate) — name resolution and flattening of the hierarchical
//!   program into a core [`Specification`], [`Architecture`] and
//!   [`Implementation`], including the paper's §4 mode-switch condition
//!   (all modes of a module must write communicators with identical
//!   reliability constraints, so the analysis of one mode applies to all);
//! * [`printer`] — a pretty-printer whose output re-parses to the same
//!   program (round-trip tested).
//!
//! # Example
//!
//! ```
//! use logrel_lang::compile;
//!
//! let source = r#"
//! program demo {
//!     communicator s : float period 10 sensor;
//!     communicator u : float period 10 lrc 0.9;
//!     module m {
//!         start mode main period 10 {
//!             invoke ctrl reads s[0] writes u[1];
//!         }
//!     }
//!     architecture {
//!         host h1 reliability 0.99;
//!         sensor sn reliability 0.999;
//!         wcet ctrl on h1 2;
//!         wctt ctrl on h1 1;
//!     }
//!     map {
//!         ctrl -> h1;
//!         bind s -> sn;
//!     }
//! }
//! "#;
//! let system = compile(source).expect("compiles");
//! assert_eq!(system.spec.task_count(), 1);
//! ```
//!
//! [`Specification`]: logrel_core::Specification
//! [`Architecture`]: logrel_core::Architecture
//! [`Implementation`]: logrel_core::Implementation

pub mod ast;
pub mod elaborate;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod subspec;
pub mod token;

#[cfg(test)]
mod proptests;

pub use elaborate::{
    core_error_span, elaborate, elaborate_file, elaborate_modes, ElaboratedFile, ElaboratedMode,
    ElaboratedModes, ElaboratedSystem, ResolvedRefinement,
};
pub use error::LangError;
pub use parser::{parse, parse_file};
pub use printer::print_program;
pub use subspec::{split_units, units_digest, FnvWriter, SubspecUnit};

/// Parses and elaborates `source` in one step.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error with its source
/// position.
pub fn compile(source: &str) -> Result<ElaboratedSystem, LangError> {
    elaborate(&parse(source)?)
}
