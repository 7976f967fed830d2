//! # krb-lint
//!
//! A hermetic, dependency-free static analysis pass over the whole
//! workspace, enforcing the invariants Bellovin & Merritt's attacks
//! exploit when they are broken and that clippy cannot see:
//!
//! - **S — secrecy**: key-bearing types must not be formattable; key
//!   material must not flow into log strings (S001/S002/S003).
//! - **C — constant time**: key and MAC bytes are compared with
//!   `krb_crypto::ct_eq`, never `==` (C001).
//!
//! The token bans live elsewhere: wall clocks, OS sockets and
//! `HashMap`/`HashSet` are clippy's `disallowed_types` and
//! `disallowed_methods` (root `clippy.toml`), `unwrap`/`expect`/`panic!`
//! in protocol code are clippy's panic lints (the protocol crates'
//! `[lints]` tables), and hermeticity is `verify.sh`'s
//! `cargo metadata` gate.
//!
//! Since PR 9 the linter is flow-aware: a brace-matching syntax layer
//! ([`syntax`]) recovers per-function skeletons from the token stream,
//! a workspace call graph ([`callgraph`]) resolves intra-tree calls,
//! and a taint engine ([`taint`]) follows secrets through renames and
//! up to 3 call hops. On top of these sit S005 (cross-function
//! secret-to-sink taint), D003 (laundered clock reads), P003
//! (truncating length casts on codec paths), A001 (hot-path
//! allocation), and E001 (metric-name drift vs DESIGN.md) — see
//! [`flow`].
//!
//! The scanner is a hand-rolled line/column-tracking lexer
//! ([`lexer`]) — no `syn`, since the build takes no external crates.
//! Suppressions live in `lint-baseline.toml` ([`baseline`]) and every
//! entry must carry a justification; stale entries fail the run.

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod taint;

pub use diag::{Finding, Rule, ALL_RULES};
pub use engine::{analyze_source, crate_of, find_root, run, Report};
pub use flow::{analyze_workspace, FileInput, FlowStats};
