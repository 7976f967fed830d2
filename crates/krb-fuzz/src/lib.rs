//! # krb-fuzz
//!
//! A dependency-free, fully deterministic fuzzing harness for the
//! kerberos codec. The paper's attacks all hinge on what a parser will
//! accept off the wire; this crate turns that observation on our own
//! implementation and proves the panic-hygiene bar (clippy's panic lints)
//! holds under *adversarial* bytes, not just well-formed ones.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Mutation choices come from a seeded
//!    [`testkit::TestRng`]; there is no wall clock, no coverage
//!    instrumentation, no thread scheduling. Two runs with the same seed
//!    produce byte-identical reports (`scripts/fuzz.sh` diffs them).
//! 2. **Total classification.** Every mutated input must decode to `Ok`
//!    or to a *typed* [`kerberos::KrbError`]. A panic is a finding, never
//!    an accepted outcome ([`classify`]).
//! 3. **Real seeds.** The corpus is captured from real testbed flows
//!    (login, TGS, AP exchanges on the simulated campus), not synthetic
//!    frames, so mutations start from bytes the protocol actually emits
//!    ([`corpus`]).
//! 4. **Minimized regressions.** Any interesting input is shrunk by a
//!    deterministic ddmin-style reducer ([`reduce`]) and pinned under
//!    `corpus/regressions/` with its golden diagnostic.

pub mod classify;
pub mod corpus;
pub mod harness;
pub mod mutate;
pub mod reduce;
