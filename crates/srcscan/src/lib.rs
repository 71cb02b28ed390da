//! Shared lexical machinery for the workspace's static checkers.
//!
//! Both `lfrt-ordlint` (memory-ordering lint) and `lfrt-progress`
//! (progress-guarantee lint) work the same way: load source files, blank
//! comments and string literals byte-for-byte so pattern matching cannot
//! trip over `".load("` inside a doc comment, find the function items,
//! run token-level analyses over the cleaned text, and diff the findings
//! against a justified baseline. This crate is that common substrate, so
//! the two checkers cannot drift apart on the subtle parts (raw-string
//! blanking, function spans, receiver-chain walking, deterministic file
//! ordering, manifest escapes, the baseline contract); each lint keeps
//! only what it looks for and its rules:
//!
//! * [`items`] — the function items of a file (name, impl-qualified name,
//!   `pub`, body span, line) and the `#[cfg(test)]` spans to skip.
//! * [`manifest`] — the `[[table]]` / `key = "value"` TOML subset the
//!   checkers' manifests are written in.
//! * [`baseline`] — the justified-baseline contract: 4-part key, mandatory
//!   justification, unbaselined *and* stale entries both fail.
//! * [`report`] — the findings/stale/summary part of every report, and the
//!   binaries' shared driver (flags, exit codes 0/1/2).
//! * [`source`] — [`source::SourceFile`] and the offset-preserving
//!   [`source::blank`] pass (comments, strings, raw strings, byte
//!   strings, char literals vs lifetimes).
//! * [`lex`] — identifier/bracket helpers and the backwards
//!   receiver-chain walker shared by site extraction in both linters.
//! * [`walk`] — deterministic `.rs` inventory under a set of roots, with
//!   `/`-separated paths relative to the scan root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod items;
pub mod lex;
pub mod manifest;
pub mod report;
pub mod source;
pub mod walk;
