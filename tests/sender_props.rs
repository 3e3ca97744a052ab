//! The sender side's property tests, run under the workspace root's
//! `cargo test`: the batcher's knobs and the native record codec the EXS
//! decodes ring records with (including decoding over reused records).

#[path = "../crates/brisk-lis/tests/prop_batcher.rs"]
mod prop_batcher;

#[path = "../crates/brisk-core/tests/prop_roundtrip.rs"]
mod prop_roundtrip;
