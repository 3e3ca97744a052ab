//! The framing layer's fuzz harness, run under the workspace root's
//! `cargo test`: every transport's connections share `FramedConnection`.

#[path = "../crates/brisk-net/tests/prop_framed.rs"]
mod prop_framed;
