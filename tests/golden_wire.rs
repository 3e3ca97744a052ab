#[path = "../crates/brisk-proto/tests/golden_wire.rs"]
mod golden_wire;
