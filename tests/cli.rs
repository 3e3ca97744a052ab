//! The executables' flag surface, driven through the real binaries: the
//! knobs each one accepts, the flags the docs use, value errors that name
//! their flag, and cross-flag rules enforced before anything is opened.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const ISMD: &str = env!("CARGO_BIN_EXE_brisk-ismd");
const LOAD: &str = env!("CARGO_BIN_EXE_brisk-load");
const QUERY: &str = env!("CARGO_BIN_EXE_brisk-query");
const TRACE: &str = env!("CARGO_BIN_EXE_brisk-trace");

/// Flags whose value is any string (an address or a path): only a missing
/// value is an error for them.
const FREE_FORM: [&str; 7] = [
    "--tcp",
    "--uds",
    "--upstream",
    "--picl",
    "--stats-addr",
    "--store-dir",
    "--replay",
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn binary")
}

/// The flags `--help` lists, spelled `--flag=` when the flag takes a value.
fn help_flags(bin: &str) -> BTreeSet<String> {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(2), "{bin} --help exits 2");
    let text = String::from_utf8_lossy(&out.stderr);
    let tokens: Vec<&str> = text
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|t| !t.is_empty())
        .collect();
    let mut flags = BTreeSet::new();
    for (i, token) in tokens.iter().enumerate() {
        if is_flag(token) {
            let next = tokens.get(i + 1).copied().unwrap_or("|");
            let takes_value = !next.starts_with('-') && next != "|" && !next.starts_with("brisk-");
            flags.insert(format!("{token}{}", if takes_value { "=" } else { "" }));
        }
    }
    flags
}

fn is_flag(token: &str) -> bool {
    token.strip_prefix("--").is_some_and(|rest| {
        rest.starts_with(|c: char| c.is_ascii_lowercase())
            && rest
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("brisk-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_binary_keeps_its_knobs() {
    let expect =
        |flags: &str| -> BTreeSet<String> { flags.split_whitespace().map(String::from).collect() };
    assert_eq!(
        help_flags(ISMD),
        expect(
            "--tcp= --uds= --picl= --ts= --order-mode= --upstream= --node-prefix= \
             --poll-period-ms= --stats-every-s= --stats-addr= --store-dir= --fsync= \
             --retain-bytes= --segment-bytes= --credit-records= \
             --node-timeout= --error-budget= \
             --flight-size= --compact-interval-ms= --compact-keep-hot="
        )
    );
    assert_eq!(
        help_flags(LOAD),
        expect(
            "--tcp= --uds= --node= --sensors= --rate= --duration-s= --causal --stats \
             --stats-addr= --trace-sample= --heartbeat-interval-ms= --stamp-hlc \
             --clock-skew-us= --clock-drift-ppm= --clock-step-ms= --no-sync --fault-seed= \
             --fault-corrupt= --fault-truncate= --fault-duplicate= --fault-reorder= \
             --fault-delay= --fault-max-delay-ms= --fault-kill-after= --replay= --speed="
        )
    );
    assert_eq!(
        help_flags(QUERY),
        expect(
            "--from-us= --to-us= --node= --sensor= --limit= --stats --window-ms= --field= \
             --chain= --max-links= --compact --keep-hot= --block-records="
        )
    );
    assert_eq!(help_flags(TRACE), expect("--store= --url="));
}

/// `(binary, flag, where)` for every flag an invocation in `doc` passes: the
/// `--bin brisk-X -- …` commands (with `\` continuations joined) and the
/// backticked `` `brisk-X --flag …` `` spans of the prose.
fn documented_flags(doc: &str) -> Vec<(String, String, String)> {
    let (mut prose, mut fenced, mut in_fence) = (String::new(), String::new(), false);
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else {
            let into = if in_fence { &mut fenced } else { &mut prose };
            into.push_str(line);
            into.push('\n');
        }
    }
    let mut invocations = Vec::new();
    for line in format!("{fenced}{prose}").replace("\\\n", " ").lines() {
        let command = line.split(" #").next().unwrap_or(line);
        if let Some((_, rest)) = command.split_once("--bin ") {
            if let Some((bin, args)) = rest.split_once(" -- ") {
                invocations.push((bin.to_string(), args.to_string(), line.trim().to_string()));
            }
        }
    }
    for span in prose.split('`').skip(1).step_by(2) {
        if let Some((bin, args)) = span.split_once(' ') {
            invocations.push((bin.to_string(), args.to_string(), format!("`{span}`")));
        }
    }
    let mut found = Vec::new();
    for (bin, args, at) in invocations {
        for token in args.split(|c: char| c.is_whitespace() || "[]|".contains(c)) {
            if is_flag(token) {
                found.push((bin.clone(), token.to_string(), at.clone()));
            }
        }
    }
    found
}

#[test]
fn every_documented_flag_exists() {
    let bins = [
        ("brisk-ismd", help_flags(ISMD)),
        ("brisk-load", help_flags(LOAD)),
        ("brisk-query", help_flags(QUERY)),
        ("brisk-trace", help_flags(TRACE)),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut unknown = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for (bin, flag, at) in documented_flags(&text) {
            let Some((_, help)) = bins.iter().find(|(name, _)| *name == bin) else {
                continue;
            };
            checked += 1;
            if !help.contains(&flag) && !help.contains(&format!("{flag}=")) {
                unknown.push(format!("{doc}: {bin} has no {flag}: {at}"));
            }
        }
    }
    assert!(
        checked > 50,
        "the scan found the docs' invocations ({checked})"
    );
    assert!(unknown.is_empty(), "{}", unknown.join("\n"));
}

#[test]
fn every_value_error_names_its_flag() {
    for bin in [ISMD, LOAD, QUERY] {
        for flag in help_flags(bin) {
            let Some(flag) = flag.strip_suffix('=') else {
                continue;
            };
            let out = if FREE_FORM.contains(&flag) {
                run(bin, &[flag])
            } else {
                run(bin, &[flag, "abc"])
            };
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {err}");
            assert!(
                err.contains(flag),
                "{bin} {flag}: error does not name it: {err}"
            );
        }
    }
}

#[cfg(unix)]
#[test]
fn tcp_and_uds_together_are_a_usage_error() {
    let dir = scratch("endpoints");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sock = dir.join("ism.sock");
    let sock = sock.to_str().expect("utf-8 path");
    let ismd = run(ISMD, &["--tcp", "127.0.0.1:0", "--uds", sock]);
    assert_eq!(ismd.status.code(), Some(2), "{ismd:?}");
    assert!(!Path::new(sock).exists(), "nothing was bound");
    let load = run(
        LOAD,
        &["--uds", sock, "--tcp", "127.0.0.1:1", "--duration-s", "0"],
    );
    assert_eq!(load.status.code(), Some(2), "{load:?}");
    for out in [ismd, load] {
        assert!(String::from_utf8_lossy(&out.stderr).contains("not both"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relay_flags_are_checked_before_the_store_is_opened() {
    let dir = scratch("relay-store");
    let store = dir.to_str().expect("utf-8 path");
    for (args, says) in [
        (
            &["--upstream", "127.0.0.1:1", "--node-prefix", "256"][..],
            "--node-prefix",
        ),
        (&["--node-prefix", "5"][..], "relay mode needs both"),
    ] {
        let out = run(
            ISMD,
            &[&["--tcp", "127.0.0.1:0", "--store-dir", store], args].concat(),
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?}: {err}");
        assert!(
            !dir.exists(),
            "{args:?} created the store before rejecting the flags"
        );
    }
}
