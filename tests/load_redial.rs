//! Workspace e2e over the real binaries: a `brisk-load` node outlives its
//! links. Connections the fault plane kills are redialed and their window
//! replayed, so the ISM delivers every emitted record exactly once; an ISM
//! that dies abruptly and comes back on the same port gets the node back.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

/// A running `brisk-ismd`: its bound address and its stderr, line by line.
struct Ismd {
    child: Child,
    addr: String,
    lines: Receiver<String>,
}

fn spawn_ismd(addr: &str) -> Ismd {
    let mut child = Command::new(env!("CARGO_BIN_EXE_brisk-ismd"))
        .args(["--tcp", addr])
        .stdin(Stdio::piped()) // held open: ismd stops on stdin EOF
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn brisk-ismd");
    let (tx, lines) = mpsc::channel();
    let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(|l| l.ok()) {
            let _ = tx.send(line);
        }
    });
    let addr = lines
        .iter()
        .find_map(|l| l.strip_prefix("brisk-ismd listening on ").map(String::from))
        .expect("ismd printed its listen address");
    Ismd { child, addr, lines }
}

impl Ismd {
    /// Close stdin (the orderly stop) and return `(records in, records out)`
    /// from the final report.
    fn stop(mut self) -> (u64, u64) {
        drop(self.child.stdin.take());
        let fin = self
            .lines
            .iter()
            .find(|l| l.starts_with("[ismd] final:"))
            .expect("ismd printed its final report");
        self.child.wait().expect("reap ismd");
        // "[ismd] final: N records in, M out, ..."
        let nums = numbers(&fin);
        (nums[0], nums[1])
    }
}

fn numbers(line: &str) -> Vec<u64> {
    line.split(|c: char| !c.is_ascii_digit())
        .filter_map(|s| s.parse().ok())
        .collect()
}

fn load(addr: &str, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_brisk-load"));
    cmd.args(["--tcp", addr, "--rate", "2000"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    cmd
}

/// The line of `brisk-load`'s stderr that starts with `prefix`.
fn report_line(out: &Output, prefix: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "brisk-load failed:\n{stderr}");
    stderr
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stderr}"))
        .to_string()
}

#[test]
fn fault_killed_links_are_redialed_and_every_record_lands_once() {
    let ismd = spawn_ismd("127.0.0.1:0");
    let out = load(
        &ismd.addr,
        &["--duration-s", "2", "--fault-kill-after", "20"],
    )
    .output()
    .expect("run brisk-load");
    // "brisk-load: emitted N (dropped D); EXS sent ..."
    let emitted = numbers(&report_line(&out, "brisk-load: emitted"))[0];
    let kills = report_line(&out, "brisk-load: faults injected");
    let killed = numbers(&kills)[5];
    let (_, delivered) = ismd.stop();
    assert!(emitted > 0);
    assert!(
        killed >= 1,
        "the fault plane must have killed a link: {kills}"
    );
    assert_eq!(
        delivered, emitted,
        "every emitted record delivered exactly once across {killed} kills"
    );
}

#[test]
fn node_comes_back_to_an_ism_restarted_on_the_same_port() {
    let mut first = spawn_ismd("127.0.0.1:0");
    let addr = first.addr.clone();
    let node = load(&addr, &["--duration-s", "3"])
        .spawn()
        .expect("spawn brisk-load");
    std::thread::sleep(Duration::from_secs(1));
    // SIGKILL, not `quit`: an orderly stop sends `Shutdown`, which the
    // node honours by design.
    first.child.kill().expect("kill ismd #1");
    first.child.wait().expect("reap ismd #1");
    let second = spawn_ismd(&addr);
    let out = node.wait_with_output().expect("reap brisk-load");
    report_line(&out, "brisk-load: emitted");
    let (records_in, _) = second.stop();
    assert!(records_in > 0, "the restarted ISM must receive records");
}
