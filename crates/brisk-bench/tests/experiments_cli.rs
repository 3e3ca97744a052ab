//! `experiments` rejects a bad id or flag before it runs anything.

use std::process::Command;

fn rejects_before_running(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(
        !stdout.contains("=="),
        "{args:?} printed a table:\n{stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: experiments <e1|"),
        "{args:?}: {out:?}"
    );
}

#[test]
fn unknown_id_is_rejected_before_any_experiment_runs() {
    rejects_before_running(&["e1", "bogus"]);
}

#[test]
fn misspelled_flag_is_rejected_not_run_in_full_mode() {
    rejects_before_running(&["--quikc", "e1"]);
}
