//! The `detlint` binary as CI runs it: no arguments, any working directory.

use std::process::Command;

fn detlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
}

#[test]
fn any_argument_is_rejected() {
    let out = detlint().arg("-D").output().expect("run detlint");
    assert!(!out.status.success(), "detlint accepted `-D`");
}

#[test]
fn scans_its_own_workspace_from_any_directory() {
    let out = detlint()
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run detlint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "detlint failed from a temporary directory:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.ends_with("— 0 finding(s)"), "last line: {last}");
}
