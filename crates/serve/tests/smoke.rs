//! Golden smoke tests: a scripted three-tenant session, and a scripted
//! session on a durable store plus its restart, produce byte-identical
//! output to the committed expectations. The CI smoke job pipes the
//! same scripts through the binary and diffs the same files from the
//! shell.

use std::process::{Command, Stdio};

const SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/smoke_3tenants.qsh");
const EXPECTED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/smoke_3tenants.expected"
);

#[test]
fn three_tenant_script_is_byte_stable() {
    let out = Command::new(env!("CARGO_BIN_EXE_qurk-serve"))
        .args(["--script", SCRIPT])
        .stdin(Stdio::null())
        .output()
        .expect("qurk-serve runs");
    assert!(
        out.status.success(),
        "qurk-serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read(EXPECTED).expect("expected file exists");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&expected),
        "scripted session diverged from the committed golden output"
    );
}

const STORE_SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/store_recover.qsh");
const STORE_EXPECTED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/store_recover.expected"
);

/// With `--store`, `RECOVER` re-queues only what a previous process
/// left unfinished: after `QUERY`, two `RECOVER`s queue nothing more
/// and `RUN` runs the query once; a restart on the same store then
/// finds nothing to recover. The transcript of both processes is the
/// golden file, which the CI smoke job diffs the same way.
#[test]
fn store_recover_script_runs_each_query_once() {
    let store = std::env::temp_dir().join(format!(
        "qurk-serve-store-recover-{}.qwal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let first = Command::new(env!("CARGO_BIN_EXE_qurk-serve"))
        .arg("--store")
        .arg(&store)
        .args(["--script", STORE_SCRIPT])
        .stdin(Stdio::null())
        .output()
        .expect("qurk-serve runs");
    assert!(first.status.success());
    let mut restart = Command::new(env!("CARGO_BIN_EXE_qurk-serve"))
        .arg("--store")
        .arg(&store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("qurk-serve restarts");
    {
        use std::io::Write;
        let mut stdin = restart.stdin.take().expect("piped stdin");
        for body in ["RECOVER", "QUIT"] {
            write!(stdin, "{}\n{}", body.len(), body).unwrap();
        }
    }
    let second = restart.wait_with_output().expect("qurk-serve exits");
    let _ = std::fs::remove_file(&store);
    assert!(second.status.success());
    let transcript = [first.stdout, second.stdout].concat();
    let expected = std::fs::read(STORE_EXPECTED).expect("expected file exists");
    assert_eq!(
        String::from_utf8_lossy(&transcript),
        String::from_utf8_lossy(&expected),
        "store session diverged from the committed golden output"
    );
}

#[test]
fn stdin_and_script_modes_agree() {
    let script = std::fs::read(SCRIPT).expect("script file exists");
    let mut child = Command::new(env!("CARGO_BIN_EXE_qurk-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("qurk-serve runs");
    {
        use std::io::Write;
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(&script)
            .expect("script fits in the pipe");
    }
    let out = child.wait_with_output().expect("qurk-serve exits");
    assert!(out.status.success());
    let expected = std::fs::read(EXPECTED).expect("expected file exists");
    assert_eq!(out.stdout, expected);
}

#[test]
fn malformed_frames_get_err_responses_not_crashes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qurk-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("qurk-serve runs");
    {
        use std::io::Write;
        let mut stdin = child.stdin.take().expect("piped stdin");
        // Unknown verb, unknown tenant, then a clean QUIT.
        for body in ["EXPLODE now", "QUERY ghost SELECT 1", "QUIT"] {
            write!(stdin, "{}\n{}", body.len(), body).unwrap();
        }
    }
    let out = child.wait_with_output().expect("qurk-serve exits");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ERR unknown request"));
    assert!(text.contains("ERR unknown tenant"));
    assert!(text.contains("BYE"));
}
