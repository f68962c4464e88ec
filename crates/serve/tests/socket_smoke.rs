//! The golden three-tenant transcript, served over a **real TCP
//! socket** instead of stdin/stdout, must produce byte-identical
//! responses (the CI `serve-socket` job runs this test). Also covers
//! the listener lifecycle: sequential connections each get a fresh
//! deterministic world, and `SHUTDOWN` stops the accept loop. The
//! `wire_*` edge-case goldens are replayed over the socket too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SCRIPT: &[u8] = include_bytes!("data/smoke_3tenants.qsh");
const EXPECTED: &str = include_str!("data/smoke_3tenants.expected");

/// Start `qurk-serve --listen 127.0.0.1:0` and return the child plus
/// the address it announced on stdout.
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qurk-serve"));
    cmd.args(["--seed", "42", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("qurk-serve starts");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("server announces its address");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_owned();
    (child, addr)
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect to qurk-serve");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout set");
    conn
}

/// Drive one full protocol session and return every response byte.
fn drive(addr: &str, request_bytes: &[u8]) -> String {
    let mut conn = connect(addr);
    conn.write_all(request_bytes).expect("send script");
    let mut got = String::new();
    conn.read_to_string(&mut got)
        .expect("server closes the connection after QUIT/SHUTDOWN");
    got
}

#[test]
fn golden_transcript_over_a_real_socket() {
    let (mut child, addr) = spawn_server(&[]);

    // Two sequential connections: each gets a fresh world with the
    // same seed, so both transcripts are byte-identical to the
    // stdin-mode golden file.
    for round in 0..2 {
        let got = drive(&addr, SCRIPT);
        assert_eq!(
            got, EXPECTED,
            "socket transcript (connection {round}) diverged from the golden file"
        );
    }

    // SHUTDOWN ends its session and the listener.
    let bye = drive(&addr, b"8\nSHUTDOWN");
    assert_eq!(bye, "3\nBYE");
    let status = child.wait().expect("server exits after SHUTDOWN");
    assert!(status.success(), "server exit: {status:?}");
}

/// Every `wire_*` golden, sent over TCP, gets its `.expected` reply
/// byte for byte. The client half-closes after sending, as a script
/// ends at EOF. In the fatal cases (`wire_oversized`,
/// `wire_truncated`) the buffered `ERR` must still reach the client
/// before the server closes the connection without a `BYE`.
#[test]
fn wire_goldens_over_a_real_socket() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let mut stems: Vec<String> = std::fs::read_dir(data)
        .expect("golden directory exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let stem = name.strip_suffix(".qsh")?;
            stem.starts_with("wire_").then(|| stem.to_owned())
        })
        .collect();
    stems.sort();
    assert_eq!(stems.len(), 4, "{stems:?}");
    let (mut child, addr) = spawn_server(&["--max-conns", &stems.len().to_string()]);
    for stem in &stems {
        let script = std::fs::read(format!("{data}/{stem}.qsh")).expect("script exists");
        let expected = std::fs::read(format!("{data}/{stem}.expected")).expect("golden exists");
        let mut conn = connect(&addr);
        conn.write_all(&script).expect("send script");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        conn.read_to_end(&mut got)
            .expect("server closes the connection");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
            "{stem}: socket reply diverged from the golden file"
        );
    }
    let status = child.wait().expect("server exits at the connection cap");
    assert!(status.success(), "server exit: {status:?}");
}

#[test]
fn max_conns_bounds_the_accept_loop() {
    let (mut child, addr) = spawn_server(&["--max-conns", "1"]);
    let bye = drive(&addr, b"4\nQUIT");
    assert_eq!(bye, "3\nBYE");
    let status = child.wait().expect("server exits at the connection cap");
    assert!(status.success(), "server exit: {status:?}");
}
