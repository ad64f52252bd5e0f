//! `implicate-serve` parses the estimator flags through the table it
//! shares with the `implicate` CLI (`implicate::opts`): a value the
//! estimator cannot take exits 2 with the table's message instead of
//! panicking, and `--help` lists every shared flag.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus};

use implicate::opts::{self, EstimatorOpts};

fn serve(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
        .args(args)
        .output()
        .expect("run implicate-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The message the shared table gives for `name value`.
fn table_error(name: &str, value: &str) -> String {
    let mut est = EstimatorOpts::default();
    let flag = opts::find(opts::FLAGS, name).expect("a shared flag");
    match (flag.set)(&mut est, value) {
        Err(e) => e,
        Ok(()) => est.config().expect_err("an invalid configuration"),
    }
}

#[test]
fn invalid_estimator_values_exit_2_with_the_shared_message() {
    for (name, value) in [
        ("--bitmaps", "3"),
        ("--confidence", "150"),
        ("--memory-budget", "1"),
        ("--max-mult", "4294967295"),
        ("--top-c", "4097"),
        ("--bitmaps", "1073741824"),
    ] {
        let (code, _, stderr) = serve(&[name, value]);
        assert_eq!(code, Some(2), "{name} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {value}: {stderr}");
        let want = table_error(name, value);
        assert!(
            stderr.contains(&want),
            "{name} {value}: want {want:?} in {stderr}"
        );
    }
}

#[test]
fn help_lists_every_shared_flag() {
    let (code, stdout, _) = serve(&["--help"]);
    assert_eq!(code, Some(0));
    for flag in opts::FLAGS {
        assert!(
            stdout.contains(&format!("  {} {}  ", flag.name, flag.metavar)),
            "{} missing from --help:\n{stdout}",
            flag.name
        );
    }
}

#[test]
fn a_checkpoint_past_the_wire_caps_exits_2_instead_of_aborting() {
    // A checkpoint whose max multiplicity K was patched to 2^31 - 1 would
    // size every tracked cell for K fingerprints; startup restore must
    // refuse it with a message before any listener opens.
    let dir = std::env::temp_dir().join(format!("implicate-serve-capped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("state.imps");
    let config = EstimatorOpts::default()
        .config()
        .expect("default flags build");
    let mut est = config.build();
    for a in 0..500u64 {
        est.update(&[a], &[a]);
    }
    let mut raw = est.to_bytes().to_vec();
    // Magic (4 bytes) and version (2), then the conditions, K first.
    raw[6..10].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
    std::fs::write(&path, raw).expect("write checkpoint");

    let child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
        .args(["--checkpoint", path.to_str().expect("utf-8 path")])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run implicate-serve");
    let (status, stderr) = exit_of(
        child,
        "implicate-serve started from a checkpoint past the wire caps",
    );
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("max multiplicity"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Waits up to 30 s for `child` to exit and returns its status and
/// stderr; kills it and panics with `stuck` past the deadline.
fn exit_of(mut child: Child, stuck: &str) -> (ExitStatus, String) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll implicate-serve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{stuck}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
        .expect("read stderr");
    (status, stderr)
}

#[test]
fn a_checkpoint_with_another_configuration_exits_2_before_listening() {
    // An aggregator restored from a checkpoint under other hash seeds
    // could merge no edge's frames; it must refuse to start, naming the
    // field, instead of panicking on the first frame.
    let dir = std::env::temp_dir().join(format!("implicate-serve-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("state.imps");
    let config = EstimatorOpts::default()
        .config()
        .expect("default flags build");
    std::fs::write(&path, config.build().to_bytes()).expect("write checkpoint");
    let path = path.to_str().expect("utf-8 path");
    for (args, field) in [
        (&["--aggregate", "--seed", "5"][..], "hash seeds"),
        (&["--bitmaps", "128"][..], "bitmap count"),
    ] {
        let child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
            .args(args)
            .args(["--checkpoint", path])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("run implicate-serve");
        let (status, stderr) = exit_of(
            child,
            "implicate-serve started from a mismatched checkpoint",
        );
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("configuration mismatch: {field}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // Nothing was announced: the restore failed before any listener.
    let (code, stdout, _) = serve(&["--aggregate", "--seed", "5", "--checkpoint", path]);
    assert_eq!(code, Some(2));
    assert!(!stdout.contains("listening"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_final_checkpoint_fails_the_shutdown() {
    let dir = std::env::temp_dir().join(format!("implicate-serve-no-dir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("state.imps");
    let mut child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
        .args(["--checkpoint", path.to_str().expect("utf-8 path")])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run implicate-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let query = std::io::BufRead::lines(std::io::BufReader::new(stdout))
        .find_map(|line| {
            let line = line.expect("readable stdout");
            line.strip_prefix("serve: query listening on ")
                .map(str::to_owned)
        })
        .expect("query announcement");
    let mut conn = TcpStream::connect(&query).expect("connect query");
    conn.write_all(b"POST /shutdown HTTP/1.0\r\nHost: t\r\n\r\n")
        .expect("send shutdown");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let (status, stderr) = exit_of(child, "implicate-serve never exited");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    assert!(!stderr.contains("checkpointed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
