//! `implicate-serve` parses the estimator flags through the table it
//! shares with the `implicate` CLI (`implicate::opts`): a value the
//! estimator cannot take exits 2 with the table's message instead of
//! panicking, and `--help` lists every shared flag.

use std::process::Command;

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
