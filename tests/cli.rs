//! End-to-end tests of the `implicate` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    run_cli_bytes(args, stdin.as_bytes())
}

fn run_cli_bytes(args: &[&str], stdin: &[u8]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_implicate"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn implicate");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A stream with `loyal` single-destination sources and `fickle`
/// two-destination sources.
fn traffic(loyal: u64, fickle: u64) -> String {
    let mut s = String::new();
    for a in 0..loyal {
        s.push_str(&format!("src{a} dst{a}\n"));
    }
    for a in 0..fickle {
        s.push_str(&format!("fsrc{a} dstA\nfsrc{a} dstB\n"));
    }
    s
}

#[test]
fn counts_loyal_sources_from_stdin() {
    let (stdout, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1"], &traffic(4000, 4000));
    assert!(ok, "stderr: {stderr}");
    let answer: f64 = stdout.trim().parse().expect("numeric answer");
    assert!(
        (2000.0..7000.0).contains(&answer),
        "answer {answer} implausible for 4000 loyal sources"
    );
    assert!(stderr.contains("rows 12000"), "stderr: {stderr}");
}

#[test]
fn complement_flag_reports_nonimplications() {
    let (stdout, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--complement"],
        &traffic(4000, 4000),
    );
    assert!(ok, "stderr: {stderr}");
    let answer: f64 = stdout.trim().parse().expect("numeric answer");
    assert!(
        (2000.0..7000.0).contains(&answer),
        "complement {answer} implausible for 4000 fickle sources"
    );
}

#[test]
fn csv_delimiter_and_comments() {
    let input = "# header comment\nS1,D2\nS2,D1\n\nS1,D2\n";
    let (_, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1", "--delimiter", ","], input);
    assert!(ok);
    assert!(stderr.contains("rows 3"), "stderr: {stderr}");
}

/// `\n` or `\r\n` ends a line, on every run path and in serve alike
/// (`crates/serve/tests/service.rs`): `\r\r\n` leaves a one-`\r` line,
/// which is not blank but has no fields, so it is skipped.
#[test]
fn crlf_lines_follow_the_serve_terminator_rule() {
    let input = b"0 1\r\n\r\n\r\r\n2 3\r\n";
    for threads in ["1", "2"] {
        let (_, stderr, ok) =
            run_cli_bytes(&["--lhs", "0", "--rhs", "1", "--threads", threads], input);
        assert!(ok, "stderr: {stderr}");
        assert!(stderr.contains("rows 2 (skipped 1)"), "stderr: {stderr}");
    }
}

#[test]
fn non_utf8_input_is_a_read_error() {
    let input = b"0 1\n\xff\xfe 1\n2 3\n";
    for threads in ["1", "2"] {
        let (_, stderr, ok) =
            run_cli_bytes(&["--lhs", "0", "--rhs", "1", "--threads", threads], input);
        assert!(!ok);
        assert!(
            stderr.contains("read error: stream did not contain valid UTF-8"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn short_rows_are_skipped_not_fatal() {
    let input = "a b\nonly-one-field\nc d\n";
    let (_, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1"], input);
    assert!(ok);
    assert!(stderr.contains("skipped 1"), "stderr: {stderr}");
}

#[test]
fn save_and_resume_roundtrip() {
    let dir = std::env::temp_dir().join(format!("implicate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.imps");
    let snap_s = snap.to_str().expect("utf-8 path");

    let (_, stderr1, ok1) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", snap_s],
        &traffic(2000, 0),
    );
    assert!(ok1, "stderr: {stderr1}");
    assert!(stderr1.contains("snapshot: wrote"), "stderr: {stderr1}");
    // Saves write a temporary file and rename it over the target.
    let tmp = dir.join("state.imps.tmp");
    assert!(!tmp.exists(), "a save left {} behind", tmp.display());

    // Resume and feed the second half; the estimate must reflect both.
    let more: String = (2000..4000u64)
        .map(|a| format!("src{a} dst{a}\n"))
        .collect();
    let (stdout2, stderr2, ok2) = run_cli(
        &[
            "--lhs", "0", "--rhs", "1", "--resume", snap_s, "--save", snap_s,
        ],
        &more,
    );
    assert!(ok2, "stderr: {stderr2}");
    let answer: f64 = stdout2.trim().parse().expect("numeric answer");
    assert!(
        (2500.0..6000.0).contains(&answer),
        "resumed answer {answer} should reflect all 4000 sources"
    );
    assert!(!tmp.exists(), "a save left {} behind", tmp.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_save_keeps_the_previous_checkpoint() {
    let dir = std::env::temp_dir().join(format!("implicate-failed-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.imps");
    let snap_s = snap.to_str().expect("utf-8 path");
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", snap_s],
        &traffic(500, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let before = std::fs::read(&snap).expect("snapshot written");
    // A directory in the temporary file's place makes the next save fail.
    std::fs::create_dir(dir.join("state.imps.tmp")).expect("block the temporary file");
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs", "0", "--rhs", "1", "--resume", snap_s, "--save", snap_s,
        ],
        &traffic(1000, 0),
    );
    assert!(!ok, "a save that could not be written succeeded: {stderr}");
    assert!(stderr.contains(snap_s), "stderr: {stderr}");
    assert_eq!(std::fs::read(&snap).expect("checkpoint kept"), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_snapshot_built_with_another_configuration() {
    // Restoring keeps the checkpoint's bitmaps and hash seeds, so flags
    // that ask for others are refused instead of silently ignored.
    let dir = std::env::temp_dir().join(format!("implicate-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.imps");
    let snap_s = snap.to_str().expect("utf-8 path");
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", snap_s],
        &traffic(500, 0),
    );
    assert!(ok, "stderr: {stderr}");
    for (flags, field) in [
        (&["--bitmaps", "128", "--seed", "5"][..], "bitmap count"),
        (&["--seed", "5"][..], "hash seeds"),
        (&["--max-mult", "2"][..], "conditions"),
    ] {
        let mut args = vec!["--lhs", "0", "--rhs", "1", "--resume", snap_s];
        args.extend_from_slice(flags);
        let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
            .args(&args)
            .stdin(Stdio::null())
            .output()
            .expect("run implicate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("configuration mismatch: {field}")),
            "{flags:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed an answer");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_snapshot_past_the_wire_caps() {
    // A snapshot whose max multiplicity K was patched to 2^31 - 1 would
    // size every tracked cell for K fingerprints; restore must refuse it
    // with a message instead of attempting the allocation.
    let dir = std::env::temp_dir().join(format!("implicate-capped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.imps");
    let snap_s = snap.to_str().expect("utf-8 path");
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", snap_s],
        &traffic(500, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let mut raw = std::fs::read(&snap).expect("snapshot written");
    // Magic (4 bytes) and version (2), then the conditions, K first.
    raw[6..10].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
    std::fs::write(&snap, raw).expect("patch snapshot");

    let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
        .args(["--lhs", "0", "--rhs", "1", "--resume", snap_s])
        .stdin(Stdio::null())
        .output()
        .expect("run implicate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("snapshot corrupt: max multiplicity"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // A file in neither checkpoint format is named as such, not as a
    // bad wire frame.
    std::fs::write(&snap, "src1 dst1\n").expect("write garbage");
    let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
        .args(["--lhs", "0", "--rhs", "1", "--resume", snap_s])
        .stdin(Stdio::null())
        .output()
        .expect("run implicate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("neither an IMPS snapshot nor an IMPW frame"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_accepts_a_full_wire_frame() {
    // Checkpoints restore through the cross-version decoder, so a wire
    // full frame of the same state resumes like its snapshot.
    let dir = std::env::temp_dir().join(format!("implicate-frame-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let config = implicate::opts::EstimatorOpts::default()
        .config()
        .expect("default flags build");
    let mut est = config.build();
    for a in 0..2000u64 {
        est.update(&[a], &[a]);
    }
    let paths = [dir.join("state.imps"), dir.join("state.impw")];
    std::fs::write(&paths[0], est.to_bytes()).expect("write snapshot");
    let frame = implicate::core::wire::WireSnapshot::capture(&est, 1).full_frame(0);
    std::fs::write(&paths[1], frame).expect("write frame");
    let answers: Vec<String> = paths
        .iter()
        .map(|path| {
            let (stdout, stderr, ok) = run_cli(
                &[
                    "--lhs",
                    "0",
                    "--rhs",
                    "1",
                    "--resume",
                    path.to_str().unwrap(),
                ],
                &traffic(300, 0),
            );
            assert!(ok, "{}: {stderr}", path.display());
            stdout
        })
        .collect();
    assert_eq!(answers[0], answers[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_flag_prints_metrics_report() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--stats"],
        &traffic(1000, 500),
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("metrics:"), "stderr: {stderr}");
    // 1000 loyal + 500 fickle × 2 rows = 2000 tuples, exactly.
    let tuples = stderr
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some("estimator.tuples")).then(|| it.next())
        })
        .flatten()
        .and_then(|v| v.parse::<u64>().ok())
        .expect("estimator.tuples line");
    assert_eq!(tuples, 2000, "stderr: {stderr}");
    // The report covers all three metric families.
    for name in [
        "estimator.zone1_skips",
        "estimator.dirty_multiplicity",
        "ingest.shards",
        "snapshot.encodes",
    ] {
        assert!(stderr.contains(name), "missing {name}: {stderr}");
    }
}

#[test]
fn stats_interval_emits_line_protocol() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--stats-interval", "1000"],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("implicate "))
        .collect();
    assert_eq!(lines.len(), 2, "stderr: {stderr}");
    assert!(
        lines[0].contains("estimator.tuples=1000i"),
        "first sample: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("estimator.tuples=2000i"),
        "second sample: {}",
        lines[1]
    );
    assert!(
        lines[1].contains(",estimator.zone1_skips="),
        "second sample: {}",
        lines[1]
    );
}

#[test]
fn stats_with_parallel_ingestion_reports_shards() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--threads", "2", "--stats"],
        &traffic(3000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let shards = stderr
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some("ingest.shards")).then(|| it.next())
        })
        .flatten()
        .and_then(|v| v.parse::<u64>().ok())
        .expect("ingest.shards line");
    assert_eq!(shards, 2, "stderr: {stderr}");
    assert!(stderr.contains("ingest.shard0.batches"), "stderr: {stderr}");
}

#[test]
fn parallel_stats_interval_publishes_a_view_without_stalling_lanes() {
    // Interval emissions under --threads N read the epoch-published view
    // instead of barriering the shards: each emission publishes a fresh
    // view (view.publishes advances, view.epoch / view.published_tuples /
    // view.age_rows gauges appear) and the published tuple count is a
    // valid prefix — never more than the routed stream, with any lag
    // accounted for in view.age_rows.
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--threads",
            "2",
            "--stats-interval",
            "1000",
        ],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("implicate "))
        .collect();
    assert!(!lines.is_empty(), "stderr: {stderr}");
    let emission = lines[0];
    let field = |name: &str| -> u64 {
        emission
            .split([' ', ','])
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.trim_end_matches('i').parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name} in emission: {emission}"))
    };
    assert!(field("view.publishes") >= 1, "no publish: {emission}");
    let published = field("view.published_tuples");
    let age = field("view.age_rows");
    assert!(published <= 2000, "published beyond stream: {emission}");
    assert_eq!(
        published + age,
        1000,
        "published + lag must cover every routed row: {emission}"
    );
    // The final answer still reflects every row.
    assert!(stderr.contains("rows 2000"), "stderr: {stderr}");
}

#[test]
fn stats_format_prom_emits_parseable_exposition() {
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--stats-interval",
            "1000",
            "--stats-format",
            "prom",
        ],
        &traffic(1000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    // Round-trip the exposition: every `# TYPE` line is followed by a
    // sample line for the same flattened metric name.
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("# TYPE ") || l.starts_with("implicate_"))
        .collect();
    assert!(!lines.is_empty(), "stderr: {stderr}");
    let mut samples = 0;
    for pair in lines.chunks(2) {
        let [ty, sample] = pair else {
            panic!("dangling TYPE line: {pair:?}")
        };
        let name = ty
            .strip_prefix("# TYPE ")
            .unwrap()
            .split(' ')
            .next()
            .unwrap();
        assert!(
            sample.starts_with(&format!("{name} ")),
            "sample {sample:?} does not match {ty:?}"
        );
        samples += 1;
    }
    assert!(samples > 5, "stderr: {stderr}");
    assert!(
        stderr.contains("\nimplicate_estimator_tuples 1000\n"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("# TYPE implicate_estimator_zone1_skips counter\n"),
        "stderr: {stderr}"
    );
}

#[test]
fn trace_out_writes_jsonl_journal() {
    let dir = std::env::temp_dir().join(format!("implicate-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("events.jsonl");
    let path_s = path.to_str().expect("utf-8 path");

    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--trace-out", path_s],
        &traffic(500, 500),
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("trace: wrote"), "stderr: {stderr}");
    let jsonl = std::fs::read_to_string(&path).expect("trace file written");
    let summary = jsonl.lines().last().expect("summary line");
    assert!(
        summary.contains("\"event\":\"journal_summary\""),
        "{summary}"
    );
    assert!(summary.contains("\"enabled\":true"), "{summary}");
    // 500 fickle sources each turn dirty once: events must be present.
    assert!(jsonl.contains("\"event\":\"dirty\""), "no dirty events");
    assert!(
        jsonl.lines().count() > 100,
        "suspiciously few events:\n{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_reports_error_trajectory_and_summary() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--audit", "1000"],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let samples: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("audit ") && l.contains("rel error"))
        .collect();
    assert_eq!(samples.len(), 2, "stderr: {stderr}");
    assert!(samples[0].starts_with("audit 1000 rows:"), "{}", samples[0]);
    // Final summary with the last relative error; loyal-only traffic must
    // land well inside the PCSA envelope (0.78/√64 ≈ 9.8%, allow 4σ).
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("audit: "))
        .expect("final audit summary");
    assert!(summary.contains("2 samples over 2000 rows"), "{summary}");
    let err: f64 = summary
        .rsplit_once("final rel error ")
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("parse final rel error");
    assert!(err < 0.40, "final rel error {err} out of band: {summary}");
}

#[test]
fn complement_audit_checks_the_non_implication_count() {
    // 2000 loyal and 1500 two-destination sources: S̄ is exactly 1500.
    let (stdout, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--complement",
            "--audit",
            "5000",
        ],
        &traffic(2000, 1500),
    );
    assert!(ok, "stderr: {stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("audit 5000 rows:"))
        .expect("an audit at the last row");
    assert!(line.contains("exact ≈ 1500,"), "{line}");
    // The audited estimate is the printed answer, S̄.
    assert!(
        line.contains(&format!("estimate {},", stdout.trim())),
        "{line} vs answer {stdout}"
    );
}

/// 12k rows of three columns: skewed sources, mostly loyal, with blank,
/// comment and short lines scattered through.
fn mixed_traffic() -> String {
    let mut s = String::new();
    for i in 0u64..12_000 {
        if i % 997 == 0 {
            s.push('\n');
        }
        if i % 1009 == 0 {
            s.push_str("# a comment line\n");
        }
        if i % 1013 == 0 {
            s.push_str("lonely\n");
        }
        let src = (i * i) % 4_001 / (1 + i % 7);
        let dst = if src % 5 == 0 { i % 3 } else { src % 11 };
        let slot = if i % 4 == 0 { "am" } else { "pm" };
        s.push_str(&format!("s{src} d{dst} {slot}\n"));
    }
    s
}

/// The `--watch` lines of a run's stderr, in order.
fn watch_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| {
            l.split_once(" rows")
                .is_some_and(|(n, _)| n.parse::<u64>().is_ok())
        })
        .collect()
}

/// The `--audit` lines of a run's stderr, in order.
fn audit_lines(stderr: &str) -> Vec<&str> {
    stderr.lines().filter(|l| l.starts_with("audit")).collect()
}

/// The row counts that lines starting `{prefix}{rows} rows` name.
fn report_rows(lines: &[&str], prefix: &str) -> Vec<u64> {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(prefix)?.split_once(" rows")?.0.parse().ok())
        .collect()
}

/// Interleaved cadences each report at exactly their own rows, and
/// `--watch 0` names none.
#[test]
fn interleaved_cadences_report_at_their_rows() {
    let input = traffic(40, 10);
    let multiples = |n: u64| (1..=60 / n).map(|i| i * n).collect::<Vec<u64>>();
    for (watch, want_watch) in [("7", multiples(7)), ("0", vec![])] {
        let args = ["--lhs", "0", "--rhs", "1", "--watch", watch, "--audit", "5"];
        let (_, stderr, ok) = run_cli(&args, &input);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(
            report_rows(&watch_lines(&stderr), ""),
            want_watch,
            "{stderr}"
        );
        assert_eq!(
            report_rows(&audit_lines(&stderr), "audit "),
            multiples(5),
            "{stderr}"
        );
    }
}

#[test]
fn every_thread_count_prints_the_same_answers_and_watch_lines() {
    let dir = std::env::temp_dir().join(format!("implicate-tdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(
        &qfile,
        "loyal    one-to-one  0  1  support=1\n\
         fanout   more-than   0  1  k=2\n\
         morning  one-to-one  0  1  where=2=am\n\
         sources  distinct    0  -\n",
    )
    .expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");
    let input = mixed_traffic();
    for mode in [
        &[
            "--lhs", "0", "--rhs", "1", "--watch", "1000", "--audit", "1000",
        ][..],
        &[
            "--query-file",
            qfile_s,
            "--watch",
            "1000",
            "--audit",
            "1000",
            "--audit-sample",
            "2",
        ],
    ] {
        let (out1, err1, ok1) = run_cli(&[mode, &["--threads", "1"]].concat(), &input);
        assert!(ok1, "stderr: {err1}");
        let watch1 = watch_lines(&err1);
        assert!(watch1.len() >= 11, "{mode:?}: stderr: {err1}");
        assert!(err1.contains("skipped 12)"), "{mode:?}: stderr: {err1}");
        let audit1 = audit_lines(&err1);
        assert!(audit1.len() >= 12, "{mode:?}: stderr: {err1}");
        for threads in ["2", "3"] {
            let (out, err, ok) = run_cli(&[mode, &["--threads", threads]].concat(), &input);
            assert!(ok, "stderr: {err}");
            assert_eq!(out, out1, "{mode:?}: stdout at --threads {threads}");
            assert_eq!(
                watch_lines(&err),
                watch1,
                "{mode:?}: --watch lines at --threads {threads}"
            );
            assert_eq!(
                audit_lines(&err),
                audit1,
                "{mode:?}: --audit lines at --threads {threads}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI leg of the differential test: the state the CLI saves is the
/// state the library builds from the same rows, byte for byte, at one
/// lane and at four. The library leg feeds the rows the way perfbench's
/// `cli_single` reference does: fields hashed with `text::hash_field`,
/// paired by the estimator's `pair_hasher`, applied with
/// `update_hashed_batch`.
#[test]
fn saved_state_matches_the_library_at_every_thread_count() {
    assert_save_matches_library(&mixed_traffic(), "save-diff");
}

/// Rows whose first field is 100 KiB long, many reads' worth, carried
/// across the reader's refills and buffer growth among normal rows.
#[test]
fn rows_longer_than_a_read_save_what_the_library_does() {
    let long = "L".repeat(100 * 1024);
    let mut input = String::new();
    for (i, line) in mixed_traffic().lines().take(3_000).enumerate() {
        if i % 700 == 0 {
            input.push_str(&format!("{long}{i} d{} pm\n", i % 3));
        }
        input.push_str(line);
        input.push('\n');
    }
    assert_save_matches_library(&input, "save-long");
}

/// Runs `input` through `implicate --save` at one lane and at four and
/// checks the saved bytes against the library fed the same rows.
fn assert_save_matches_library(input: &str, tag: &str) {
    use implicate::sketch::hash::MixHasher;
    use implicate::spec::FIELD_HASHER_SEED;
    use implicate::text::hash_field;

    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut est = implicate::opts::EstimatorOpts::default()
        .config()
        .expect("the default flags are valid")
        .build();
    let pair_hasher = est.pair_hasher();
    // Comment lines and rows without column 1 are skipped, as the CLI
    // skips them.
    let pairs: Vec<(u64, u64)> = input
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line
                .split_whitespace()
                .map(|f| hash_field(&field_hasher, f));
            Some(pair_hasher.hash_pair(&[fields.next()?], &[fields.next()?]))
        })
        .collect();
    est.update_hashed_batch(&pairs);
    let want = est.to_bytes();

    let dir = std::env::temp_dir().join(format!("implicate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for threads in ["1", "4"] {
        let path = dir.join(format!("threads-{threads}.imps"));
        let path_s = path.to_str().expect("utf-8 path");
        let args = [
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--threads",
            threads,
            "--save",
            path_s,
        ];
        let (_, stderr, ok) = run_cli(&args, input);
        assert!(ok, "stderr: {stderr}");
        let got = std::fs::read(&path).expect("saved snapshot");
        assert!(
            got == want[..],
            "--threads {threads}: --save wrote {} bytes that differ from the library's {}",
            got.len(),
            want.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_under_threads_matches_sequential_catalog() {
    let dir = std::env::temp_dir().join(format!("implicate-qcat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(
        &qfile,
        "loyal    one-to-one  0  1  support=1\n\
         sources  distinct    0  -\n\
         fanout   more-than   0  1  k=2\n",
    )
    .expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");

    let input = traffic(3000, 1500);
    let (seq_out, seq_err, seq_ok) = run_cli(&["--query-file", qfile_s], &input);
    assert!(seq_ok, "stderr: {seq_err}");
    for threads in ["2", "3"] {
        let (par_out, par_err, par_ok) =
            run_cli(&["--query-file", qfile_s, "--threads", threads], &input);
        assert!(par_ok, "stderr: {par_err}");
        assert_eq!(
            par_out, seq_out,
            "catalog answers must be bit-identical under --threads {threads}"
        );
        assert!(par_err.contains("rows 6000"), "stderr: {par_err}");
        assert!(
            par_err.contains(&format!("over {threads} lanes")),
            "stderr: {par_err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_catalog_watch_reports_settled_per_query_views() {
    let dir = std::env::temp_dir().join(format!("implicate-qwatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, "loyal one-to-one 0 1 support=1\n").expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");

    let input = traffic(2000, 0);
    let (_, stderr, ok) = run_cli(
        &[
            "--query-file",
            qfile_s,
            "--threads",
            "2",
            "--watch",
            "1000",
            "--stats-interval",
            "1000",
        ],
        &input,
    );
    assert!(ok, "stderr: {stderr}");
    // Watch boundaries publish + barrier, so the matched count is exact.
    assert!(
        stderr.contains("1000 rows [loyal]:") && stderr.contains("(1000 matched)"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("implicate_query_tuples{query=\"loyal\"} 1000"),
        "stderr: {stderr}"
    );
    // Each `--stats-interval` emission is a whole exposition: the
    // `query_tuples` and `query_answer` families, one sample each.
    let text: String = stderr
        .lines()
        .filter(|l| l.starts_with('#') || l.starts_with("implicate_"))
        .map(|l| format!("{l}\n"))
        .collect();
    let head = "# HELP implicate_query_tuples ";
    let emissions: Vec<String> = text
        .split(head)
        .skip(1)
        .map(|e| format!("{head}{e}"))
        .collect();
    assert_eq!(emissions.len(), 2, "stderr: {stderr}");
    for text in &emissions {
        assert_eq!(implicate::lint_prometheus(text), Ok(2), "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_format_is_refused_with_a_query_file() {
    let dir = std::env::temp_dir().join(format!("implicate-qfmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, "loyal one-to-one 0 1\n").expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");
    for format in ["influx", "prom"] {
        let (_, stderr, ok) = run_cli(&["--query-file", qfile_s, "--stats-format", format], "");
        assert!(!ok, "--stats-format {format} was accepted");
        assert!(
            stderr.contains("--stats-format is not supported with --query-file"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_sample_without_audit_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
        .args(["--lhs", "0", "--rhs", "1", "--audit-sample", "4"])
        .stdin(Stdio::null())
        .output()
        .expect("run implicate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--audit-sample needs --audit"), "{stderr}");
}

#[test]
fn unknown_option_fails_with_usage() {
    let (_, stderr, ok) = run_cli(&["--bogus"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn missing_required_columns_fails() {
    let (_, stderr, ok) = run_cli(&[], "");
    assert!(!ok);
    assert!(stderr.contains("--lhs is required"), "stderr: {stderr}");
}
