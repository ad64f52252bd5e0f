//! An idle lane must park its thread, not spin on a core: a constrained
//! node has as little CPU to spare as memory. This starts a two-lane
//! `ShardedEstimator` and a two-lane `ShardedCatalog`, lets each apply a
//! little work, leaves all four lanes idle for a second, and checks that
//! the lane threads carry their names and that the process burned almost
//! no CPU meanwhile.
//!
//! Its own integration-test binary, so no other test's threads share the
//! process CPU it measures. Linux only: it reads `/proc/self`.
#![cfg(target_os = "linux")]

use std::time::Duration;

use implicate::{
    EstimatorConfig, ImplicationConditions, ImplicationQuery, QueryCatalog, Schema, ShardedCatalog,
    ShardedEstimator, Tuple,
};

/// Clock ticks per second of `/proc/self/stat`'s times (`USER_HZ`, fixed
/// at 100 in the Linux user ABI).
const USER_HZ: u64 = 100;

/// The process's user + system CPU time so far, in milliseconds.
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name in parentheses may hold spaces; the fields after
    // it start with the state (field 3), so utime and stime (fields 14
    // and 15) sit at offsets 11 and 12.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("clock ticks"))
        .sum();
    ticks * 1000 / USER_HZ
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn idle_lanes_are_named_and_park_instead_of_spinning() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut estimator = ShardedEstimator::new(EstimatorConfig::new(cond).seed(3).build(), 2);
    for a in 0..10_000u64 {
        estimator.update(&[a], &[a % 7]);
    }
    estimator.barrier();

    let schema = Schema::new([("Src", 0), ("Dst", 0)]);
    let mut catalog = QueryCatalog::new(&schema, EstimatorConfig::new(cond).seed(5));
    let (src, dst) = (schema.attr_set(&["Src"]), schema.attr_set(&["Dst"]));
    catalog.register("loyal", ImplicationQuery::one_to_one(src, dst, 1));
    catalog.register("sources", ImplicationQuery::distinct_count(src));
    let mut catalog = ShardedCatalog::new(catalog, 2);
    let rows: Vec<Tuple> = (0..1_000u64).map(|i| Tuple::from([i, i % 7])).collect();
    catalog.process_batch(&rows);
    catalog.barrier();

    let names = thread_names();
    for lane in [
        "ingest-lane-0",
        "ingest-lane-1",
        "catalog-lane-0",
        "catalog-lane-1",
    ] {
        assert!(
            names.iter().any(|n| n == lane),
            "no thread named {lane} among {names:?}"
        );
    }

    // Let the lanes run out of spins and yields, then watch them idle.
    std::thread::sleep(Duration::from_millis(100));
    let before = process_cpu_ms();
    std::thread::sleep(Duration::from_secs(1));
    let burned = process_cpu_ms() - before;
    assert!(
        burned < 100,
        "four idle lanes burned {burned} ms of CPU in one second"
    );

    assert_eq!(estimator.finish().tuples_seen(), 10_000);
    assert_eq!(catalog.finish().tuples_seen(), 1_000);
}
