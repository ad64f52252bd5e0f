//! Fuzz the query-spec grammar (`implicate::spec`) shared by `implicate
//! --query-file` and `implicate-serve`'s `POST /query`: for arbitrary
//! text the parser must not panic, and every line it accepts must
//! register into a `QueryCatalog`, ingest a batch and retire without
//! panicking.
//!
//! Run with `cargo +nightly fuzz run query_spec` from the repository
//! root; nightly CI runs it for 60 seconds.

#![no_main]

use implicate::spec::parse_query_line;
use implicate::{EstimatorConfig, ImplicationConditions, QueryCatalog, Schema, Tuple};
use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    let Ok(text) = std::str::from_utf8(data) else {
        return;
    };
    let schema = Schema::new((0..64).map(|i| (format!("c{i}"), 0)));
    let config = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).bitmaps(4);
    let mut catalog = QueryCatalog::new(&schema, config);
    let rows: Vec<Tuple> = (0..4u64)
        .map(|r| Tuple::new((0..64).map(|c| (r + c) % 3).collect::<Vec<u64>>()))
        .collect();
    for line in text.lines() {
        let Ok(spec) = parse_query_line(line) else {
            continue;
        };
        let id = catalog
            .try_register(spec.name.clone(), spec.query.clone())
            .expect("a parsed spec registers into a 64-column catalog");
        catalog.process_batch(&rows);
        let _ = catalog.answer(id);
        assert!(catalog.retire(id));
    }
});
