//! A miniature run of every workload's code path: audit-clean, no failed
//! cell, one digest per cell across passes, reproducible from the seed.

mod common;

use common::{mini, reading};
use ioat_benchmark::cells::{Workload, DEFAULT_SEED};

#[test]
fn every_workload_runs_clean_and_deterministic() {
    for w in Workload::ALL {
        let r = mini(w, DEFAULT_SEED, None);
        let text = r.text();
        // Digests are compared on every pass; a mismatch fails the cell.
        assert!(r.correct, "{}: {:?}", w.name(), r.notes);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.notes);
        assert_eq!(reading(&text, "fail_ratio"), Some("0"), "{}", w.name());
        assert!(r.attempted > 0);
        assert!(r.json().starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn the_seed_fixes_the_inputs() {
    let digest = |seed| {
        let r = mini(Workload::FabricDc, seed, None);
        assert_eq!(r.failed, 0, "{:?}", r.notes);
        reading(&r.text(), "digest")
            .expect("digest line")
            .to_string()
    };
    let a = digest(DEFAULT_SEED);
    assert_eq!(a, digest(DEFAULT_SEED), "same seed, same results");
    assert_ne!(a, digest(7), "another seed, other inputs");
}
