//! Recovery folds the WAL tail into one net batch and applies it as a
//! single engine update. The property under test: **that one update leaves
//! the engine exactly where record-by-record replay would** — the same CSR
//! *including the vertex count*, the same κ in all three spaces, canonically
//! equal forests, and `updates_applied` advanced by the record count.
//!
//! The randomized half reuses `crash_recovery.rs`'s stream generator (tiny
//! graphs, ids a little past the vertex count, so tails routinely insert
//! and later remove the same edge or grow the vertex set); the crafted half
//! pins each edge case by name. Case count scales with `PROPTEST_CASES`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hdsd_graph::{graph_from_edges, CsrGraph};
use hdsd_nucleus::{assert_forest_eq, LocalConfig};
use hdsd_service::{Durability, Engine, FailPoints, RecoveryReport};
use proptest::test_runner::Config;

mod common;
use common::{durable_cfg, engine_of, random_stream, Edge, SPACES};

type Batch = (Vec<Edge>, Vec<Edge>);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdsd_walfold_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reopen(dir: &std::path::Path) -> (Engine, RecoveryReport) {
    let (engine, _dur, rep) =
        Durability::open(durable_cfg(dir, FailPoints::none()), LocalConfig::sequential(), || {
            Err("unexpected cold start: a checkpoint exists".into())
        })
        .expect("recovery");
    (engine, rep)
}

/// Checkpoints `base`, logs `tail` without applying it, dies, recovers.
fn recover_tail(base: &CsrGraph, tail: &[Batch], tag: &str) -> (Engine, RecoveryReport) {
    let dir = tmpdir(tag);
    let seed_graph = base.clone();
    let (engine, mut dur, _) = Durability::open(
        durable_cfg(&dir, FailPoints::none()),
        LocalConfig::sequential(),
        move || Ok(engine_of(seed_graph)),
    )
    .expect("fresh open");
    for (ins, rm) in tail {
        dur.append(ins, rm).expect("append");
    }
    drop((engine, dur)); // the process "dies" with the whole tail unapplied
    let out = reopen(&dir);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// The reference: every forest resident (as after a snapshot restore), then
/// one update per record.
fn replay(base: &CsrGraph, tail: &[Batch]) -> Engine {
    let mut engine = engine_of(base.clone());
    for &sel in SPACES {
        let _ = engine.hierarchy_of(sel).unwrap();
    }
    for (ins, rm) in tail {
        engine.update(ins, rm);
    }
    engine
}

fn assert_same_state(rec: &Engine, reference: &Engine, ctx: &str) {
    assert_eq!(rec.graph().num_vertices(), reference.graph().num_vertices(), "{ctx}: vertices");
    assert_eq!(rec.graph().edges(), reference.graph().edges(), "{ctx}: edges");
    for &sel in SPACES {
        assert_eq!(
            rec.kappa_vector(sel).unwrap(),
            reference.kappa_vector(sel).unwrap(),
            "{ctx}: κ diverged in {sel:?}"
        );
        assert_forest_eq(rec.hierarchy_of(sel).unwrap(), reference.hierarchy_of(sel).unwrap());
    }
    assert_eq!(
        rec.stats().updates_applied,
        reference.stats().updates_applied,
        "{ctx}: updates_applied"
    );
}

/// Returns the recovered engine for case-specific assertions.
fn assert_fold_matches_replay(base: &CsrGraph, tail: &[Batch], tag: &str) -> Engine {
    let (rec, rep) = recover_tail(base, tail, tag);
    assert!(rep.snapshot_loaded && !rep.cold_start, "{tag}: {rep:?}");
    assert_eq!(rep.replayed as usize, tail.len(), "{tag}: {rep:?}");
    assert_eq!(
        rep.read_us + rep.fold_us + rep.apply_us + rep.checkpoint_us,
        rep.wall_us,
        "{tag}: the stages partition the open: {rep:?}"
    );
    assert_same_state(&rec, &replay(base, tail), tag);
    rec
}

#[test]
fn folded_recovery_equals_record_by_record_replay_over_randomized_streams() {
    let streams = Config::with_cases(100).effective_cases();
    for i in 0..streams as u64 {
        let stream = random_stream(0xF01D_0000 + i);
        let _ = assert_fold_matches_replay(&stream.base, &stream.batches, &format!("random_{i}"));
    }
}

/// Two K4s sharing the edge (2,3), plus a tail 5-6: vertices 0..=6.
fn demo_graph() -> CsrGraph {
    graph_from_edges([
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
        (4, 5),
        (5, 6),
    ])
}

#[test]
fn an_edge_inserted_then_removed_is_absent() {
    let tail = [(vec![(0, 4), (1, 4)], vec![]), (vec![(0, 5)], vec![(0, 4)])];
    let rec = assert_fold_matches_replay(&demo_graph(), &tail, "insert_remove");
    assert_eq!(rec.graph().edge_id(0, 4), None);
    assert!(rec.graph().edge_id(1, 4).is_some());
}

#[test]
fn an_edge_removed_then_reinserted_is_present() {
    let tail = [(vec![], vec![(2, 3)]), (vec![(6, 4)], vec![(5, 6)]), (vec![(3, 2)], vec![])];
    let rec = assert_fold_matches_replay(&demo_graph(), &tail, "remove_reinsert");
    assert!(rec.graph().edge_id(2, 3).is_some());
}

#[test]
fn an_edge_removed_and_inserted_by_one_record_is_present() {
    // `apply_edge_batch`: a record removes first, then inserts.
    let tail = [(vec![(2, 3), (0, 4)], vec![(2, 3), (0, 4)])];
    let rec = assert_fold_matches_replay(&demo_graph(), &tail, "one_record");
    assert!(rec.graph().edge_id(2, 3).is_some());
    assert!(rec.graph().edge_id(0, 4).is_some());
}

#[test]
fn a_grown_vertex_set_stays_grown_when_its_edge_is_removed() {
    // (0,9) grows the vertex set to 10; a later record removes it. No
    // surviving edge names vertex 9, and the vertex set never shrinks.
    let tail = [(vec![(0, 9)], vec![]), (vec![(1, 4)], vec![(0, 9)])];
    let rec = assert_fold_matches_replay(&demo_graph(), &tail, "grow_remove");
    assert_eq!(rec.graph().num_vertices(), 10);
    assert_eq!(rec.graph().edge_id(0, 9), None);
    // The same when the only thing the tail does is grow and take back.
    let tail = [(vec![(0, 11)], vec![]), (vec![], vec![(0, 11)])];
    let rec = assert_fold_matches_replay(&demo_graph(), &tail, "grow_only");
    assert_eq!(rec.graph().num_vertices(), 12);
}

#[test]
fn an_empty_tail_recovers_the_snapshot() {
    let rec = assert_fold_matches_replay(&demo_graph(), &[], "empty");
    assert_eq!(rec.stats().updates_applied, 0);
}

/// The checkpoint was renamed into place but the process died before the
/// WAL rotated: every record of the tail is already inside the snapshot.
#[test]
fn a_tail_the_snapshot_already_holds_folds_to_nothing() {
    let dir = tmpdir("stale");
    // Armed only for the explicit checkpoint below, not the open's own.
    let armed = Arc::new(AtomicBool::new(false));
    let a = Arc::clone(&armed);
    let fp = FailPoints::new(move |p| p == "ckpt.rename.after" && a.load(Ordering::SeqCst));
    let (mut engine, mut dur, _) =
        Durability::open(durable_cfg(&dir, fp), LocalConfig::sequential(), || {
            Ok(engine_of(demo_graph()))
        })
        .expect("fresh open");
    let tail: Vec<Batch> = vec![(vec![(0, 4), (1, 8)], vec![(5, 6)]), (vec![(5, 6)], vec![(1, 8)])];
    for (ins, rm) in &tail {
        dur.append(ins, rm).expect("append");
        engine.update(ins, rm);
    }
    armed.store(true, Ordering::SeqCst);
    dur.checkpoint(&engine).expect_err("armed checkpoint must crash");
    drop((engine, dur));

    let (rec, rep) = reopen(&dir);
    assert_eq!(rep.replayed as usize, tail.len(), "{rep:?}");
    let reference = replay(&demo_graph(), &tail);
    assert_eq!(rec.graph().num_vertices(), 9);
    assert_eq!(rec.graph().num_vertices(), reference.graph().num_vertices());
    assert_eq!(rec.graph().edges(), reference.graph().edges());
    for &sel in SPACES {
        assert_eq!(rec.kappa_vector(sel).unwrap(), reference.kappa_vector(sel).unwrap());
        assert_forest_eq(rec.hierarchy_of(sel).unwrap(), reference.hierarchy_of(sel).unwrap());
    }
    // The snapshot restarts the count; the stale tail still advances it by
    // its record count, as record-by-record replay did.
    assert_eq!(rec.stats().updates_applied, tail.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}
