//! Property tests for the batched scheduler surface: `run_stage_batched`
//! must be observationally identical to `run_stage` — bit-identical ordered
//! results and identical ok/error/panic counts — for every batch size.

use std::sync::OnceLock;

use mcqa_runtime::{run_stage, run_stage_batched, Executor, TaskError};
use proptest::prelude::*;

fn exec() -> &'static Executor {
    static EXEC: OnceLock<Executor> = OnceLock::new();
    EXEC.get_or_init(|| Executor::new(4))
}

/// The task under test mixes all three outcomes deterministically:
/// successes, `Err` returns, and panics.
fn mixed_outcome(x: u64) -> Result<u64, String> {
    if x % 23 == 3 {
        panic!("induced panic on {x}");
    }
    if x % 11 == 5 {
        return Err(format!("induced failure on {x}"));
    }
    Ok(x.wrapping_mul(0x9E37_79B9).rotate_left(7))
}

proptest! {
    #[test]
    fn batched_is_bit_identical_to_per_item(
        items in proptest::collection::vec(any::<u64>(), 0..150),
    ) {
        let n = items.len();
        let (reference, ref_metrics) =
            run_stage(exec(), "ref", items.clone(), mixed_outcome);
        for batch_size in [1usize, 7, 64, n.max(1)] {
            let (batched, metrics) =
                run_stage_batched(exec(), "ref", items.clone(), batch_size, mixed_outcome);
            prop_assert_eq!(&batched, &reference, "batch_size {}", batch_size);
            prop_assert_eq!(metrics.items, ref_metrics.items);
            prop_assert_eq!(metrics.ok, ref_metrics.ok);
            prop_assert_eq!(metrics.errors, ref_metrics.errors);
            prop_assert_eq!(metrics.panics, ref_metrics.panics);
            prop_assert_eq!(metrics.produced, ref_metrics.produced);
        }
    }
}

/// A panic inside the middle of a batch poisons exactly that item's slot:
/// batch-mates before *and after* the panicking item still complete.
#[test]
fn mid_batch_panic_isolates_to_that_item_only() {
    let items: Vec<u64> = (0..50).collect();
    // Batch size 25 puts item 13 mid-batch with live neighbours both sides.
    let (results, metrics) = run_stage_batched(exec(), "poison", items, 25, |x| {
        if x == 13 {
            panic!("poison pill");
        }
        Ok::<u64, String>(x * 2)
    });
    assert_eq!(metrics.panics, 1);
    assert_eq!(metrics.ok, 49);
    assert_eq!(metrics.errors, 1);
    for (i, r) in results.iter().enumerate() {
        if i == 13 {
            assert_eq!(*r, Err(TaskError::Panicked));
        } else {
            assert_eq!(*r, Ok(i as u64 * 2), "item {i} must survive its batch-mate's panic");
        }
    }
}

/// Batch sizes far larger than the item count degenerate to a single task
/// without losing items or order. The task count is read off a pool of
/// the test's own: the shared one also runs the other tests of this
/// binary, whose tasks would land in the same counter.
#[test]
fn oversized_batch_is_one_task() {
    let exec = Executor::new(2);
    let before = exec.stats().total_executed();
    let (results, metrics) =
        run_stage_batched(&exec, "one-task", (0..10u64).collect(), 1_000_000, |x| {
            Ok::<u64, String>(x)
        });
    assert_eq!(metrics.ok, 10);
    assert_eq!(results, (0..10u64).map(Ok).collect::<Vec<_>>(), "items kept in order");
    assert_eq!(exec.stats().total_executed(), before + 1, "all items in one pool task");
}
