//! Seeded property battery for the distributed wire format.
//!
//! Seven properties, the first three over many seeded random instances:
//!
//! 1. **Round-trip exactness** — tasks and contribution frames decode back
//!    to bit-identical payloads (floats compared by `to_bits`, not `==`;
//!    a block's entries above the diagonal are undefined and decode to
//!    +0.0).
//! 2. **NaN-freedom** — non-finite floats cannot cross the wire in either
//!    direction: the encoder writes raw bit patterns, the decoder rejects
//!    them with a typed error.
//! 3. **Hostility tolerance** — truncating, padding, or corrupting a valid
//!    frame at any byte yields a typed [`WireError`] (the serving layer's
//!    clean 400), never a panic.
//! 4. **One version** — a frame of the retired `v1` schema (which shipped
//!    row indices) is a typed schema error, not a best-effort decode.
//! 5. **Golden bytes** — the contribution frames of a real distributed cut
//!    hash to a pinned FNV-1a literal.
//! 6. **Exact slices** — every task of real cuts, shipped as a task frame,
//!    decodes to the coordinator's own slice and factors to the bits of
//!    `Plan::factor_subtree`, with the task's modeled ledger peak.
//! 7. **Hostile slices** — a slice that is not one of its task is a typed
//!    [`WireError`] from `SubtreeTask::slice`, or decodes and fails to
//!    factor with a typed error, never a panic.

use std::sync::Arc;

use distrib::{
    contribution_frame, decode_frame, encode_frame, ClaimReply, Contribution, SliceFrame,
    SubtreeTask, WireError, WIRE_SCHEMA,
};
use engine::{DistributedConfig, Engine, EngineConfig, EngineError, SliceError, SubtreeParts};
use multifrontal::{ContributionStore, DenseMatrix, FactorizationError};
use ordering::OrderingMethod;
use prng::{Rng, StdRng};
use sparsemat::gen::ProblemKind;

// Miri interprets every instruction, so it runs this battery for decoder
// memory-safety rather than statistical coverage; the native round counts
// would take hours there.
const TASK_ROUNDS: usize = if cfg!(miri) { 4 } else { 64 };
const CONTRIBUTION_ROUNDS: u64 = if cfg!(miri) { 3 } else { 48 };
const CORRUPTION_ROUNDS: usize = if cfg!(miri) { 32 } else { 500 };
const TRUNCATION_STRIDE: usize = if cfg!(miri) { 97 } else { 1 };

fn random_finite(rng: &mut StdRng) -> f64 {
    // Spread across magnitudes and signs; always finite.
    let magnitude = 10f64.powi(rng.gen_range(-30i32..=30));
    let value = (rng.gen::<f64>() * 2.0 - 1.0) * magnitude;
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn random_parts(rng: &mut StdRng) -> SubtreeParts {
    let value_count = rng.gen_range(0usize..=96);
    let values: Vec<f64> = (0..value_count).map(|_| random_finite(rng)).collect();
    let mut blocks = ContributionStore::new();
    for _ in 0..rng.gen_range(0usize..=4) {
        // A repeated column replaces the earlier block, as in the kernel.
        let column = rng.gen_range(0usize..10_000);
        let n = rng.gen_range(0usize..=5);
        let values: Vec<f64> = (0..n * n).map(|_| random_finite(rng)).collect();
        blocks.insert(column, DenseMatrix::from_column_major(n, values));
    }
    SubtreeParts { values, blocks }
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Values and every block's lower triangle round-trip by bits; the entries
/// above a block's diagonal are undefined in memory and decode to +0.0.
fn assert_parts_bit_identical(decoded: &SubtreeParts, original: &SubtreeParts) {
    assert!(bit_identical(&decoded.values, &original.values));
    assert_eq!(decoded.blocks.len(), original.blocks.len());
    for ((ca, ba), (cb, bb)) in decoded.blocks.iter().zip(original.blocks.iter()) {
        assert_eq!(ca, cb);
        assert_eq!(ba.n(), bb.n());
        for j in 0..ba.n() {
            for i in 0..ba.n() {
                let expected = if i >= j { bb.get(i, j) } else { 0.0 };
                assert_eq!(ba.get(i, j).to_bits(), expected.to_bits());
            }
        }
    }
}

/// The 8-task cut of `config` (which enables the distributed section) and
/// its plan.
fn cut_of(config: &EngineConfig) -> (engine::Plan, engine::DistributedCut) {
    let engine = Engine::new();
    let plan = engine.plan(config).unwrap();
    let cut = plan
        .schedule(&engine)
        .unwrap()
        .distributed_cut(&engine)
        .unwrap();
    (plan, cut)
}

/// Task `task` of `cut` as the coordinator issues it.
fn issued(config: &EngineConfig, cut: &engine::DistributedCut, task: usize) -> SubtreeTask {
    let slice = cut.task_slice(task);
    SubtreeTask {
        job: 1,
        task,
        epoch: 1,
        lease_ms: 60_000,
        config: config.to_json(),
        order: slice.order().to_vec(),
        slice: Arc::new(SliceFrame::encode(&slice)),
    }
}

fn grid_config() -> EngineConfig {
    EngineConfig::generated(ProblemKind::Grid2d, 400, 11)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true)
        .with_distributed(DistributedConfig::with_tasks(8))
}

/// A block's column, dimension and lower-triangle bits.
type BlockBits = (usize, usize, Vec<u64>);

/// The bits of `parts`' values and of every block's lower triangle (the
/// defined part), with the blocks' columns and dimensions.
fn lower_bits(parts: &SubtreeParts) -> (Vec<u64>, Vec<BlockBits>) {
    let values = parts.values.iter().map(|value| value.to_bits()).collect();
    let blocks = parts
        .blocks
        .iter()
        .map(|(column, block)| {
            let n = block.n();
            let lower = (0..n).flat_map(|j| (j..n).map(move |i| block.get(i, j).to_bits()));
            (column, n, lower.collect())
        })
        .collect();
    (values, blocks)
}

#[test]
fn random_tasks_round_trip_exactly() {
    let config = grid_config();
    let (_, cut) = cut_of(&config);
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..TASK_ROUNDS {
        // The frame does not check the order against the slice, so any
        // order round-trips: the hex items run up to 2^20.
        let order_len = rng.gen_range(1usize..=64);
        let task = SubtreeTask {
            job: rng.gen::<u64>(),
            task: rng.gen_range(0usize..4096),
            epoch: rng.gen::<u64>(),
            lease_ms: rng.gen_range(10u64..=3_600_000),
            order: (0..order_len)
                .map(|_| rng.gen_range(0usize..1 << 20))
                .collect(),
            ..issued(&config, &cut, rng.gen_range(0..cut.task_count()))
        };
        match ClaimReply::from_frame(&task.to_frame()).unwrap() {
            ClaimReply::Task(parsed) => assert_eq!(*parsed, task),
            other => panic!("expected a task, got {other:?}"),
        }
    }
}

// The slice battery's grid: every problem kind × {nd, amd} × amalgamation
// {1, 16}, each cut into 8 tasks; Miri runs one small cell.
const SLICE_KINDS: &[ProblemKind] = if cfg!(miri) {
    &[ProblemKind::Grid2d]
} else {
    &ProblemKind::ALL
};
const SLICE_ORDERINGS: &[OrderingMethod] = if cfg!(miri) {
    &[OrderingMethod::NestedDissection]
} else {
    &[
        OrderingMethod::NestedDissection,
        OrderingMethod::MinimumDegree,
    ]
};
const SLICE_AMALGAMATIONS: &[usize] = if cfg!(miri) { &[16] } else { &[1, 16] };
const SLICE_N: usize = if cfg!(miri) { 64 } else { 600 };

/// Every task of the slice battery's cuts, shipped as a task frame and
/// decoded, carries exactly the coordinator's slice, and factors from it to
/// the bits — values and root blocks — of `Plan::factor_subtree`, with the
/// ledger peak the cut modeled for the task.  (The engine's own battery
/// checks slices against a factor on the whole structure.)
#[test]
fn every_task_factors_exactly_from_its_shipped_slice() {
    let mut tasks = 0;
    for &kind in SLICE_KINDS {
        for &ordering in SLICE_ORDERINGS {
            for &amalgamation in SLICE_AMALGAMATIONS {
                let config = EngineConfig::generated(kind, SLICE_N, 3)
                    .with_ordering(ordering)
                    .with_amalgamation(amalgamation)
                    .with_numeric(true)
                    .with_distributed(DistributedConfig::with_tasks(8));
                let (plan, cut) = cut_of(&config);
                for task in 0..cut.task_count() {
                    let cell = format!("{kind:?} {ordering:?} {amalgamation} task {task}");
                    let frame = issued(&config, &cut, task).to_frame();
                    let ClaimReply::Task(received) = ClaimReply::from_frame(&frame).unwrap() else {
                        panic!("{cell}: not a task");
                    };
                    let slice = received.slice().unwrap();
                    assert_eq!(slice, cut.task_slice(task), "{cell}");
                    let (shipped, peak) = slice.factor_measured(None).unwrap();
                    let planned = plan.factor_subtree(cut.task_order(task), None).unwrap();
                    assert_eq!(lower_bits(&shipped), lower_bits(&planned), "{cell}");
                    assert_eq!(peak, cut.task_peak_entries(task), "{cell}");
                    tasks += 1;
                }
            }
        }
    }
    let cells = SLICE_KINDS.len() * SLICE_ORDERINGS.len() * SLICE_AMALGAMATIONS.len();
    assert!(tasks >= 2 * cells, "{tasks} tasks");
}

/// A task frame's body with field `field`'s string value passed through
/// `edit`.
fn edited(frame: &[u8], field: &str, edit: impl Fn(&str) -> String) -> Vec<u8> {
    let body = decode_frame(frame).unwrap();
    let key = format!("\"{field}\": \"");
    let start = body.find(&key).unwrap() + key.len();
    let end = start + body[start..].find('"').unwrap();
    let body = format!(
        "{}{}{}",
        &body[..start],
        edit(&body[start..end]),
        &body[end..]
    );
    encode_frame(&body)
}

/// The slice of an edited task frame: decoding the frame succeeds (the
/// task's identity is known), the slice is the typed error.
fn slice_error(frame: &[u8]) -> WireError {
    let ClaimReply::Task(task) = ClaimReply::from_frame(frame).unwrap() else {
        panic!("not a task");
    };
    task.slice().unwrap_err()
}

#[test]
fn hostile_slices_are_typed_errors() {
    let config = grid_config();
    let (_, cut) = cut_of(&config);
    let task = issued(&config, &cut, 0);
    let slice = cut.task_slice(0);
    let frame = task.to_frame();
    let hex8 = |value: usize| format!("{value:08x}");
    let n = slice.n();
    // The last row of the last column, raised to n: still increasing.
    let row_at_n = edited(&frame, "rows", |rows| {
        format!("{}{}", &rows[..rows.len() - 8], hex8(n))
    });
    // The order names a column that is not in the slice: some column's
    // rows no longer start at its diagonal.
    let outside = (0..n).find(|c| !slice.order().contains(c)).unwrap();
    let foreign_column = edited(&frame, "order", |order| {
        format!("{}{}", hex8(outside), &order[8..])
    });
    let infinite = edited(&frame, "values", |values| {
        format!("{:016x}{}", f64::INFINITY.to_bits(), &values[16..])
    });
    let extra_count = edited(&frame, "counts", |counts| format!("{counts}00000001"));
    let fewer_values = edited(&frame, "values", |values| values[16..].to_string());
    let truncated = edited(&frame, "rows", |rows| rows[..rows.len() - 1].to_string());
    let uppercase = edited(&frame, "values", str::to_uppercase);
    // A dimension past the `u32` indices, refused before anything is sized
    // by it.
    let body = decode_frame(&frame).unwrap();
    let huge_n = encode_frame(&body.replace(
        &format!("\"n\": {n},"),
        &format!("\"n\": {},", u64::from(u32::MAX)),
    ));
    let cases = [
        (
            "n past u32",
            huge_n,
            WireError::BadSlice(SliceError::Dimension),
        ),
        ("row ≥ n", row_at_n, WireError::BadSlice(SliceError::Rows)),
        (
            "foreign column",
            foreign_column,
            WireError::BadSlice(SliceError::Rows),
        ),
        ("non-finite", infinite, WireError::NonFinite("values")),
        (
            "extra count",
            extra_count,
            WireError::BadSlice(SliceError::Counts),
        ),
        (
            "fewer values",
            fewer_values,
            WireError::BadSlice(SliceError::Counts),
        ),
        ("truncated hex", truncated, WireError::BadHex("rows")),
        ("uppercase hex", uppercase, WireError::BadHex("values")),
    ];
    for (name, frame, expected) in cases {
        assert_eq!(slice_error(&frame), expected, "{name}");
    }
    // The order upside down, the task root first, before its children: the
    // slice decodes, and the tree derived from it refuses the order.
    let root_first = edited(&frame, "order", |order| {
        let items: Vec<&str> = (0..order.len() / 8)
            .map(|i| &order[8 * i..8 * i + 8])
            .collect();
        items.into_iter().rev().collect()
    });
    let ClaimReply::Task(task) = ClaimReply::from_frame(&root_first).unwrap() else {
        panic!("not a task");
    };
    let outcome = task.slice().unwrap().factor(None);
    assert!(
        matches!(
            outcome,
            Err(EngineError::Factorization(
                FactorizationError::InvalidTraversal
            ))
        ),
        "root first: {outcome:?}"
    );
    // Every truncation of a slice payload is typed too.
    for cut_at in (0..40).step_by(TRUNCATION_STRIDE) {
        let frame = edited(&frame, "counts", |counts| counts[..cut_at].to_string());
        assert!(ClaimReply::from_frame(&frame)
            .map(|reply| match reply {
                ClaimReply::Task(task) => task.slice().is_err(),
                _ => false,
            })
            .unwrap_or(true));
    }
}

#[test]
fn random_contributions_round_trip_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for round in 0..CONTRIBUTION_ROUNDS {
        let parts = random_parts(&mut rng);
        let frame = contribution_frame(
            round,
            rng.gen_range(0usize..4096),
            rng.gen::<u64>(),
            &format!("worker-{round}"),
            rng.gen::<f64>() * 100.0,
            &parts,
        );
        let decoded = Contribution::from_frame(&frame).unwrap();
        assert_eq!(decoded.job, round);
        assert_eq!(decoded.worker, format!("worker-{round}"));
        assert_parts_bit_identical(&decoded.parts, &parts);
        // Identical parts give identical bytes (blocks go out by column).
        let again = contribution_frame(
            decoded.job,
            decoded.task,
            decoded.epoch,
            &decoded.worker,
            decoded.busy_seconds,
            &decoded.parts,
        );
        assert_eq!(again, frame);
    }
}

#[test]
fn non_finite_floats_cannot_cross_the_wire() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let in_values = SubtreeParts {
            values: vec![1.0, bad],
            blocks: ContributionStore::new(),
        };
        let mut blocks = ContributionStore::new();
        blocks.insert(4, DenseMatrix::from_column_major(1, vec![bad]));
        let in_a_block = SubtreeParts {
            values: vec![1.0],
            blocks,
        };
        for parts in [in_values, in_a_block] {
            let frame = contribution_frame(1, 0, 1, "w", 0.0, &parts);
            assert!(matches!(
                Contribution::from_frame(&frame),
                Err(WireError::NonFinite(_))
            ));
        }
    }
}

#[test]
fn mangled_frames_never_panic() {
    let mut blocks = ContributionStore::new();
    blocks.insert(5, DenseMatrix::from_column_major(1, vec![0.75]));
    let parts = SubtreeParts {
        values: vec![2.0, -0.25],
        blocks,
    };
    let frame = contribution_frame(2, 1, 3, "w-0", 1.5, &parts);

    // Every truncation point is a typed error (Miri samples the points).
    for cut in (0..frame.len()).step_by(TRUNCATION_STRIDE) {
        assert!(Contribution::from_frame(&frame[..cut]).is_err());
    }
    // Padding is a typed error.
    let mut padded = frame.clone();
    padded.extend_from_slice(b"garbage");
    assert!(matches!(
        Contribution::from_frame(&padded),
        Err(WireError::TrailingBytes { .. })
    ));

    // Seeded single-byte corruption: decode must return, never panic.
    // (Many corruptions still decode fine — e.g. a flipped value bit — so
    // only absence of panics and of non-finite leaks is asserted.)
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for _ in 0..CORRUPTION_ROUNDS {
        let mut mangled = frame.clone();
        let at = rng.gen_range(0usize..mangled.len());
        mangled[at] = rng.gen_range(0u64..=255) as u8;
        if let Ok(contribution) = Contribution::from_frame(&mangled) {
            let parts = &contribution.parts;
            assert!(parts.values.iter().all(|value| value.is_finite()));
            for (_, block) in parts.blocks.iter() {
                assert_eq!(block.column_major().len(), block.n() * block.n());
                assert!(block.column_major().iter().all(|value| value.is_finite()));
            }
        }
    }
}

#[test]
fn oversized_declared_lengths_are_rejected_before_allocation() {
    let huge = format!("{WIRE_SCHEMA} {}\n", usize::MAX);
    assert!(matches!(
        decode_frame(huge.as_bytes()),
        Err(WireError::Oversized { .. })
    ));
    // A frame at exactly the declared size of its body still decodes.
    let ok = encode_frame("{}");
    assert_eq!(decode_frame(&ok).unwrap(), "{}");
    // A block that declares a dimension its payload does not back — up to
    // one whose square overflows — is a field error; nothing is sized from
    // the declared number.
    let frame = contribution_frame(
        1,
        0,
        1,
        "w",
        0.0,
        &SubtreeParts {
            values: vec![1.0],
            blocks: ContributionStore::new(),
        },
    );
    let body = decode_frame(&frame).unwrap();
    for dimension in ["1", "4294967296", "18446744073709551615"] {
        let bomb = body.replace(
            "\"blocks\": []",
            &format!("\"blocks\": [[0,{dimension},\"\"]]"),
        );
        assert_ne!(bomb, body);
        assert!(matches!(
            Contribution::from_frame(&encode_frame(&bomb)),
            Err(WireError::Field("blocks"))
        ));
    }
}

#[test]
fn v1_frames_are_a_typed_schema_error() {
    let body = decode_frame(&ClaimReply::Idle.to_frame())
        .unwrap()
        .to_string();
    let v1 = format!("distrib_wire/v1 {}\n{body}", body.len());
    match ClaimReply::from_frame(v1.as_bytes()) {
        Err(WireError::BadHeader(detail)) => {
            assert!(detail.contains("distrib_wire/v1") && detail.contains(WIRE_SCHEMA));
        }
        other => panic!("expected a schema error, got {other:?}"),
    }
    assert!(matches!(
        Contribution::from_frame(v1.as_bytes()),
        Err(WireError::BadHeader(_))
    ));
}

/// The contribution frames of a real cut are byte-identical to those of
/// the code at `22655dd`, whose blocks were zero above the diagonal in
/// memory, apart from the schema token (hashed as the `v2` it was there):
/// FNV-1a over the 8 task frames of a grid2dwide problem (nested
/// dissection, amalgamation 16), each task factored as a worker would.
#[test]
fn real_task_frames_match_their_golden_hash() {
    let config = EngineConfig::generated(ProblemKind::Grid2dWide, 2_000, 5)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_amalgamation(16)
        .with_numeric(true)
        .with_distributed(DistributedConfig::with_tasks(8));
    let engine = Engine::new();
    let plan = engine.plan(&config).unwrap();
    let cut = plan
        .schedule(&engine)
        .unwrap()
        .distributed_cut(&engine)
        .unwrap();
    assert_eq!(cut.task_count(), 8);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for task in 0..cut.task_count() {
        let parts = plan.factor_subtree(cut.task_order(task), None).unwrap();
        assert!(parts.blocks.iter().any(|(_, block)| block.n() > 1));
        let frame = contribution_frame(1, task, 1, "w", 0.0, &parts);
        let frame = String::from_utf8(frame)
            .unwrap()
            .replace(WIRE_SCHEMA, "distrib_wire/v2");
        for &byte in frame.as_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0x2886_fd10_8e63_5877);
}
