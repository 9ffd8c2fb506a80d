//! Golden permutations: FNV-1a of `new_to_old` for every ordering method on
//! every [`ProblemKind`], taken from the code at `1132df8` (before the
//! shared ordering workspace).  Everything downstream of the ordering — fill,
//! supernodes, `factor_nnz`, flops, traversal peaks, I/O volumes, the
//! benchmark's two quality ratios — is a function of these vectors, so a
//! literal that has to change is a re-baseline of all of them: say so in
//! CHANGES.md, never edit one silently.

use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;

fn fnv1a(perm: &ordering::Permutation) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..perm.len() {
        for byte in (perm.new_to_old(k) as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(kind, target_n, [nd, rcm, amd])`: a single leaf (n ≤ the
/// dissection cutoff), one or two splits, and around 5 000 vertices.
#[rustfmt::skip]
const GOLDEN: [(ProblemKind, usize, [u64; 3]); 21] = [
    (ProblemKind::Grid2d, 30, [0x8819f9b75cc79e1d, 0x393fc4ad97122c5d, 0x8819f9b75cc79e1d]), // n = 25
    (ProblemKind::Grid2d, 60, [0xbecffacfa2ed7ba5, 0x8e320890c03c8565, 0x00f0109900c1f645]), // n = 64
    (ProblemKind::Grid2d, 5000, [0x5205518d87ffe808, 0xc61226bddf3147ec, 0x8ae282de90927ab0]), // n = 5041
    (ProblemKind::Grid2dWide, 30, [0xf4fb768d34cca524, 0x2ba3c2a89a2dbc24, 0xf4fb768d34cca524]), // n = 30
    (ProblemKind::Grid2dWide, 60, [0xa234dd7088d17a05, 0xb86ff532934f4345, 0x69681b8ca2616b25]), // n = 60
    (ProblemKind::Grid2dWide, 5000, [0x3354291b620356dc, 0x6e6bb6f873b245f8, 0xf10319bec0011200]), // n = 4986
    (ProblemKind::Grid2d9, 30, [0x7e308b7008d3589d, 0xfe4cb8019b673a7d, 0x7e308b7008d3589d]), // n = 25
    (ProblemKind::Grid2d9, 60, [0x9b0c039cc42c3e85, 0x5853590ddfa722e5, 0x31aad109e82e9805]), // n = 64
    (ProblemKind::Grid2d9, 5000, [0x01dc0592e8df5704, 0x351095acd1f17534, 0x1716063e7ef32348]), // n = 5041
    (ProblemKind::Grid3d, 30, [0xc38054314f100a3e, 0xd565a6174187a7de, 0xc38054314f100a3e]), // n = 27
    (ProblemKind::Grid3d, 60, [0xcd084d2783ad0685, 0x1b69e156637acf05, 0x97411ad89bce2005]), // n = 64
    (ProblemKind::Grid3d, 5000, [0x01dba1defb259b44, 0xfd0896c43dd8c50c, 0x714b41039e3f60cc]), // n = 4913
    (ProblemKind::Banded, 30, [0xad3f3e0237073944, 0xad3f3e0237073944, 0xad3f3e0237073944]), // n = 30
    (ProblemKind::Banded, 60, [0xcadbdb4ae3cab885, 0xd823ee269a8105e5, 0xd823ee269a8105e5]), // n = 60
    (ProblemKind::Banded, 5000, [0x340166e1a3473425, 0xe6f7be3b885ab295, 0xe6f7be3b885ab295]), // n = 5000
    (ProblemKind::Random, 30, [0x69be07faa9053504, 0x0fbc589506039e04, 0x69be07faa9053504]), // n = 30
    (ProblemKind::Random, 60, [0xde894294f1ced445, 0x684ca7a841456bc5, 0x56c012168f982bc5]), // n = 60
    (ProblemKind::Random, 5000, [0x127e85edef312b69, 0xfa9c37a5e00b4bf9, 0x6c4368c46dd9b145]), // n = 5000
    (ProblemKind::PowerLaw, 30, [0x219aee2651638fe4, 0x4868a2317f608aa4, 0x219aee2651638fe4]), // n = 30
    (ProblemKind::PowerLaw, 60, [0xd057809fbf7efca5, 0xfe95fba8acd7eb05, 0xe106ba9f21945385]), // n = 60
    (ProblemKind::PowerLaw, 5000, [0x66a3c3e1e5e355cd, 0x4c8ab8ee90712c5d, 0x25c1f3724b4ad681]), // n = 5000
];

/// `nd` on the three inputs of the benchmark of record (`plan_nd`,
/// `report_*`, `numeric_grid3d`).
#[rustfmt::skip]
const BENCHMARK_INPUTS: [(ProblemKind, usize, u64); 3] = [
    (ProblemKind::Grid2d, 40000, 0x7a808015c3536561), // n = 40000
    (ProblemKind::Grid2dWide, 30000, 0xa91749bdb207e4dd), // n = 29971
    (ProblemKind::Grid3d, 4913, 0x01dba1defb259b44), // n = 4913
];

#[test]
fn every_method_on_every_kind_matches_the_parent() {
    let methods = [
        OrderingMethod::NestedDissection,
        OrderingMethod::ReverseCuthillMcKee,
        OrderingMethod::MinimumDegree,
    ];
    for (kind, target_n, expected) in GOLDEN {
        let pattern = kind.generate(target_n, 7);
        for (method, expected) in methods.iter().zip(expected) {
            assert_eq!(
                fnv1a(&method.order(&pattern)),
                expected,
                "{} on {} n = {}",
                method.name(),
                kind.name(),
                pattern.n()
            );
        }
    }
}

#[test]
fn nested_dissection_on_the_benchmark_inputs_matches_the_parent() {
    for (kind, target_n, expected) in BENCHMARK_INPUTS {
        let pattern = kind.generate(target_n, 42);
        let perm = OrderingMethod::NestedDissection.order(&pattern);
        assert_eq!(
            fnv1a(&perm),
            expected,
            "nd on {} n = {}",
            kind.name(),
            pattern.n()
        );
    }
}
