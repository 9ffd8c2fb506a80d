//! Layout gates of the paper's tree and its out-of-core walks: on 10⁵-node
//! trees from every `treemem::random` and `treemem::gadgets` generator, a
//! `Tree` holds 36 bytes a node, a `Walk`'s position map and an
//! `IoSchedule`'s eviction steps 4, and the `u32` child lists are the
//! parent pointers inverted, each family in increasing id order.

use minio::{schedule_io_with, IoSchedule, Policy, Walk};
use treemem::gadgets::{harpoon, harpoon_tower, two_partition_gadget};
use treemem::postorder::best_postorder;
use treemem::random::{
    caterpillar, comb, nested_dissection_etree, random_attachment_tree, random_bounded_degree_tree,
    random_chain, random_kary_tree, reweight_paper, reweight_uniform, spider,
};
use treemem::tree::{Size, Tree};

/// One tree of about 10⁵ nodes from every generator.
fn trees() -> Vec<(&'static str, Tree)> {
    let nd = nested_dissection_etree(100_000, 7);
    let mut items: Vec<Size> = (1..=50_000).map(|i| 1 + i % 7).collect();
    if items.iter().sum::<Size>() % 2 == 1 {
        items[0] += 1;
    }
    vec![
        (
            "random_attachment_tree",
            random_attachment_tree(100_000, 50, 10, 1),
        ),
        (
            "random_bounded_degree_tree",
            random_bounded_degree_tree(100_000, 3, 50, 10, 2),
        ),
        ("random_kary_tree", random_kary_tree(16, 2, 50, 10, 3)),
        ("caterpillar", caterpillar(20_000, 4, 50, 4)),
        ("spider", spider(100, 1_000, 50, 5)),
        ("random_chain", random_chain(100_000, 50, 6)),
        ("comb", comb(50_000, 1_000, 8)),
        ("reweight_uniform", reweight_uniform(&nd, 50, 10, 9)),
        ("reweight_paper", reweight_paper(&nd, 10)),
        ("nested_dissection_etree", nd),
        ("harpoon", harpoon(50_000, 500_000, 1)),
        ("harpoon_tower", harpoon_tower(3, 300, 1, 9)),
        ("two_partition_gadget", two_partition_gadget(&items).tree),
    ]
}

#[test]
fn trees_walks_and_schedules_hold_their_documented_bytes_a_node() {
    for (name, tree) in trees() {
        let p = tree.len();
        assert!(p >= 88_000, "{name}: {p} nodes");
        assert_eq!(tree.heap_bytes(), 36 * p as u64, "{name}");
        for i in tree.nodes() {
            let children = tree.children(i);
            assert!(children.windows(2).all(|pair| pair[0] < pair[1]), "{name}");
            assert!(
                children.iter().all(|&c| tree.parent(c as usize) == Some(i)),
                "{name}: a child of {i} names another parent"
            );
        }
        let listed: usize = tree.nodes().map(|i| tree.child_count(i)).sum();
        assert_eq!(listed, p - 1, "{name}: every non-root node is listed once");

        let po = best_postorder(&tree);
        let walk = Walk::new(&tree, &po.traversal).unwrap();
        assert_eq!(walk.heap_bytes(), 4 * p as u64, "{name}");
        assert_eq!(IoSchedule::empty(p).heap_bytes(), 4 * p as u64, "{name}");
        let memory = (tree.max_mem_req() + po.peak) / 2;
        let run = schedule_io_with(&tree, &po.traversal, memory, Policy::Lsnf).unwrap();
        assert_eq!(run.schedule.heap_bytes(), 4 * p as u64, "{name}");
    }
}

/// Eviction steps round-trip through the `u32` store, `None` included, and
/// a step no traversal reaches is refused.
#[test]
fn eviction_steps_round_trip_through_four_bytes() {
    let mut schedule = IoSchedule::empty(4);
    schedule.set_eviction(1, 0);
    schedule.set_eviction(3, u32::MAX as usize - 1);
    assert_eq!(schedule.eviction_step(0), None);
    assert_eq!(schedule.eviction_step(1), Some(0));
    assert_eq!(schedule.eviction_step(3), Some(u32::MAX as usize - 1));
    assert_eq!(schedule.eviction_step(4), None);
    let evictions: Vec<_> = schedule.evictions().collect();
    assert_eq!(evictions, [(1, 0), (3, u32::MAX as usize - 1)]);
    for step in [u32::MAX as usize, usize::MAX] {
        let refused = std::panic::catch_unwind(move || IoSchedule::empty(1).set_eviction(0, step));
        assert!(refused.is_err(), "step {step}");
    }
}
