//! Query scheduling for minimal expected index-creation cost
//! (paper §5.2–§5.4).
//!
//! With lazy index creation, the order in which queries run determines how
//! much index-build work is wasted when a timeout interrupts evaluation.
//! Under the paper's model — an interruption after each query is equally
//! likely — the expected cost of order `i_1 … i_n` is
//!
//! ```text
//! 1/n · Σ_{k=1..n} Σ_{j=1..k} z_{i_j}({i_1 … i_{j-1}})        (Eq. 1)
//! ```
//!
//! where `z_i(Q)` is the cost of the indexes query `i` still needs after
//! the queries in `Q` created theirs. Rearranged, the marginal cost `m_j`
//! of the j-th item carries weight `(n − j + 1)/n`, so cheap-marginal items
//! should run first. [`find_optimal_order`] implements the paper's
//! Selinger-style dynamic program (Algorithm 4), exact because the
//! principle of optimality holds (Theorem 5.2); [`cluster_queries`] caps
//! the DP input at 13 items by k-means clustering queries on their binary
//! index-dependency vectors (§5.4).

use lt_common::seeded_rng;
use std::collections::HashMap;

/// Paper's cap on the DP input size (§5.4).
pub const MAX_DP_ITEMS: usize = 13;

/// Union of an item's index requirements as a bitmask over index slots.
fn mask_of(indexes: &[usize]) -> u128 {
    let mut m = 0u128;
    for &i in indexes {
        assert!(i < 128, "scheduler supports at most 128 distinct indexes");
        m |= 1 << i;
    }
    m
}

fn mask_cost(mask: u128, costs: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros() as usize;
        total += costs[bit];
        m &= m - 1;
    }
    total
}

/// Expected index-creation cost (Eq. 1) of executing items in `order`.
///
/// `item_indexes[i]` lists the index slots item `i` needs; `costs[s]` is
/// the build cost of slot `s`.
pub fn expected_index_cost(order: &[usize], item_indexes: &[Vec<usize>], costs: &[f64]) -> f64 {
    let n = order.len();
    if n == 0 {
        return 0.0;
    }
    let mut created = 0u128;
    let mut total = 0.0;
    for (j, &item) in order.iter().enumerate() {
        let need = mask_of(&item_indexes[item]) & !created;
        let marginal = mask_cost(need, costs);
        let weight = (n - j) as f64 / n as f64;
        total += weight * marginal;
        created |= need;
    }
    total
}

/// Exact optimal order by dynamic programming over item subsets
/// (Algorithm 4). Panics when given more than [`MAX_DP_ITEMS`] items —
/// cluster first (see [`schedule`]).
pub fn find_optimal_order(item_indexes: &[Vec<usize>], costs: &[f64]) -> Vec<usize> {
    let n = item_indexes.len();
    assert!(
        n <= MAX_DP_ITEMS,
        "DP input capped at {MAX_DP_ITEMS} items (got {n}); cluster first"
    );
    if n == 0 {
        return Vec::new();
    }
    let masks: Vec<u128> = item_indexes.iter().map(|ix| mask_of(ix)).collect();
    // Union of index masks for every subset, built incrementally.
    let full = (1usize << n) - 1;
    let mut union = vec![0u128; full + 1];
    for subset in 1..=full {
        let low = subset.trailing_zeros() as usize;
        union[subset] = union[subset & (subset - 1)] | masks[low];
    }
    // dp[subset] = (best expected cost of the prefix covering `subset`,
    // last item of that prefix).
    let mut dp_cost = vec![f64::INFINITY; full + 1];
    let mut dp_last = vec![usize::MAX; full + 1];
    dp_cost[0] = 0.0;
    for subset in 1usize..=full {
        let k = subset.count_ones() as usize;
        let weight = (n - k + 1) as f64 / n as f64;
        let mut rest_iter = subset;
        while rest_iter != 0 {
            let last = rest_iter.trailing_zeros() as usize;
            rest_iter &= rest_iter - 1;
            let rest = subset & !(1 << last);
            if !dp_cost[rest].is_finite() {
                continue;
            }
            let marginal = mask_cost(masks[last] & !union[rest], costs);
            let cost = dp_cost[rest] + weight * marginal;
            if cost < dp_cost[subset] {
                dp_cost[subset] = cost;
                dp_last[subset] = last;
            }
        }
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(n);
    let mut subset = full;
    while subset != 0 {
        let last = dp_last[subset];
        order.push(last);
        subset &= !(1 << last);
    }
    order.reverse();
    order
}

/// K-means clustering of queries by their binary index-dependency vectors
/// (Euclidean distance, §5.4). Returns at most `k` non-empty clusters of
/// item ids; deterministic for a given seed.
pub fn cluster_queries(
    item_indexes: &[Vec<usize>],
    num_slots: usize,
    k: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let n = item_indexes.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    // Items with identical dependency sets always share a cluster; cluster
    // the distinct vectors (the paper's `q1:A`, `q2:A` example).
    let mut groups: HashMap<u128, Vec<usize>> = HashMap::new();
    for (i, ix) in item_indexes.iter().enumerate() {
        groups.entry(mask_of(ix)).or_default().push(i);
    }
    let distinct: Vec<(u128, Vec<usize>)> = {
        let mut v: Vec<_> = groups.into_iter().collect();
        v.sort_by_key(|(m, _)| *m);
        v
    };
    if distinct.len() <= k {
        return distinct.into_iter().map(|(_, members)| members).collect();
    }

    let dims = num_slots.min(128);
    let vector = |mask: u128| -> Vec<f64> {
        (0..dims)
            .map(|b| if mask & (1 << b) != 0 { 1.0 } else { 0.0 })
            .collect()
    };
    let points: Vec<Vec<f64>> = distinct.iter().map(|(m, _)| vector(*m)).collect();
    let dist2 =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };

    let mut rng = seeded_rng(seed);
    // k-means++-style init: first centroid random, then farthest-point.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let far = points
            .iter()
            .max_by(|a, b| {
                let da: f64 = centroids
                    .iter()
                    .map(|c| dist2(a, c))
                    .fold(f64::INFINITY, f64::min);
                let db: f64 = centroids
                    .iter()
                    .map(|c| dist2(b, c))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("points non-empty");
        centroids.push(far.clone());
    }

    let mut assignment = vec![0usize; points.len()];
    for _ in 0..20 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(p, &centroids[a])
                        .partial_cmp(&dist2(p, &centroids[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("k ≥ 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (ci, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f64>> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| assignment[*i] == ci)
                .map(|(_, p)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            for d in 0..dims {
                centroid[d] = members.iter().map(|p| p[d]).sum::<f64>() / members.len() as f64;
            }
        }
    }

    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (pi, &ci) in assignment.iter().enumerate() {
        clusters[ci].extend(distinct[pi].1.iter().copied());
    }
    clusters.retain(|c| !c.is_empty());
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters
}

/// Full scheduling pipeline: cluster to at most [`MAX_DP_ITEMS`] groups,
/// order the groups by exact DP, and expand groups back to item order.
pub fn schedule(item_indexes: &[Vec<usize>], costs: &[f64], seed: u64) -> Vec<usize> {
    let n = item_indexes.len();
    if n <= MAX_DP_ITEMS {
        return find_optimal_order(item_indexes, costs);
    }
    let num_slots = costs.len();
    let clusters = cluster_queries(item_indexes, num_slots, MAX_DP_ITEMS, seed);
    // Each cluster's dependency set is the union of its members'.
    let cluster_indexes: Vec<Vec<usize>> = clusters
        .iter()
        .map(|members| {
            let mut union: Vec<usize> = members
                .iter()
                .flat_map(|&m| item_indexes[m].iter().copied())
                .collect();
            union.sort_unstable();
            union.dedup();
            union
        })
        .collect();
    let cluster_order = find_optimal_order(&cluster_indexes, costs);
    cluster_order
        .into_iter()
        .flat_map(|ci| clusters[ci].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimum for small instances.
    fn brute_force(item_indexes: &[Vec<usize>], costs: &[f64]) -> f64 {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            for p in permutations(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        permutations(item_indexes.len())
            .into_iter()
            .map(|p| expected_index_cost(&p, item_indexes, costs))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn paper_example_5_1() {
        // q1 needs an index of cost 1, q2 an index of cost 5; n = 2 so
        // weights are 1 and 1/2: order (q1, q2) costs 1 + 2.5 = 3.5, order
        // (q2, q1) costs 5 + 0.5 = 5.5 — matching the paper's Example 5.1.
        let items = vec![vec![0], vec![1]];
        let costs = vec![1.0, 5.0];
        assert!((expected_index_cost(&[0, 1], &items, &costs) - 3.5).abs() < 1e-9);
        assert!((expected_index_cost(&[1, 0], &items, &costs) - 5.5).abs() < 1e-9);
        assert_eq!(find_optimal_order(&items, &costs), vec![0, 1]);
    }

    #[test]
    fn shared_indexes_are_paid_once() {
        let items = vec![vec![0], vec![0], vec![1]];
        let costs = vec![2.0, 3.0];
        // Order (0,1,2): m = [2,0,3], weights 3/3,2/3,1/3 → 2 + 0 + 1 = 3.
        let c = expected_index_cost(&[0, 1, 2], &items, &costs);
        assert!((c - 3.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn dp_matches_brute_force() {
        let cases: Vec<(Vec<Vec<usize>>, Vec<f64>)> = vec![
            (vec![vec![0], vec![1], vec![0, 1]], vec![4.0, 1.0]),
            (
                vec![vec![0, 1], vec![2], vec![1, 2], vec![3], vec![0, 3]],
                vec![5.0, 2.0, 8.0, 1.0],
            ),
            (
                vec![vec![], vec![0], vec![1], vec![2], vec![0, 1, 2], vec![3]],
                vec![3.0, 3.0, 3.0, 10.0],
            ),
        ];
        for (items, costs) in cases {
            let order = find_optimal_order(&items, &costs);
            let dp = expected_index_cost(&order, &items, &costs);
            let bf = brute_force(&items, &costs);
            assert!((dp - bf).abs() < 1e-9, "dp {dp} vs brute force {bf}");
            // Order is a permutation.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..items.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dp_rejects_oversized_inputs() {
        let items: Vec<Vec<usize>> = (0..14).map(|i| vec![i % 4]).collect();
        let costs = vec![1.0; 4];
        let result = std::panic::catch_unwind(|| find_optimal_order(&items, &costs));
        assert!(result.is_err());
    }

    #[test]
    fn clustering_groups_identical_dependencies() {
        // Two queries needing only index A end up in one cluster (§5.4's
        // q1:A, q2:A example).
        let items = vec![vec![0], vec![0], vec![1], vec![1], vec![2]];
        let clusters = cluster_queries(&items, 3, 3, 7);
        assert!(clusters.len() <= 3);
        let find_cluster = |i: usize| clusters.iter().position(|c| c.contains(&i)).unwrap();
        assert_eq!(find_cluster(0), find_cluster(1));
        assert_eq!(find_cluster(2), find_cluster(3));
    }

    #[test]
    fn clustering_respects_k() {
        let items: Vec<Vec<usize>> = (0..40).map(|i| vec![i % 20]).collect();
        let clusters = cluster_queries(&items, 20, 13, 42);
        assert!(clusters.len() <= 13, "{}", clusters.len());
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 40, "every item assigned exactly once");
    }

    #[test]
    fn schedule_handles_large_workloads() {
        let items: Vec<Vec<usize>> = (0..100).map(|i| vec![i % 10, (i + 3) % 10]).collect();
        let costs: Vec<f64> = (0..10).map(|i| 1.0 + i as f64).collect();
        let order = schedule(&items, &costs, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_beats_arbitrary_order_on_skewed_costs() {
        // A few very expensive indexes needed by few queries: the scheduler
        // should defer them.
        let mut items: Vec<Vec<usize>> = (0..12).map(|_| vec![0]).collect();
        items.push(vec![1]); // expensive
        items.push(vec![2]); // expensive
        let costs = vec![1.0, 100.0, 100.0];
        let good = schedule(&items, &costs, 1);
        let good_cost = expected_index_cost(&good, &items, &costs);
        let bad = vec![13, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let bad_cost = expected_index_cost(&bad, &items, &costs);
        assert!(good_cost < bad_cost, "{good_cost} !< {bad_cost}");
    }

    #[test]
    fn empty_inputs() {
        assert!(find_optimal_order(&[], &[]).is_empty());
        assert_eq!(expected_index_cost(&[], &[], &[]), 0.0);
        assert!(cluster_queries(&[], 0, 5, 1).is_empty());
    }
}
