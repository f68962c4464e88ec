//! Hash-partitioned candidate generation for hybrid joins.
//!
//! §3.2's feature filter prunes the crowd join's candidate pairs on
//! the machine side: a pair survives iff every selected feature agrees
//! or either side is UNKNOWN (§2.4's wildcard). The reference
//! formulation scans the full |L|×|R| cross product, touching every
//! pair's whole feature row; the bench crate keeps it as the oracle
//! and wall-clock baseline (`qurk_bench::wallclock`).
//!
//! [`candidate_pairs`] instead partitions both tables by one selected
//! feature's value (DPG-style cache partitioning: each partition is a
//! small dense index list that stays cache-resident while it is
//! swept). Rows with a known value land in the partition for that
//! value; UNKNOWN rows go to a wildcard partition that pairs with
//! everything. Only value-matching partitions are swept, so the
//! remaining-feature verification runs on ~|L|×|R|/k pairs instead of
//! all of them. The partition feature is chosen to minimize wildcard
//! spill — wildcards are the rows that defeat partition pruning.
//!
//! Both produce the same pair set; the partitioned path
//! emits them partition-by-partition (deterministic, but a different
//! order), which is why callers treat the result as a set.
// lint:hot-path

/// Candidate pairs via partitioning. `left[i][f]` / `right[j][f]` are
/// the extracted feature values (`None` = UNKNOWN). `selected` holds
/// the feature indices that survived the κ/selectivity tests.
pub fn candidate_pairs(
    selected: &[usize],
    left: &[Vec<Option<usize>>],
    right: &[Vec<Option<usize>>],
) -> Vec<(usize, usize)> {
    if selected.is_empty() {
        // No features selected: every pair is a candidate.
        let mut out = Vec::with_capacity(left.len() * right.len());
        for i in 0..left.len() {
            for j in 0..right.len() {
                out.push((i, j));
            }
        }
        return out;
    }

    // Pick the partition feature with the fewest UNKNOWNs: every
    // wildcard row must be paired against the whole other side, so the
    // feature with the least spill prunes the most.
    let wild_count = |fi: usize| {
        left.iter().filter(|row| row[fi].is_none()).count()
            + right.iter().filter(|row| row[fi].is_none()).count()
    };
    let mut pf = selected[0];
    let mut best = wild_count(pf);
    for &fi in &selected[1..] {
        let w = wild_count(fi);
        if w < best {
            pf = fi;
            best = w;
        }
    }
    let rest: Vec<usize> = selected.iter().copied().filter(|&fi| fi != pf).collect();

    // Remaining-feature agreement check (the partition feature is
    // already satisfied by construction).
    let pass_rest = |i: usize, j: usize| {
        rest.iter().all(|&fi| match (left[i][fi], right[j][fi]) {
            (Some(a), Some(b)) => a == b,
            _ => true, // UNKNOWN matches anything
        })
    };

    // Dense partitions: feature values are small option indices, so a
    // Vec of index lists beats a hash table.
    let domain = left
        .iter()
        .chain(right.iter())
        .filter_map(|row| row[pf])
        .max()
        .map_or(0, |v| v + 1);
    let build = |rows: &[Vec<Option<usize>>]| {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); domain];
        let mut wild: Vec<u32> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            match row[pf] {
                Some(v) => parts[v].push(i as u32),
                None => wild.push(i as u32),
            }
        }
        (parts, wild)
    };
    let (lparts, lwild) = build(left);
    let (rparts, rwild) = build(right);

    let mut out = Vec::new();
    // Value partitions: sweep matching partitions plus the right-side
    // wildcard spill.
    for (lp, rp) in lparts.iter().zip(&rparts) {
        for &i in lp {
            let i = i as usize;
            for &j in rp {
                if pass_rest(i, j as usize) {
                    out.push((i, j as usize));
                }
            }
            for &j in &rwild {
                if pass_rest(i, j as usize) {
                    out.push((i, j as usize));
                }
            }
        }
    }
    // Left wildcards pair with every right row (including right
    // wildcards) — disjoint from the loops above since each left row
    // is in exactly one partition.
    for &i in &lwild {
        let i = i as usize;
        for j in 0..right.len() {
            if pass_rest(i, j) {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Deterministic pseudo-random extraction table.
    fn table(n: usize, features: &[usize], wild_pct: u64, seed: u64) -> Vec<Vec<Option<usize>>> {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        (0..n)
            .map(|_| {
                features
                    .iter()
                    .map(|&k| {
                        if next() % 100 < wild_pct {
                            None
                        } else {
                            Some((next() % k as u64) as usize)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn as_set(pairs: Vec<(usize, usize)>) -> HashSet<(usize, usize)> {
        let n = pairs.len();
        let set: HashSet<_> = pairs.into_iter().collect();
        assert_eq!(set.len(), n, "duplicate pairs emitted");
        set
    }

    #[test]
    fn wildcards_match_everything() {
        let left = vec![vec![None], vec![Some(1)]];
        let right = vec![vec![Some(0)], vec![Some(1)], vec![None]];
        let got = as_set(candidate_pairs(&[0], &left, &right));
        // Row 0 (UNKNOWN) matches all 3; row 1 matches value 1 and the
        // right-side UNKNOWN.
        let want: HashSet<_> = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)].into();
        assert_eq!(got, want);
    }

    #[test]
    fn disagreeing_known_values_are_pruned() {
        let left = vec![vec![Some(0)]];
        let right = vec![vec![Some(1)]];
        assert!(candidate_pairs(&[0], &left, &right).is_empty());
    }

    #[test]
    fn empty_selection_is_cross_product() {
        let left = table(4, &[2], 0, 1);
        let right = table(3, &[2], 0, 2);
        assert_eq!(candidate_pairs(&[], &left, &right).len(), 12);
    }

    #[test]
    fn empty_tables() {
        assert!(candidate_pairs(&[0], &[], &[vec![Some(0)]]).is_empty());
        assert!(candidate_pairs(&[0], &[vec![Some(0)]], &[]).is_empty());
    }

    #[test]
    fn all_unknown_partition_feature() {
        // Every row UNKNOWN on the partition feature: everything goes
        // through the wildcard path and the second feature decides.
        let left = vec![vec![None, Some(0)], vec![None, Some(1)]];
        let right = vec![vec![None, Some(0)], vec![None, Some(2)]];
        let got = as_set(candidate_pairs(&[0, 1], &left, &right));
        assert_eq!(got, [(0, 0)].into());
    }
}
