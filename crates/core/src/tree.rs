//! The binary interval tree `T` over the host array (§3.1).
//!
//! "We create a binary tree, T, to represent the host array H. The root of
//! T represents the entire array. … a node at depth k in the tree
//! corresponds to a subarray of H which contains n/2^k processors."
//!
//! General (non-power-of-two) array sizes are handled by ceiling-halving;
//! leaves are single processors.

use overlap_net::Delay;

/// One node of the interval tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// First host position of the interval (inclusive).
    pub lo: u32,
    /// One past the last host position.
    pub hi: u32,
    /// Left child node id, if the interval has > 1 position.
    pub left: Option<u32>,
    /// Right child node id.
    pub right: Option<u32>,
    /// Parent node id (`u32::MAX` for the root).
    pub parent: u32,
    /// Total delay of the links strictly inside the interval.
    pub delay: Delay,
}

impl TreeNode {
    /// Interval width in positions.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True for degenerate empty intervals (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// True when the node is a single host position.
    pub fn is_leaf(&self) -> bool {
        self.len() == 1
    }
}

/// The interval tree over an `n`-position host array with link delays
/// `delays[i]` between positions `i` and `i+1`.
#[derive(Debug, Clone)]
pub struct IntervalTree {
    /// Number of host positions.
    pub n: u32,
    /// Nodes in construction order; node 0 is the root.
    pub nodes: Vec<TreeNode>,
    /// Height: maximum node depth.
    pub height: u32,
    /// Node id of each leaf position.
    pub leaf_of: Vec<u32>,
}

impl IntervalTree {
    /// Build the tree. `delays.len()` must be `n − 1`.
    pub fn build(n: u32, delays: &[Delay]) -> Self {
        assert!(n >= 1, "empty host array");
        assert_eq!(delays.len() as u32, n - 1, "need n-1 link delays");
        // Prefix sums for O(1) interval delay queries.
        let mut pre = vec![0u64; n as usize];
        for i in 1..n as usize {
            pre[i] = pre[i - 1] + delays[i - 1];
        }
        let interval_delay = |lo: u32, hi: u32| -> Delay {
            // links inside [lo, hi): indices lo..hi-1 → pre[hi-1] - pre[lo]
            if hi - lo <= 1 {
                0
            } else {
                pre[hi as usize - 1] - pre[lo as usize]
            }
        };

        let mut nodes: Vec<TreeNode> = Vec::with_capacity(2 * n as usize);
        let mut leaf_of = vec![u32::MAX; n as usize];
        // Iterative construction with an explicit stack.
        struct Item {
            lo: u32,
            hi: u32,
            depth: u32,
            parent: u32,
        }
        let mut stack = vec![Item {
            lo: 0,
            hi: n,
            depth: 0,
            parent: u32::MAX,
        }];
        let mut height = 0;
        while let Some(it) = stack.pop() {
            let id = nodes.len() as u32;
            height = height.max(it.depth);
            nodes.push(TreeNode {
                depth: it.depth,
                lo: it.lo,
                hi: it.hi,
                left: None,
                right: None,
                parent: it.parent,
                delay: interval_delay(it.lo, it.hi),
            });
            if it.parent != u32::MAX {
                let p = &mut nodes[it.parent as usize];
                if p.left.is_none() {
                    p.left = Some(id);
                } else {
                    p.right = Some(id);
                }
            }
            if it.hi - it.lo == 1 {
                leaf_of[it.lo as usize] = id;
            } else {
                let mid = it.lo + (it.hi - it.lo).div_ceil(2);
                // Push right first so left is produced first (stable child
                // order: left = lower half).
                stack.push(Item {
                    lo: mid,
                    hi: it.hi,
                    depth: it.depth + 1,
                    parent: id,
                });
                stack.push(Item {
                    lo: it.lo,
                    hi: mid,
                    depth: it.depth + 1,
                    parent: id,
                });
            }
        }
        Self {
            n,
            nodes,
            height,
            leaf_of,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (the tree has at least a root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all nodes in bottom-up (deepest-first) order.
    pub fn bottom_up(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.nodes.len() as u32).collect();
        ids.sort_by_key(|&i| std::cmp::Reverse(self.nodes[i as usize].depth));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_tree_shape() {
        let delays = vec![1, 2, 3, 4, 5, 6, 7];
        let t = IntervalTree::build(8, &delays);
        assert_eq!(t.nodes[0].len(), 8);
        assert_eq!(t.height, 3);
        // complete binary tree over 8 leaves: 15 nodes
        assert_eq!(t.len(), 15);
        // root delay = all links
        assert_eq!(t.nodes[0].delay, 28);
    }

    #[test]
    fn interval_delays_exclude_boundary_links() {
        let delays = vec![10, 20, 30];
        let t = IntervalTree::build(4, &delays);
        let root = &t.nodes[0];
        assert_eq!(root.delay, 60);
        let left = &t.nodes[root.left.unwrap() as usize];
        let right = &t.nodes[root.right.unwrap() as usize];
        assert_eq!((left.lo, left.hi), (0, 2));
        assert_eq!((right.lo, right.hi), (2, 4));
        assert_eq!(left.delay, 10); // link 0-1 only; link 1-2 crosses
        assert_eq!(right.delay, 30); // link 2-3
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1u32, 2, 3, 5, 6, 7, 9, 13, 100] {
            let delays = vec![1; n as usize - 1];
            let t = IntervalTree::build(n, &delays);
            // every position has a leaf
            assert!(t.leaf_of.iter().all(|&l| l != u32::MAX), "n={n}");
            // leaves are leaves
            for (pos, &l) in t.leaf_of.iter().enumerate() {
                let node = &t.nodes[l as usize];
                assert!(node.is_leaf());
                assert_eq!(node.lo as usize, pos);
            }
            // children partition parents
            for node in &t.nodes {
                if let (Some(l), Some(r)) = (node.left, node.right) {
                    let l = &t.nodes[l as usize];
                    let r = &t.nodes[r as usize];
                    assert_eq!(l.lo, node.lo);
                    assert_eq!(l.hi, r.lo);
                    assert_eq!(r.hi, node.hi);
                }
            }
        }
    }

    #[test]
    fn bottom_up_visits_children_before_parents() {
        let t = IntervalTree::build(13, &[2; 12]);
        let order = t.bottom_up();
        let mut seen = vec![false; t.len()];
        for &id in &order {
            let nd = &t.nodes[id as usize];
            if let Some(l) = nd.left {
                assert!(seen[l as usize]);
            }
            if let Some(r) = nd.right {
                assert!(seen[r as usize]);
            }
            seen[id as usize] = true;
        }
    }

    #[test]
    fn singleton_tree() {
        let t = IntervalTree::build(1, &[]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height, 0);
        assert!(t.nodes[0].is_leaf());
        assert!(!t.nodes[0].is_empty());
        assert!(!t.is_empty());
    }
}
