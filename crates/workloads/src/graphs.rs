//! Synthetic graph generators standing in for the paper's SNAP inputs
//! (§3): a road-network-like lattice (roadNet-CA: huge diameter, low
//! degree) and a power-law graph (com-Youtube: small diameter, skewed
//! degree).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A graph in CSR form (undirected: each edge appears in both
/// adjacency lists).
#[derive(Clone, Debug)]
pub struct Csr {
    /// Per-node start offsets into `neighbors`; `n + 1` entries.
    pub offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (twice the undirected count).
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbors of `u`.
    pub fn neighbors_of(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The CSR of `n` nodes and the undirected edges in `ends`, which
    /// holds each edge's two endpoints in turn (`[a0, b0, a1, b1, ..]`).
    /// Edge `(a, b)` adds `b` to `a`'s list, then `a` to `b`'s. A stable
    /// counting sort on the node a neighbor is added to keeps every list
    /// in the order its neighbors were added.
    fn from_edge_ends(n: usize, ends: &[u32]) -> Csr {
        // Count each node's degree at `offsets[u + 1]`, then prefix-sum,
        // so `offsets[u]` is where `u`'s list starts.
        let mut offsets = vec![0u64; n + 1];
        for &u in ends {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // Fill front to back, with `offsets[u]` as `u`'s cursor.
        let mut neighbors = vec![0u32; ends.len()];
        for edge in ends.chunks_exact(2) {
            let (a, b) = (edge[0] as usize, edge[1] as usize);
            neighbors[offsets[a] as usize] = edge[1];
            offsets[a] += 1;
            neighbors[offsets[b] as usize] = edge[0];
            offsets[b] += 1;
        }
        // Each cursor stopped at its list's end, the next list's start.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Csr { offsets, neighbors }
    }

    /// BFS levels: `levels[k]` holds the nodes discovered at depth `k`
    /// in visit order, matching what the top-down kernel produces.
    pub fn bfs_levels(&self, src: usize) -> Vec<Vec<u32>> {
        self.bfs_levels_to(src, usize::MAX)
    }

    /// The levels of [`Csr::bfs_levels`] up to and including level
    /// `last` (all of them, if the search ends sooner): the search
    /// stops once it has found level `last`.
    pub(crate) fn bfs_levels_to(&self, src: usize, last: usize) -> Vec<Vec<u32>> {
        let mut visited = vec![false; self.num_nodes()];
        visited[src] = true;
        let mut levels = vec![vec![src as u32]];
        while levels.len() <= last {
            let mut next = Vec::new();
            for &u in &levels[levels.len() - 1] {
                for &v in self.neighbors_of(u as usize) {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }
        levels
    }

    /// Reference BFS (parent array), for validating simulated runs.
    pub fn bfs_parents(&self, src: usize) -> Vec<i64> {
        let n = self.num_nodes();
        let mut parent = vec![-1i64; n];
        parent[src] = src as i64;
        let mut frontier = vec![src as u32];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors_of(u as usize) {
                    if parent[v as usize] < 0 {
                        parent[v as usize] = u as i64;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        parent
    }
}

/// A road-network-like graph: a `w x h` lattice with ~25% of the
/// lattice edges randomly removed (real road networks are irregular:
/// dead ends, missing links, variable intersection degree) plus a
/// sprinkling of random shortcut edges. This yields the huge diameter,
/// low degree, and irregular trip counts characteristic of roadNet-CA
/// — the irregularity is what makes the neighbor-loop and visited
/// branches hard for the baseline predictor.
pub fn road_graph(w: usize, h: usize, shortcuts: usize, seed: u64) -> Csr {
    let n = w * h;
    // Both endpoints of every edge, in the order the edges are made: at
    // most two lattice edges per node, plus the shortcuts.
    let mut ends: Vec<u32> = Vec::with_capacity(2 * (2 * n + shortcuts));
    let mut add = |a: usize, b: usize| ends.extend([a as u32, b as u32]);
    let mut rng = StdRng::seed_from_u64(seed);
    for y in 0..h {
        for x in 0..w {
            let u = y * w + x;
            if x + 1 < w && rng.gen_range(0..100) < 75 {
                add(u, u + 1);
            }
            if y + 1 < h && rng.gen_range(0..100) < 75 {
                add(u, u + w);
            }
        }
    }
    // Shortcuts are local (diagonal connectors, bypass roads): long
    // random edges would collapse the diameter into a small world,
    // which road networks are not.
    for _ in 0..shortcuts {
        let x = rng.gen_range(0..w) as i64;
        let y = rng.gen_range(0..h) as i64;
        let dx = rng.gen_range(-20..=20i64);
        let dy = rng.gen_range(-20..=20i64);
        let (x2, y2) = (x + dx, y + dy);
        if x2 >= 0 && x2 < w as i64 && y2 >= 0 && y2 < h as i64 {
            let a = (y * w as i64 + x) as usize;
            let b = (y2 * w as i64 + x2) as usize;
            if a != b {
                add(a, b);
            }
        }
    }
    Csr::from_edge_ends(n, &ends)
}

/// Relabels a graph's nodes with a random permutation. Real-world
/// graph files (e.g., roadNet-CA) assign IDs with no memory locality,
/// so neighbor/property accesses scatter across the whole arrays; a
/// freshly generated lattice has near-perfect locality until shuffled.
pub fn shuffle_labels(g: &Csr, seed: u64) -> Csr {
    shuffle_labels_fraction(g, seed, 1.0)
}

/// Like [`shuffle_labels`] but only a `fraction` of the nodes are
/// relabeled (swapped with random partners); the rest keep their
/// locality. This dials the workload between cache-friendly (0.0) and
/// fully scattered (1.0).
pub fn shuffle_labels_fraction(g: &Csr, seed: u64, fraction: f64) -> Csr {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let swaps = ((n as f64) * fraction.clamp(0.0, 1.0) / 2.0) as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        perm.swap(i, j);
    }
    // Node `u` becomes `perm[u]`. Write the new lists in new-label
    // order, reading each from the old node the inverse names.
    let mut inverse = vec![0u32; n];
    for (u, &nu) in perm.iter().enumerate() {
        inverse[nu as usize] = u as u32;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::with_capacity(g.num_edges());
    offsets.push(0);
    for &u in &inverse {
        neighbors.extend(g.neighbors_of(u as usize).iter().map(|&v| perm[v as usize]));
        offsets.push(neighbors.len() as u64);
    }
    Csr { offsets, neighbors }
}

/// A power-law graph via preferential attachment (Barabási–Albert with
/// `m` edges per new node): small diameter, heavy-tailed degrees, like
/// com-Youtube.
pub fn powerlaw_graph(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n > m && m > 0, "need n > m > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    // Both endpoints of every edge, in the order the edges are made.
    // Sampling uniformly from it implements preferential attachment.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            endpoints.push(a as u32);
            endpoints.push(b as u32);
        }
    }
    let mut targets = Vec::with_capacity(m);
    for u in (m + 1)..n {
        // Draw all m targets before adding any of u's edges.
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t as usize != u && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            endpoints.push(u as u32);
            endpoints.push(t);
        }
    }
    Csr::from_edge_ends(n, &endpoints)
}

/// The per-node-list builders, kept as references for the CSR builders
/// above: the same RNG calls and the same push order, one `Vec` per
/// node, then concatenated.
#[cfg(test)]
mod reference {
    use super::Csr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn from_adj(adj: Vec<Vec<u32>>) -> Csr {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for l in &adj {
            neighbors.extend_from_slice(l);
            offsets.push(neighbors.len() as u64);
        }
        Csr { offsets, neighbors }
    }

    pub fn road_graph(w: usize, h: usize, shortcuts: usize, seed: u64) -> Csr {
        let n = w * h;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let add = |adj: &mut Vec<Vec<u32>>, a: usize, b: usize| {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for y in 0..h {
            for x in 0..w {
                let u = y * w + x;
                if x + 1 < w && rng.gen_range(0..100) < 75 {
                    add(&mut adj, u, u + 1);
                }
                if y + 1 < h && rng.gen_range(0..100) < 75 {
                    add(&mut adj, u, u + w);
                }
            }
        }
        for _ in 0..shortcuts {
            let x = rng.gen_range(0..w) as i64;
            let y = rng.gen_range(0..h) as i64;
            let dx = rng.gen_range(-20..=20i64);
            let dy = rng.gen_range(-20..=20i64);
            let (x2, y2) = (x + dx, y + dy);
            if x2 >= 0 && x2 < w as i64 && y2 >= 0 && y2 < h as i64 {
                let a = (y * w as i64 + x) as usize;
                let b = (y2 * w as i64 + x2) as usize;
                if a != b {
                    add(&mut adj, a, b);
                }
            }
        }
        from_adj(adj)
    }

    pub fn shuffle_labels_fraction(g: &Csr, seed: u64, fraction: f64) -> Csr {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let swaps = ((n as f64) * fraction.clamp(0.0, 1.0) / 2.0) as usize;
        for _ in 0..swaps {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            perm.swap(i, j);
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            adj[perm[u] as usize] = g
                .neighbors_of(u)
                .iter()
                .map(|&v| perm[v as usize])
                .collect();
        }
        from_adj(adj)
    }

    pub fn powerlaw_graph(n: usize, m: usize, seed: u64) -> Csr {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
        for a in 0..=m {
            for b in (a + 1)..=m {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
                endpoints.push(a as u32);
                endpoints.push(b as u32);
            }
        }
        for u in (m + 1)..n {
            let mut targets = Vec::with_capacity(m);
            while targets.len() < m {
                let t = endpoints[rng.gen_range(0..endpoints.len())];
                if t as usize != u && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                adj[u].push(t);
                adj[t as usize].push(u as u32);
                endpoints.push(u as u32);
                endpoints.push(t);
            }
        }
        from_adj(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_same_csr(a: &Csr, b: &Csr) {
        prop_assert_eq!(&a.offsets, &b.offsets);
        prop_assert_eq!(&a.neighbors, &b.neighbors);
    }

    fn fraction() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The CSR road builder and its shuffle give exactly the
        /// reference's offsets and neighbors: every list holds the same
        /// neighbors in the same order.
        #[test]
        fn road_graph_equals_reference(
            w in 1usize..40,
            h in 1usize..40,
            shortcuts in 0usize..60,
            seed: u64,
            shuffle_seed: u64,
            fraction in fraction(),
        ) {
            let g = road_graph(w, h, shortcuts, seed);
            let r = reference::road_graph(w, h, shortcuts, seed);
            assert_same_csr(&g, &r);
            assert_same_csr(
                &shuffle_labels_fraction(&g, shuffle_seed, fraction),
                &reference::shuffle_labels_fraction(&r, shuffle_seed, fraction),
            );
        }

        /// Likewise for the power-law builder and its shuffle.
        #[test]
        fn powerlaw_graph_equals_reference(
            m in 1usize..5,
            extra in 1usize..400,
            seed: u64,
            shuffle_seed: u64,
            fraction in fraction(),
        ) {
            let n = m + extra;
            let g = powerlaw_graph(n, m, seed);
            let r = reference::powerlaw_graph(n, m, seed);
            assert_same_csr(&g, &r);
            assert_same_csr(
                &shuffle_labels_fraction(&g, shuffle_seed, fraction),
                &reference::shuffle_labels_fraction(&r, shuffle_seed, fraction),
            );
        }

        /// A search bounded at level `d` returns the first `d + 1`
        /// levels of the full search, for every `d` up to the depth and
        /// past it.
        #[test]
        fn bounded_search_is_a_prefix(
            w in 1usize..24,
            h in 1usize..24,
            seed: u64,
            src_pick: usize,
        ) {
            let g = road_graph(w, h, 4, seed);
            let src = src_pick % g.num_nodes();
            let levels = g.bfs_levels(src);
            for d in 0..levels.len() + 3 {
                let bounded = g.bfs_levels_to(src, d);
                prop_assert_eq!(&bounded[..], &levels[..levels.len().min(d + 1)], "d = {}", d);
            }
        }
    }

    #[test]
    fn road_graph_shape() {
        let g = road_graph(10, 10, 5, 1);
        assert_eq!(g.num_nodes(), 100);
        // ~75% of the 180 undirected lattice edges, doubled, + shortcuts.
        assert!(g.num_edges() >= 200);
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg < 5.0, "road graphs are sparse, got avg degree {avg}");
        // Degrees must be irregular (TAGE-hostile trip counts).
        let distinct: std::collections::HashSet<usize> =
            (0..100).map(|u| g.neighbors_of(u).len()).collect();
        assert!(
            distinct.len() >= 4,
            "expected varied degrees, got {distinct:?}"
        );
    }

    #[test]
    fn powerlaw_graph_has_heavy_tail() {
        let g = powerlaw_graph(2000, 3, 7);
        assert_eq!(g.num_nodes(), 2000);
        let mut degrees: Vec<usize> = (0..2000).map(|u| g.neighbors_of(u).len()).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[1000];
        assert!(
            max > 10 * median,
            "expected hubs: max {max}, median {median}"
        );
    }

    #[test]
    fn bfs_parents_cover_most_of_the_graph() {
        let g = road_graph(20, 20, 10, 0);
        let parents = g.bfs_parents(0);
        let visited = parents.iter().filter(|&&p| p >= 0).count();
        assert!(
            visited > 300,
            "percolated lattice stays mostly connected, got {visited}"
        );
        assert_eq!(parents[0], 0);
    }

    #[test]
    fn csr_is_symmetric() {
        let g = powerlaw_graph(500, 2, 3);
        for u in 0..g.num_nodes() {
            for &v in g.neighbors_of(u) {
                assert!(
                    g.neighbors_of(v as usize).contains(&(u as u32)),
                    "edge {u}->{v} missing its reverse"
                );
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = road_graph(15, 15, 10, 42);
        let b = road_graph(15, 15, 10, 42);
        assert_eq!(a.neighbors, b.neighbors);
        let c = powerlaw_graph(300, 3, 42);
        let d = powerlaw_graph(300, 3, 42);
        assert_eq!(c.neighbors, d.neighbors);
    }
}
