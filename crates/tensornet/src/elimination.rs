//! Elimination orderings and tree decompositions of the line graph.
//!
//! Following Markov & Shi (and the paper's §IV-C), a good contraction
//! order for a tensor network is derived from a tree decomposition of its
//! *line graph*: the graph whose vertices are the network's indices, with
//! an edge between two indices whenever they co-occur in a tensor. A
//! vertex-elimination ordering of that graph yields both a tree
//! decomposition (bags = eliminated vertex + its current neighbourhood)
//! and an index-elimination contraction order whose cost is exponential
//! only in the decomposition width.
//!
//! The graph lives on dense vertex ids: vertex `k` is the `k`-th smallest
//! index id, so ascending vertex order is ascending [`IndexId`] order and
//! tie-breaks on either agree. Each vertex keeps a vector of neighbours,
//! and membership tests go through per-vertex stamp arrays, so
//! elimination takes O(V + E) memory, E counting the fill edges.

use crate::index::IndexId;
use std::collections::BTreeSet;

/// An undirected graph over tensor indices (the line graph of a network).
#[derive(Clone, Debug, Default)]
pub struct LineGraph {
    /// The index id of each vertex, ascending.
    ids: Vec<IndexId>,
    /// The neighbours of each vertex, ascending, without the vertex
    /// itself.
    adj: Vec<Vec<u32>>,
}

impl LineGraph {
    /// Builds the line graph from one clique per tensor (the tensor's
    /// index set).
    pub fn from_cliques<I, C>(cliques: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: AsRef<[IndexId]>,
    {
        let cliques: Vec<C> = cliques.into_iter().collect();
        let mut ids: Vec<IndexId> = cliques
            .iter()
            .flat_map(|c| c.as_ref().iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let dense: Vec<Vec<u32>> = cliques
            .iter()
            .map(|c| c.as_ref().iter().map(|i| dense_id(&ids, *i)).collect())
            .collect();
        Self::from_dense_cliques(ids, dense.iter().map(Vec::as_slice))
    }

    /// Builds the line graph from cliques over dense vertex ids, where
    /// vertex `k` stands for `ids[k]` (`ids` ascending).
    pub(crate) fn from_dense_cliques<'a>(
        ids: Vec<IndexId>,
        cliques: impl Iterator<Item = &'a [u32]>,
    ) -> Self {
        let mut adj = vec![Vec::new(); ids.len()];
        for clique in cliques {
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    if a != b {
                        adj[a as usize].push(b);
                        adj[b as usize].push(a);
                    }
                }
            }
        }
        for neighbours in &mut adj {
            neighbours.sort_unstable();
            neighbours.dedup();
        }
        LineGraph { ids, adj }
    }

    /// The vertices in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.ids.iter().copied()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The neighbourhood of `v` in ascending id order (empty if absent).
    pub fn neighbors(&self, v: IndexId) -> impl Iterator<Item = IndexId> + '_ {
        let neighbours = match self.vertex(v) {
            Some(k) => self.adj[k as usize].as_slice(),
            None => &[],
        };
        neighbours.iter().map(|&w| self.ids[w as usize])
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: IndexId, b: IndexId) -> bool {
        match (self.vertex(a), self.vertex(b)) {
            (Some(a), Some(b)) => self.adj[a as usize].binary_search(&b).is_ok(),
            _ => false,
        }
    }

    /// The dense vertex of index `v`, if present.
    fn vertex(&self, v: IndexId) -> Option<u32> {
        self.ids.binary_search(&v).ok().map(|k| k as u32)
    }
}

/// The position of `id` in the ascending, duplicate-free `ids`.
///
/// # Panics
///
/// Panics if `id` is absent.
pub(crate) fn dense_id(ids: &[IndexId], id: IndexId) -> u32 {
    ids.binary_search(&id).expect("index id was collected") as u32
}

/// Which greedy vertex-elimination heuristic to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heuristic {
    /// Eliminate the vertex of minimum current degree.
    MinDegree,
    /// Eliminate the vertex introducing the fewest fill-in edges.
    MinFill,
}

/// A graph under vertex elimination, on dense vertex ids.
struct Eliminator {
    /// The live neighbours of each vertex (unordered once fill starts).
    adj: Vec<Vec<u32>>,
    /// Per vertex, the number of edges among its neighbours (the
    /// triangles through it), kept up to date when min-fill needs it:
    /// the fill-in of `v` is `C(deg v, 2)` minus this.
    triangles: Option<Vec<usize>>,
    /// `mark[w] == stamp` flags `w` in the set last stamped.
    mark: Vec<u64>,
    stamp: u64,
    /// `listed[w] == round` flags `w` as already reported by the
    /// elimination in progress, the `round`-th.
    listed: Vec<u64>,
    round: u64,
}

impl Eliminator {
    fn new(graph: &LineGraph, count_triangles: bool) -> Self {
        let mut g = Eliminator {
            adj: graph.adj.clone(),
            triangles: None,
            mark: vec![0; graph.len()],
            stamp: 0,
            listed: vec![0; graph.len()],
            round: 0,
        };
        if count_triangles {
            let counts = (0..graph.len() as u32)
                .map(|v| {
                    let stamp = g.mark_neighbors(v);
                    // Each edge among the neighbours is seen from both ends.
                    let seen: usize = g.adj[v as usize]
                        .iter()
                        .map(|&a| {
                            g.adj[a as usize]
                                .iter()
                                .filter(|&&w| g.mark[w as usize] == stamp)
                                .count()
                        })
                        .sum();
                    seen / 2
                })
                .collect();
            g.triangles = Some(counts);
        }
        g
    }

    /// Stamps the neighbourhood of `v` afresh; returns the stamp.
    fn mark_neighbors(&mut self, v: u32) -> u64 {
        self.stamp += 1;
        for &w in &self.adj[v as usize] {
            self.mark[w as usize] = self.stamp;
        }
        self.stamp
    }

    /// The current score of `v`: its degree, or the number of fill
    /// edges eliminating it would add.
    fn score(&self, v: u32, heuristic: Heuristic) -> usize {
        let degree = self.adj[v as usize].len();
        match heuristic {
            Heuristic::MinDegree => degree,
            Heuristic::MinFill => {
                let triangles = self.triangles.as_ref().expect("min-fill counts triangles");
                degree * degree.saturating_sub(1) / 2 - triangles[v as usize]
            }
        }
    }

    /// Eliminates `v`: joins its neighbours into a clique, then removes
    /// it. Appends every other vertex whose score may have changed to
    /// `touched`, once each: when triangles are counted, the common
    /// neighbours of each fill edge, then the neighbours. Returns the
    /// neighbours.
    fn eliminate(&mut self, v: u32, touched: &mut Vec<u32>) -> Vec<u32> {
        self.round += 1;
        let round = self.round;
        self.listed[v as usize] = round;
        let neighbours = std::mem::take(&mut self.adj[v as usize]);
        for (i, &a) in neighbours.iter().enumerate() {
            let stamp = self.mark_neighbors(a);
            for &b in &neighbours[i + 1..] {
                if self.mark[b as usize] == stamp {
                    continue;
                }
                if let Some(triangles) = &mut self.triangles {
                    // The new edge (a, b) closes a triangle with every
                    // common neighbour `w` (`v` among them until it goes).
                    let mut common = 0;
                    for &w in &self.adj[b as usize] {
                        if self.mark[w as usize] == stamp {
                            triangles[w as usize] += 1;
                            common += 1;
                            if self.listed[w as usize] != round {
                                self.listed[w as usize] = round;
                                touched.push(w);
                            }
                        }
                    }
                    triangles[a as usize] += common;
                    triangles[b as usize] += common;
                }
                self.adj[a as usize].push(b);
                self.adj[b as usize].push(a);
                self.mark[b as usize] = stamp;
            }
        }
        // The neighbours now form a clique, so each one loses `v` and the
        // `deg v - 1` edges from `v` to the others.
        let lost = neighbours.len().saturating_sub(1);
        for &n in &neighbours {
            let list = &mut self.adj[n as usize];
            let at = list
                .iter()
                .position(|&w| w == v)
                .expect("adjacency is symmetric");
            list.swap_remove(at);
            if let Some(triangles) = &mut self.triangles {
                triangles[n as usize] -= lost;
            }
            if self.listed[n as usize] != round {
                self.listed[n as usize] = round;
                touched.push(n);
            }
        }
        neighbours
    }
}

/// Computes a greedy elimination ordering of `graph`: repeatedly
/// eliminates the live vertex of least `(score, id)`, so ties break on
/// ascending index id and the result is deterministic.
///
/// Scores live in a `(score, vertex)` queue and are maintained
/// *incrementally*: eliminating `v` changes the degree only of `N(v)`,
/// and the fill-in only of `N(v)` and of the common neighbours of each
/// fill edge. Fill-in comes from per-vertex triangle counts updated as
/// fill edges are added, so an elimination costs the degree sum of
/// `N(v)`, plus one endpoint's degree per fill edge, plus O(log V) per
/// changed score — which keeps min-fill cheap on the line graphs of the
/// larger Table I circuits, with thousands of vertices.
pub fn elimination_order(graph: &LineGraph, heuristic: Heuristic) -> Vec<IndexId> {
    dense_elimination_order(graph, heuristic)
        .into_iter()
        .map(|v| graph.ids[v as usize])
        .collect()
}

/// [`elimination_order`] on dense vertex ids.
pub(crate) fn dense_elimination_order(graph: &LineGraph, heuristic: Heuristic) -> Vec<u32> {
    let n = graph.len() as u32;
    let mut g = Eliminator::new(graph, heuristic == Heuristic::MinFill);
    let mut score: Vec<usize> = (0..n).map(|v| g.score(v, heuristic)).collect();
    let mut queue: BTreeSet<(usize, u32)> = (0..n).map(|v| (score[v as usize], v)).collect();
    let mut order = Vec::with_capacity(graph.len());
    let mut touched = Vec::new();
    while let Some((_, v)) = queue.pop_first() {
        touched.clear();
        g.eliminate(v, &mut touched);
        for &u in &touched {
            let new = g.score(u, heuristic);
            let old = std::mem::replace(&mut score[u as usize], new);
            if new != old {
                queue.remove(&(old, u));
                queue.insert((new, u));
            }
        }
        order.push(v);
    }
    order
}

/// A tree decomposition induced by a vertex elimination ordering.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    /// The elimination ordering that produced this decomposition.
    pub order: Vec<IndexId>,
    /// `bags[i]` = eliminated vertex `order[i]` plus its neighbourhood at
    /// elimination time, ascending.
    pub bags: Vec<Vec<IndexId>>,
    /// Parent bag index of each bag (`None` for roots).
    pub parent: Vec<Option<usize>>,
}

impl TreeDecomposition {
    /// The decomposition `order` induces on `graph`: replays the
    /// elimination to collect each bag, and parents bag `i` on the bag of
    /// the earliest-eliminated vertex among `bags[i] \ {order[i]}`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the graph's vertices.
    pub fn from_order(graph: &LineGraph, order: Vec<IndexId>) -> Self {
        assert_eq!(order.len(), graph.len(), "order must cover the graph");
        let dense: Vec<u32> = order.iter().map(|&v| dense_id(&graph.ids, v)).collect();
        let mut position = vec![usize::MAX; graph.len()];
        for (i, &v) in dense.iter().enumerate() {
            assert_eq!(
                position[v as usize],
                usize::MAX,
                "{} ordered twice",
                order[i]
            );
            position[v as usize] = i;
        }
        let mut g = Eliminator::new(graph, false);
        let mut touched = Vec::new();
        let mut bags = Vec::with_capacity(dense.len());
        let mut parent = Vec::with_capacity(dense.len());
        for &v in &dense {
            touched.clear();
            let mut bag = g.eliminate(v, &mut touched);
            parent.push(bag.iter().map(|&w| position[w as usize]).min());
            bag.push(v);
            bag.sort_unstable();
            bags.push(bag.into_iter().map(|w| graph.ids[w as usize]).collect());
        }
        TreeDecomposition {
            order,
            bags,
            parent,
        }
    }

    /// The decomposition width (largest bag size minus one).
    pub fn width(&self) -> usize {
        self.bags.iter().map(Vec::len).max().unwrap_or(1) - 1
    }

    /// Validates the decomposition against the original graph:
    /// every edge is covered by some bag, and for every vertex the bags
    /// containing it form a connected subtree (running intersection).
    pub fn is_valid_for(&self, graph: &LineGraph) -> bool {
        let holds = |bag: &Vec<IndexId>, v: &IndexId| bag.binary_search(v).is_ok();
        // Edge coverage.
        for v in graph.vertices() {
            for w in graph.neighbors(v) {
                if v < w && !self.bags.iter().any(|bag| holds(bag, &v) && holds(bag, &w)) {
                    return false;
                }
            }
        }
        // Vertex coverage + running intersection: the bags holding a
        // vertex form a subtree exactly when all but one of them have
        // their parent among them too.
        graph.vertices().all(|v| {
            let holders: Vec<usize> = (0..self.bags.len())
                .filter(|&i| holds(&self.bags[i], &v))
                .collect();
            let rooted = holders
                .iter()
                .filter(|&&i| self.parent[i].is_none_or(|p| !holds(&self.bags[p], &v)))
                .count();
            rooted == 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<IndexId> {
        v.iter().map(|&i| IndexId(i)).collect()
    }

    fn eliminate(graph: &LineGraph, heuristic: Heuristic) -> TreeDecomposition {
        TreeDecomposition::from_order(graph, elimination_order(graph, heuristic))
    }

    /// A 4-cycle: treewidth 2.
    fn cycle4() -> LineGraph {
        LineGraph::from_cliques([ids(&[0, 1]), ids(&[1, 2]), ids(&[2, 3]), ids(&[3, 0])])
    }

    /// A path: treewidth 1.
    fn path(n: u32) -> LineGraph {
        LineGraph::from_cliques((0..n - 1).map(|i| ids(&[i, i + 1])).collect::<Vec<_>>())
    }

    #[test]
    fn line_graph_structure() {
        let g = LineGraph::from_cliques([ids(&[0, 1, 2])]);
        assert!(g.has_edge(IndexId(0), IndexId(1)));
        assert!(g.has_edge(IndexId(1), IndexId(2)));
        assert!(g.has_edge(IndexId(0), IndexId(2)));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn sparse_ids_keep_their_order() {
        let g = LineGraph::from_cliques([ids(&[40, 7]), ids(&[7, 900])]);
        assert_eq!(
            g.vertices().collect::<Vec<_>>(),
            ids(&[7, 40, 900]),
            "vertices ascend by id"
        );
        assert_eq!(g.neighbors(IndexId(7)).collect::<Vec<_>>(), ids(&[40, 900]));
        assert!(!g.has_edge(IndexId(40), IndexId(900)));
        assert!(!g.has_edge(IndexId(40), IndexId(41)));
        assert_eq!(g.neighbors(IndexId(41)).count(), 0);
        // 40 and 900 have fill 0 and 7 has fill 1; once 40 is gone,
        // 7 and 900 tie at 0 and the smaller id goes first.
        assert_eq!(
            elimination_order(&g, Heuristic::MinFill),
            ids(&[40, 7, 900])
        );
    }

    #[test]
    fn path_has_width_one() {
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let g = path(8);
            let td = eliminate(&g, h);
            assert_eq!(td.width(), 1, "{h:?}");
            assert!(td.is_valid_for(&g), "{h:?}");
            assert_eq!(td.order.len(), 8);
        }
    }

    #[test]
    fn cycle_has_width_two() {
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let g = cycle4();
            let td = eliminate(&g, h);
            assert_eq!(td.width(), 2, "{h:?}");
            assert!(td.is_valid_for(&g), "{h:?}");
        }
    }

    #[test]
    fn clique_has_width_n_minus_one() {
        let g = LineGraph::from_cliques([ids(&[0, 1, 2, 3, 4])]);
        let td = eliminate(&g, Heuristic::MinFill);
        assert_eq!(td.width(), 4);
        assert!(td.is_valid_for(&g));
    }

    #[test]
    fn disconnected_graph_is_handled() {
        let g = LineGraph::from_cliques([ids(&[0, 1]), ids(&[5, 6])]);
        let td = eliminate(&g, Heuristic::MinDegree);
        assert_eq!(td.order.len(), 4);
        assert!(td.is_valid_for(&g));
        // Two components → at least two roots.
        assert!(td.parent.iter().filter(|p| p.is_none()).count() >= 2);
    }

    #[test]
    fn min_fill_beats_min_degree_on_known_bad_case() {
        // A graph where min-degree can do worse: two hub vertices sharing
        // leaves. Both should still produce *valid* decompositions.
        let cliques: Vec<Vec<IndexId>> = (0..6)
            .map(|i| ids(&[i, 6]))
            .chain((0..6).map(|i| ids(&[i, 7])))
            .collect();
        let g = LineGraph::from_cliques(cliques);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let td = eliminate(&g, h);
            assert!(td.is_valid_for(&g), "{h:?}");
            assert!(td.width() <= 3, "{h:?} width {}", td.width());
        }
    }

    #[test]
    fn invalid_decompositions_are_rejected() {
        let g = cycle4();
        let mut td = eliminate(&g, Heuristic::MinFill);
        // Cutting the tree apart breaks running intersection.
        td.parent.iter_mut().for_each(|p| *p = None);
        assert!(!td.is_valid_for(&g));
        // Dropping a bag's vertex uncovers its edges.
        let mut td = eliminate(&g, Heuristic::MinFill);
        td.bags[0].remove(0);
        assert!(!td.is_valid_for(&g));
    }

    /// The textbook greedy elimination: each step rescores every live
    /// vertex from scratch on set adjacency.
    fn reference_order(graph: &LineGraph, heuristic: Heuristic) -> Vec<IndexId> {
        use std::collections::{BTreeMap, BTreeSet};
        let mut adj: BTreeMap<IndexId, BTreeSet<IndexId>> = graph
            .vertices()
            .map(|v| (v, graph.neighbors(v).collect()))
            .collect();
        let mut order = Vec::new();
        while let Some(v) = adj.keys().copied().min_by_key(|v| {
            let n = &adj[v];
            let score = match heuristic {
                Heuristic::MinDegree => n.len(),
                Heuristic::MinFill => n
                    .iter()
                    .map(|a| n.range(a..).filter(|b| !adj[a].contains(b)).count() - 1)
                    .sum(),
            };
            (score, *v)
        }) {
            let n = adj.remove(&v).expect("live");
            for a in &n {
                let row = adj.get_mut(a).expect("live");
                row.remove(&v);
                row.extend(n.iter().filter(|b| *b != a));
            }
            order.push(v);
        }
        order
    }

    #[test]
    fn orders_match_the_from_scratch_reference() {
        let mut state = 7u64;
        let mut next = |bound: u64| crate::splitmix(&mut state, bound);
        for _ in 0..40 {
            // Sparse ids, cliques of 1–4 indices (repeats collapse).
            let vertices = 2 + next(40);
            let cliques: Vec<Vec<IndexId>> = (0..1 + next(3 * vertices))
                .map(|_| {
                    let mut clique: Vec<IndexId> = (0..1 + next(4))
                        .map(|_| IndexId(3 * next(vertices) as u32))
                        .collect();
                    clique.sort_unstable();
                    clique.dedup();
                    clique
                })
                .collect();
            let g = LineGraph::from_cliques(&cliques);
            for h in [Heuristic::MinDegree, Heuristic::MinFill] {
                let order = elimination_order(&g, h);
                assert_eq!(order, reference_order(&g, h), "{h:?} on {cliques:?}");
                assert!(TreeDecomposition::from_order(&g, order).is_valid_for(&g));
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = LineGraph::default();
        let td = eliminate(&g, Heuristic::MinDegree);
        assert!(td.order.is_empty());
        assert!(td.is_valid_for(&g));
    }

    #[test]
    fn determinism() {
        let g = cycle4();
        let a = eliminate(&g, Heuristic::MinFill);
        let b = eliminate(&g, Heuristic::MinFill);
        assert_eq!(a.order, b.order);
    }
}
