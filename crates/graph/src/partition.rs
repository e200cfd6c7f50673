//! Deterministic, seeded k-way vertex partitioning for the sharded
//! spanner pipeline.
//!
//! [`Partition::build`] cuts a [`WeightedGraph`] into `k` shards by growing
//! BFS regions from *seed-ranked roots*: every vertex is ranked by a
//! splitmix-style hash of `(seed, vertex)`, the `k` smallest ranks become
//! region roots, and the regions claim unassigned neighbors in synchronized
//! rounds (shard 0 first within each round) until a size-balance cap stops
//! them. Vertices left unreached (other components, or everything capped
//! out) are swept in ascending id order onto the currently smallest shard,
//! so the partition always covers the whole vertex set.
//!
//! The result is everything the sharded build needs:
//!
//! * per-shard **induced subgraphs** in shard-local id space, where local
//!   ids enumerate each shard's vertices in ascending *global* order — so a
//!   single-shard partition is the identity mapping and the shard-0 build
//!   is bit-identical to an unsharded build;
//! * the **cut-edge list** (edges whose endpoints land in different
//!   shards), in the input graph's edge order;
//! * a global↔local **id mapping** exposed both as per-shard lookup tables
//!   and as one [`VertexPerm`] over the concatenated shard order, so the
//!   shard mapping composes with other renumberings via
//!   [`VertexPerm::compose`].
//!
//! Everything is a pure function of `(graph, shards, seed, balance)`: no
//! RNG state, no iteration-order dependence on hashing, no thread count
//! anywhere. The same inputs produce the same partition on every run.

use crate::csr::VertexPerm;
use crate::error::GraphError;
use crate::graph::{Edge, VertexId, WeightedGraph};

/// Default size-balance cap multiplier: a shard may BFS-claim at most
/// `ceil(n/k) * DEFAULT_BALANCE` vertices.
pub const DEFAULT_BALANCE: f64 = 1.2;

/// Tuning knobs for [`Partition::build`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Requested shard count; clamped to `1..=n`.
    pub shards: usize,
    /// Seed for the root-ranking hash. Different seeds grow regions from
    /// different roots; the same seed always yields the same partition.
    pub seed: u64,
    /// Size-balance cap multiplier (`>= 1.0`); values below `1.0` are
    /// treated as `1.0`. The BFS growth of a shard stops once it holds
    /// `ceil(n/k) * balance` vertices.
    pub balance: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            shards: 1,
            seed: 0,
            balance: DEFAULT_BALANCE,
        }
    }
}

/// One shard of a [`Partition`]: the induced subgraph in local id space
/// plus the local→global vertex table.
#[derive(Debug, Clone)]
pub struct ShardPiece {
    graph: WeightedGraph,
    vertices: Vec<VertexId>,
    boundary: Vec<VertexId>,
}

impl ShardPiece {
    /// The induced subgraph over this shard's vertices, in local ids.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Local→global vertex table: `vertices()[local.index()]` is the global
    /// id. Always sorted in ascending global order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Local ids of this shard's boundary vertices (endpoints of at least
    /// one cut edge), ascending.
    pub fn boundary(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Number of vertices in this shard.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }
}

/// An edge of the input graph whose endpoints fell into different shards.
/// Endpoints are **global** vertex ids; cut edges are listed in the input
/// graph's edge order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// One endpoint (global id).
    pub u: VertexId,
    /// The other endpoint (global id).
    pub v: VertexId,
    /// Edge weight.
    pub weight: f64,
}

/// A deterministic k-way partition of a [`WeightedGraph`]. See the
/// [module docs](self) for the construction.
#[derive(Debug, Clone)]
pub struct Partition {
    assignment: Vec<u32>,
    offsets: Vec<usize>,
    perm: VertexPerm,
    shards: Vec<ShardPiece>,
    cut_edges: Vec<CutEdge>,
    seed: u64,
    balance_cap: usize,
}

/// Splitmix64 finalizer: the per-vertex ranking hash. Chosen over an RNG so
/// root selection is a pure function of `(seed, vertex)` with no state.
fn rank_hash(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Partition {
    /// Partitions `graph` into `config.shards` BFS-grown regions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `graph` has no vertices.
    pub fn build(graph: &WeightedGraph, config: &PartitionConfig) -> Result<Partition, GraphError> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let k = config.shards.clamp(1, n);
        let balance = if config.balance < 1.0 {
            1.0
        } else {
            config.balance
        };
        let cap = ((n.div_ceil(k) as f64) * balance).ceil() as usize;
        let cap = cap.max(1);

        // Seed-ranked roots: the k vertices with the smallest hash ranks,
        // ties broken by id. Sorting (rank, id) pairs keeps this a pure
        // function of (seed, n).
        let mut ranked: Vec<(u64, u32)> = (0..n as u32)
            .map(|v| (rank_hash(config.seed, v as u64), v))
            .collect();
        ranked.sort_unstable();

        const UNASSIGNED: u32 = u32::MAX;
        let mut assignment = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; k];
        let mut frontiers: Vec<Vec<u32>> = Vec::with_capacity(k);
        for (s, &(_, root)) in ranked.iter().take(k).enumerate() {
            assignment[root as usize] = s as u32;
            sizes[s] = 1;
            frontiers.push(vec![root]);
        }

        // Synchronized BFS rounds: within a round, shard 0 expands first.
        // Each shard claims unassigned neighbors of its current frontier
        // until it hits the balance cap.
        loop {
            let mut progressed = false;
            for (s, frontier) in frontiers.iter_mut().enumerate() {
                if frontier.is_empty() {
                    continue;
                }
                let mut next = Vec::new();
                for &u in frontier.iter() {
                    for &(nbr, _) in graph.neighbors(VertexId(u as usize)) {
                        if sizes[s] >= cap {
                            break;
                        }
                        let ni = nbr.index();
                        if assignment[ni] == UNASSIGNED {
                            assignment[ni] = s as u32;
                            sizes[s] += 1;
                            next.push(ni as u32);
                        }
                    }
                    if sizes[s] >= cap {
                        break;
                    }
                }
                progressed |= !next.is_empty();
                *frontier = next;
            }
            if !progressed {
                break;
            }
        }

        // Sweep unreached vertices (other components or capped-out growth)
        // onto the smallest shard, ascending id order so the fill is
        // deterministic and keeps sizes balanced.
        for slot in assignment.iter_mut() {
            if *slot == UNASSIGNED {
                let target = (0..k).min_by_key(|&s| (sizes[s], s)).unwrap_or(0);
                *slot = target as u32;
                sizes[target] += 1;
            }
        }

        // Shard vertex tables: ascending global order within each shard, so
        // local ids are order-preserving and k=1 is the identity mapping.
        let mut vertex_tables: Vec<Vec<VertexId>> =
            (0..k).map(|s| Vec::with_capacity(sizes[s])).collect();
        let mut local_of = vec![0u32; n];
        for v in 0..n {
            let s = assignment[v] as usize;
            local_of[v] = vertex_tables[s].len() as u32;
            vertex_tables[s].push(VertexId(v));
        }

        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0usize);
        for table in &vertex_tables {
            offsets.push(offsets.last().unwrap() + table.len());
        }
        let order: Vec<VertexId> = vertex_tables
            .iter()
            .flat_map(|table| table.iter().copied())
            .collect();
        let perm = VertexPerm::from_order(&order);

        // Induced subgraphs + cut edges, both in input edge order.
        let mut shard_edges: Vec<Vec<Edge>> = vec![Vec::new(); k];
        let mut cut_edges = Vec::new();
        let mut boundary_flags: Vec<Vec<bool>> =
            vertex_tables.iter().map(|t| vec![false; t.len()]).collect();
        for e in graph.edges() {
            let (ui, vi) = (e.u.index(), e.v.index());
            let (su, sv) = (assignment[ui] as usize, assignment[vi] as usize);
            if su == sv {
                shard_edges[su].push(Edge::new(
                    VertexId(local_of[ui] as usize),
                    VertexId(local_of[vi] as usize),
                    e.weight,
                ));
            } else {
                boundary_flags[su][local_of[ui] as usize] = true;
                boundary_flags[sv][local_of[vi] as usize] = true;
                cut_edges.push(CutEdge {
                    u: e.u,
                    v: e.v,
                    weight: e.weight,
                });
            }
        }

        let shards = vertex_tables
            .into_iter()
            .zip(shard_edges)
            .zip(boundary_flags)
            .map(|((vertices, edges), flags)| {
                let graph = WeightedGraph::from_valid_edges(vertices.len(), edges);
                let boundary = flags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b)
                    .map(|(i, _)| VertexId(i))
                    .collect();
                ShardPiece {
                    graph,
                    vertices,
                    boundary,
                }
            })
            .collect();

        Ok(Partition {
            assignment,
            offsets,
            perm,
            shards,
            cut_edges,
            seed: config.seed,
            balance_cap: cap,
        })
    }

    /// The partition of the 0-vertex graph: one empty shard, no cut edges.
    /// [`Partition::build`] refuses empty graphs; a sharded construction
    /// runs over this instead, so an empty input yields an empty spanner
    /// exactly like an unsharded construction does.
    pub fn empty(seed: u64) -> Partition {
        Partition {
            assignment: Vec::new(),
            offsets: vec![0, 0],
            perm: VertexPerm::from_order(&[]),
            shards: vec![ShardPiece {
                graph: WeightedGraph::new(0),
                vertices: Vec::new(),
                boundary: Vec::new(),
            }],
            cut_edges: Vec::new(),
            seed,
            balance_cap: 1,
        }
    }

    /// Number of shards actually produced (the requested count clamped to
    /// the vertex count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of vertices across all shards (= the input's count).
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The shard owning global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.assignment[v.index()] as usize
    }

    /// Per-vertex shard assignment, indexed by global id.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Translates a global id to `(shard, local id)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn to_local(&self, v: VertexId) -> (usize, VertexId) {
        let s = self.shard_of(v);
        let internal = self.perm.to_internal(v);
        (s, VertexId(internal.index() - self.offsets[s]))
    }

    /// Translates `(shard, local id)` back to the global id.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `local` is out of range.
    pub fn to_global(&self, shard: usize, local: VertexId) -> VertexId {
        self.shards[shard].vertices[local.index()]
    }

    /// All shard pieces, in shard order.
    pub fn shards(&self) -> &[ShardPiece] {
        &self.shards
    }

    /// One shard piece.
    pub fn shard(&self, s: usize) -> &ShardPiece {
        &self.shards[s]
    }

    /// Edges of the input whose endpoints fell in different shards, in
    /// input edge order.
    pub fn cut_edges(&self) -> &[CutEdge] {
        &self.cut_edges
    }

    /// The concatenated-shard-order permutation over global ids: internal
    /// id = shard offset + local id. Composes with other renumberings via
    /// [`VertexPerm::compose`].
    pub fn perm(&self) -> &VertexPerm {
        &self.perm
    }

    /// Prefix offsets of each shard inside [`Partition::perm`]'s internal
    /// order; `offsets()[s]..offsets()[s+1]` spans shard `s`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The seed the partition was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The resolved size-balance cap (vertices per shard the BFS growth
    /// would not exceed; the component sweep may exceed it when forced).
    pub fn balance_cap(&self) -> usize {
        self.balance_cap
    }

    /// `true` when the partition has a single shard (the trivial case the
    /// sharded pipeline must reproduce bit-identically).
    pub fn is_trivial(&self) -> bool {
        self.shards.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_graph, path_graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_graph() -> WeightedGraph {
        let mut rng = SmallRng::seed_from_u64(7);
        grid_graph(8, 9, 0.5, &mut rng)
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = WeightedGraph::new(0);
        assert_eq!(
            Partition::build(&g, &PartitionConfig::default()).unwrap_err(),
            GraphError::EmptyGraph
        );
        let p = Partition::empty(3);
        assert!(p.is_trivial());
        assert_eq!(p.num_vertices(), 0);
        assert!(p.shard(0).graph().num_vertices() == 0 && p.cut_edges().is_empty());
    }

    #[test]
    fn single_shard_is_identity() {
        let g = sample_graph();
        let p = Partition::build(
            &g,
            &PartitionConfig {
                shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(p.is_trivial());
        assert!(p.perm().is_identity());
        assert!(p.cut_edges().is_empty());
        let piece = p.shard(0);
        assert_eq!(piece.num_vertices(), g.num_vertices());
        // The induced subgraph must be the input, edge for edge, in order.
        assert_eq!(piece.graph().edges(), g.edges());
        assert!(piece.boundary().is_empty());
    }

    #[test]
    fn partition_covers_and_conserves_edges() {
        let g = sample_graph();
        for k in [2usize, 3, 4, 7] {
            let p = Partition::build(
                &g,
                &PartitionConfig {
                    shards: k,
                    seed: 11,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(p.num_shards(), k);
            let total: usize = p.shards().iter().map(|s| s.num_vertices()).sum();
            assert_eq!(total, g.num_vertices());
            // Every vertex round-trips through the id mapping.
            for v in 0..g.num_vertices() {
                let (s, local) = p.to_local(VertexId(v));
                assert_eq!(p.to_global(s, local), VertexId(v));
                assert_eq!(p.shard_of(VertexId(v)), s);
            }
            // Edge conservation: intra-shard + cut = input.
            let intra: usize = p.shards().iter().map(|s| s.graph().num_edges()).sum();
            assert_eq!(intra + p.cut_edges().len(), g.num_edges());
            // Cut edges really cross shards; induced edges really do not.
            for c in p.cut_edges() {
                assert_ne!(p.shard_of(c.u), p.shard_of(c.v));
            }
            for (s, piece) in p.shards().iter().enumerate() {
                for e in piece.graph().edges() {
                    assert_eq!(p.shard_of(piece.vertices()[e.u.index()]), s);
                    assert_eq!(p.shard_of(piece.vertices()[e.v.index()]), s);
                }
                // Boundary = exactly the local endpoints of cut edges.
                let mut expect: Vec<VertexId> = p
                    .cut_edges()
                    .iter()
                    .flat_map(|c| [c.u, c.v])
                    .filter(|&v| p.shard_of(v) == s)
                    .map(|v| p.to_local(v).1)
                    .collect();
                expect.sort_unstable_by_key(|v| v.index());
                expect.dedup();
                assert_eq!(piece.boundary(), expect.as_slice());
                // Local tables are ascending in global id.
                assert!(piece.vertices().windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = sample_graph();
        let cfg = PartitionConfig {
            shards: 4,
            seed: 3,
            ..Default::default()
        };
        let a = Partition::build(&g, &cfg).unwrap();
        let b = Partition::build(&g, &cfg).unwrap();
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.cut_edges(), b.cut_edges());
        // A different seed picks different roots on this graph.
        let c = Partition::build(&g, &PartitionConfig { seed: 4, ..cfg }).unwrap();
        assert_ne!(a.assignment(), c.assignment());
    }

    #[test]
    fn shard_count_clamps_to_vertex_count() {
        let g = path_graph(3, 1.0);
        let p = Partition::build(
            &g,
            &PartitionConfig {
                shards: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(p.num_shards(), 3);
        for s in p.shards() {
            assert_eq!(s.num_vertices(), 1);
        }
    }

    #[test]
    fn balance_cap_bounds_bfs_growth() {
        let g = sample_graph();
        let p = Partition::build(
            &g,
            &PartitionConfig {
                shards: 4,
                seed: 0,
                balance: 1.0,
            },
        )
        .unwrap();
        // With balance 1.0 on a connected graph no shard exceeds the cap.
        for s in p.shards() {
            assert!(s.num_vertices() <= p.balance_cap());
        }
    }

    #[test]
    fn disconnected_components_are_swept() {
        // Two disjoint paths; BFS from roots in one component cannot reach
        // the other, so the sweep must still cover everything.
        let mut g = WeightedGraph::new(8);
        for i in 1..4 {
            g.add_edge(VertexId(i - 1), VertexId(i), 1.0);
        }
        for i in 5..8 {
            g.add_edge(VertexId(i - 1), VertexId(i), 1.0);
        }
        let p = Partition::build(
            &g,
            &PartitionConfig {
                shards: 2,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let total: usize = p.shards().iter().map(|s| s.num_vertices()).sum();
        assert_eq!(total, 8);
    }
}
