//! Datasets: ordered collections of graphs over which indexes are built.
//!
//! Graph storage is **shared**: a [`Dataset`] holds its graphs behind
//! [`Arc`], so derived datasets — shard partitions, truncated prefixes,
//! placement experiments — reference the same allocations instead of deep
//! copying them. Sharing is invisible to readers (every accessor still
//! hands out plain `&Graph`); it only changes what cloning costs
//! (O(pointers), not O(bytes)) and what the memory accounting reports
//! (see [`Dataset::owned_memory_bytes`] / [`Dataset::shared_memory_bytes`]).

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Identifier of a graph inside a [`Dataset`]. Graph ids are dense and equal
/// to the graph's position in insertion order, matching how every index
/// method in the paper stores "graph-id lists" per feature.
pub type GraphId = usize;

/// A collection of labeled graphs — the unit against which subgraph queries
/// are answered. A query `q` must return the ids of all graphs in the
/// dataset that contain `q` (Definition 3).
///
/// Graphs are stored as `Arc<Graph>`: [`Dataset::clone`],
/// [`Dataset::truncated`] and the sharded service's `partition_dataset`
/// share the underlying graph allocations instead of copying them.
///
/// # Removal and dead slots
///
/// [`Dataset::remove`] does **not** shift ids: the removed slot keeps its
/// position (so every index posting list, shard id table and candidate
/// bitset stays valid) but its graph storage is swapped for a handle to the
/// one process-wide empty placeholder and the id is recorded as *dead* — a
/// dead slot costs its spine entry, never a graph. Checked accessors
/// ([`Dataset::graph`], [`Dataset::shared`]) treat dead ids like missing
/// ones, so verification paths skip them naturally; `len()`/`ids()` keep
/// covering the full dense id space, and [`Dataset::live_len`] /
/// [`Dataset::is_live`] / [`Dataset::iter_live`] expose the live view.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    name: String,
    graphs: Vec<Arc<Graph>>,
    /// Ids of removed (dead) slots, sorted ascending. Empty on every
    /// dataset that never saw a removal, so equality of frozen datasets is
    /// unchanged.
    dead: Vec<GraphId>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            graphs: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Creates a dataset from an existing vector of graphs, taking unique
    /// ownership of each (the graphs become shareable from here on).
    pub fn from_graphs(name: impl Into<String>, graphs: Vec<Graph>) -> Self {
        Dataset {
            name: name.into(),
            graphs: graphs.into_iter().map(Arc::new).collect(),
            dead: Vec::new(),
        }
    }

    /// Creates a dataset from already-shared graph handles without copying
    /// any graph storage — the zero-copy constructor `partition_dataset`
    /// and [`Dataset::truncated`] build on.
    pub fn from_shared(name: impl Into<String>, graphs: Vec<Arc<Graph>>) -> Self {
        Dataset {
            name: name.into(),
            graphs,
            dead: Vec::new(),
        }
    }

    /// The dataset's name (e.g. `"AIDS-like"` or a synthetic sweep label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the dataset.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Appends a graph and returns its id.
    pub fn push(&mut self, graph: Graph) -> GraphId {
        self.push_shared(Arc::new(graph))
    }

    /// Appends an already-shared graph handle (no copy) and returns its id.
    pub fn push_shared(&mut self, graph: Arc<Graph>) -> GraphId {
        let id = self.graphs.len();
        self.graphs.push(graph);
        id
    }

    /// Removes the graph with the given id without shifting any other id:
    /// the slot's handle is swapped for the shared empty placeholder
    /// (freeing the graph if this dataset was its last holder; nothing is
    /// allocated per removal) and the id joins the dead list. Returns
    /// `false` when the id is out of range or already dead.
    ///
    /// `len()` and `ids()` still cover the dense id space afterwards —
    /// that is what keeps index posting lists and shard id tables valid —
    /// but [`Dataset::graph`] / [`Dataset::shared`] now error for the id
    /// and [`Dataset::live_len`] shrinks.
    pub fn remove(&mut self, id: GraphId) -> bool {
        if id >= self.graphs.len() {
            return false;
        }
        match self.dead.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.graphs[id] = dead_placeholder();
                self.dead.insert(pos, id);
                true
            }
        }
    }

    /// `true` when `id` addresses a live (not removed) graph.
    pub fn is_live(&self, id: GraphId) -> bool {
        id < self.graphs.len() && self.dead.binary_search(&id).is_err()
    }

    /// Number of live graphs (`len()` minus removed slots).
    pub fn live_len(&self) -> usize {
        self.graphs.len() - self.dead.len()
    }

    /// Ids of removed slots, sorted ascending.
    pub fn dead_ids(&self) -> &[GraphId] {
        &self.dead
    }

    /// Number of graph slots in the dataset, **including** dead ones —
    /// the dense id-space bound every index universe tracks. See
    /// [`Dataset::live_len`] for the live count.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// `true` if the dataset contains no graph slots.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The graph with the given id, or an error if it does not exist (out
    /// of range or removed).
    pub fn graph(&self, id: GraphId) -> Result<&Graph> {
        self.shared(id).map(|g| &**g)
    }

    /// Unchecked indexed access; panics on out-of-range ids.
    pub fn graph_unchecked(&self, id: GraphId) -> &Graph {
        &self.graphs[id]
    }

    /// The shared handle of the graph with the given id, or an error if it
    /// does not exist (out of range or removed). `Arc::clone` the result
    /// to reference the graph from another dataset without copying it.
    pub fn shared(&self, id: GraphId) -> Result<&Arc<Graph>> {
        if !self.is_live(id) {
            return Err(GraphError::UnknownGraph {
                graph: id,
                graph_count: self.graphs.len(),
            });
        }
        Ok(&self.graphs[id])
    }

    /// Unchecked shared-handle access; panics on out-of-range ids.
    pub fn shared_unchecked(&self, id: GraphId) -> &Arc<Graph> {
        &self.graphs[id]
    }

    /// Iterator over `(GraphId, &Graph)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Graph)> {
        self.graphs.iter().enumerate().map(|(id, g)| (id, &**g))
    }

    /// Iterator over the live `(GraphId, &Graph)` pairs in id order:
    /// [`Dataset::iter`] minus the dead slots' placeholders.
    pub fn iter_live(&self) -> impl Iterator<Item = (GraphId, &Graph)> {
        self.live_shared().map(|(id, g)| (id, &**g))
    }

    /// The live slots' handles in id order (one merge pass over the sorted
    /// dead list).
    fn live_shared(&self) -> impl Iterator<Item = (GraphId, &Arc<Graph>)> {
        let mut dead = self.dead.iter().copied().peekable();
        self.iter_shared()
            .filter(move |&(id, _)| dead.next_if_eq(&id).is_none())
    }

    /// Iterator over `(GraphId, &Arc<Graph>)` pairs in id order — the
    /// handle-level twin of [`Dataset::iter`] for callers that share
    /// graphs onward.
    pub fn iter_shared(&self) -> impl Iterator<Item = (GraphId, &Arc<Graph>)> {
        self.graphs.iter().enumerate()
    }

    /// All graph handles as a slice, indexed by [`GraphId`]. The element
    /// type is `Arc<Graph>`, which derefs to [`Graph`], so
    /// `ds.graphs().iter().map(|g| g.vertex_count())`-style reads work
    /// unchanged.
    pub fn graphs(&self) -> &[Arc<Graph>] {
        &self.graphs
    }

    /// All graph ids (`0..len`).
    pub fn ids(&self) -> impl Iterator<Item = GraphId> {
        0..self.graphs.len()
    }

    /// Total number of vertices across all graphs.
    pub fn total_vertices(&self) -> usize {
        self.graphs.iter().map(|g| g.vertex_count()).sum()
    }

    /// Total number of edges across all graphs.
    pub fn total_edges(&self) -> usize {
        self.graphs.iter().map(|g| g.edge_count()).sum()
    }

    /// Number of distinct labels used across the whole dataset.
    pub fn distinct_label_count(&self) -> usize {
        let mut labels: Vec<u32> = self
            .graphs
            .iter()
            .flat_map(|g| g.labels().iter().copied())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Heap bytes of the `Arc<Graph>` spine itself — the cost a zero-copy
    /// derived dataset pays per graph (one pointer), independent of graph
    /// sizes, and all a dead slot costs.
    fn spine_bytes(&self) -> usize {
        self.graphs.capacity() * std::mem::size_of::<Arc<Graph>>()
    }

    /// Estimated heap bytes *reachable* from the dataset: every live
    /// graph's storage plus the handle spine (dead slots all point at one
    /// process-wide placeholder, which belongs to no dataset). Graphs
    /// shared with other datasets are counted in full — this is the
    /// resident-set view; see [`Dataset::owned_memory_bytes`] for the
    /// incremental view.
    pub fn memory_bytes(&self) -> usize {
        self.live_shared()
            .map(|(_, g)| g.memory_bytes() + std::mem::size_of::<Graph>())
            .sum::<usize>()
            + self.spine_bytes()
    }

    /// Estimated heap bytes this dataset *uniquely* owns: the handle spine
    /// plus the storage of graphs no other handle references
    /// (`Arc::strong_count == 1`). For a shard partition or truncated
    /// prefix taken while the source dataset is alive, this is the
    /// partition's true incremental memory cost — the spine only, a few
    /// bytes per graph instead of a full copy.
    ///
    /// The split is a point-in-time snapshot: dropping the last other
    /// holder of a shared graph silently moves its bytes from shared to
    /// owned.
    pub fn owned_memory_bytes(&self) -> usize {
        self.live_shared()
            .filter(|(_, g)| Arc::strong_count(g) == 1)
            .map(|(_, g)| g.memory_bytes() + std::mem::size_of::<Graph>())
            .sum::<usize>()
            + self.spine_bytes()
    }

    /// Estimated heap bytes reachable from this dataset but shared with at
    /// least one other graph handle. Always
    /// `memory_bytes() - owned_memory_bytes()`.
    pub fn shared_memory_bytes(&self) -> usize {
        self.memory_bytes() - self.owned_memory_bytes()
    }

    /// Returns a new dataset containing only the first `n` graphs, sharing
    /// their storage with `self` (`Arc::clone` per graph — O(pointers), no
    /// graph bytes are copied). Useful for scaling experiments that sweep
    /// the number of graphs over many prefixes of one generated dataset.
    pub fn truncated(&self, n: usize) -> Dataset {
        Dataset {
            name: format!("{}[0..{}]", self.name, n.min(self.graphs.len())),
            graphs: self.graphs.iter().take(n).cloned().collect(),
            dead: self.dead.iter().copied().filter(|&id| id < n).collect(),
        }
    }
}

impl IntoIterator for Dataset {
    type Item = Graph;
    type IntoIter = std::iter::Map<std::vec::IntoIter<Arc<Graph>>, fn(Arc<Graph>) -> Graph>;

    /// Consumes the dataset into owned graphs. Graphs not shared with any
    /// other dataset are moved out of their `Arc` without copying; shared
    /// ones are cloned (the other holders keep the original).
    fn into_iter(self) -> Self::IntoIter {
        self.graphs.into_iter().map(Arc::unwrap_or_clone)
    }
}

/// The one empty graph every dead slot of every dataset points at. Ids are
/// append-only, so under churn the dead slots only accumulate; sharing the
/// placeholder keeps a removal from leaving an allocation behind.
fn dead_placeholder() -> Arc<Graph> {
    static DEAD: OnceLock<Arc<Graph>> = OnceLock::new();
    Arc::clone(DEAD.get_or_init(|| Arc::new(Graph::new("<dead>"))))
}

/// `&Arc<Graph>` → `&Graph`, named so it can be a `fn`-pointer iterator
/// adapter in `IntoIterator for &Dataset`.
fn deref_graph(g: &Arc<Graph>) -> &Graph {
    g
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Graph;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, Arc<Graph>>, fn(&'a Arc<Graph>) -> &'a Graph>;

    fn into_iter(self) -> Self::IntoIter {
        self.graphs
            .iter()
            .map(deref_graph as fn(&Arc<Graph>) -> &Graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny_graph(n: usize, label: u32) -> Graph {
        let mut b = GraphBuilder::new(format!("g{n}"));
        for _ in 0..n {
            b = b.vertex(label);
        }
        for i in 1..n {
            b = b.edge(i - 1, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn push_and_lookup() {
        let mut ds = Dataset::new("ds");
        let id0 = ds.push(tiny_graph(3, 0));
        let id1 = ds.push(tiny_graph(4, 1));
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.graph(id1).unwrap().vertex_count(), 4);
        assert!(ds.graph(7).is_err());
        assert!(ds.shared(7).is_err());
        assert_eq!(ds.shared(0).unwrap().vertex_count(), 3);
    }

    #[test]
    fn totals() {
        let ds = Dataset::from_graphs("ds", vec![tiny_graph(3, 0), tiny_graph(5, 1)]);
        assert_eq!(ds.total_vertices(), 8);
        assert_eq!(ds.total_edges(), 2 + 4);
        assert_eq!(ds.distinct_label_count(), 2);
        assert!(ds.memory_bytes() > 0);
    }

    #[test]
    fn iteration_orders_by_id() {
        let ds = Dataset::from_graphs("ds", vec![tiny_graph(1, 0), tiny_graph(2, 0)]);
        let ids: Vec<_> = ds.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
        let sizes: Vec<_> = (&ds).into_iter().map(Graph::vertex_count).collect();
        assert_eq!(sizes, vec![1, 2]);
        let shared_ids: Vec<_> = ds.iter_shared().map(|(id, _)| id).collect();
        assert_eq!(shared_ids, vec![0, 1]);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let ds = Dataset::from_graphs(
            "ds",
            vec![tiny_graph(1, 0), tiny_graph(2, 0), tiny_graph(3, 0)],
        );
        let t = ds.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.graph(1).unwrap().vertex_count(), 2);
        let t_all = ds.truncated(10);
        assert_eq!(t_all.len(), 3);
    }

    #[test]
    fn truncated_shares_graph_storage() {
        let ds = Dataset::from_graphs("ds", vec![tiny_graph(2, 0), tiny_graph(3, 0)]);
        let t = ds.truncated(2);
        for id in t.ids() {
            assert!(
                Arc::ptr_eq(t.shared_unchecked(id), ds.shared_unchecked(id)),
                "truncated graph {id} was deep-copied"
            );
        }
        // The prefix uniquely owns only its pointer spine: every graph
        // byte it can reach is shared with the source dataset.
        let graph_bytes: usize = t
            .iter()
            .map(|(_, g)| g.memory_bytes() + std::mem::size_of::<Graph>())
            .sum();
        assert_eq!(t.owned_memory_bytes() + graph_bytes, t.memory_bytes());
        assert_eq!(
            t.memory_bytes(),
            t.owned_memory_bytes() + t.shared_memory_bytes()
        );
    }

    #[test]
    fn owned_and_shared_bytes_partition_memory_bytes() {
        let mut ds = Dataset::from_graphs("ds", vec![tiny_graph(4, 0), tiny_graph(5, 1)]);
        // A freshly built dataset owns everything it can reach.
        assert_eq!(ds.owned_memory_bytes(), ds.memory_bytes());
        assert_eq!(ds.shared_memory_bytes(), 0);
        // Share one graph into a second dataset: its bytes flip to shared
        // on both sides; the unshared graph's bytes stay owned.
        let mut other = Dataset::new("other");
        other.push_shared(Arc::clone(ds.shared(0).unwrap()));
        assert!(ds.shared_memory_bytes() > 0);
        assert!(ds.owned_memory_bytes() < ds.memory_bytes());
        assert_eq!(
            ds.owned_memory_bytes() + ds.shared_memory_bytes(),
            ds.memory_bytes()
        );
        assert!(other.shared_memory_bytes() > 0);
        // Dropping the sharer returns the bytes to owned.
        drop(other);
        assert_eq!(ds.owned_memory_bytes(), ds.memory_bytes());
        // Keep `ds` mutable use meaningful: pushing stays cheap and owned.
        let id = ds.push(tiny_graph(2, 2));
        assert!(Arc::strong_count(ds.shared_unchecked(id)) == 1);
    }

    #[test]
    fn into_iter_moves_unshared_graphs_and_clones_shared_ones() {
        let ds = Dataset::from_graphs("ds", vec![tiny_graph(2, 0), tiny_graph(3, 1)]);
        let keep = Arc::clone(ds.shared(1).unwrap());
        let owned: Vec<Graph> = ds.into_iter().collect();
        assert_eq!(owned.len(), 2);
        assert_eq!(owned[1].vertex_count(), 3);
        // The shared graph survived the consuming iteration.
        assert_eq!(keep.vertex_count(), 3);
    }

    #[test]
    fn remove_keeps_ids_stable_and_errors_on_dead_access() {
        let mut ds = Dataset::from_graphs(
            "ds",
            vec![tiny_graph(2, 0), tiny_graph(3, 1), tiny_graph(4, 2)],
        );
        assert!(ds.remove(1));
        assert!(!ds.remove(1), "double remove must be a no-op");
        assert!(!ds.remove(9), "out-of-range remove must be a no-op");
        // The dense id space is unchanged; only liveness shrinks.
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.live_len(), 2);
        assert_eq!(ds.dead_ids(), &[1]);
        assert!(ds.is_live(0) && !ds.is_live(1) && ds.is_live(2));
        assert!(ds.graph(1).is_err());
        assert!(ds.shared(1).is_err());
        assert_eq!(ds.graph(2).unwrap().vertex_count(), 4);
        // The dead slot's storage was dropped to a placeholder.
        assert_eq!(ds.graph_unchecked(1).vertex_count(), 0);
        // Appending after a removal keeps ids dense.
        assert_eq!(ds.push(tiny_graph(5, 3)), 3);
        assert_eq!(ds.live_len(), 3);
        // Truncation carries the dead ids that survive the cut.
        assert_eq!(ds.truncated(2).dead_ids(), &[1]);
        assert!(ds.truncated(1).dead_ids().is_empty());
    }

    #[test]
    fn removed_slots_share_one_placeholder_and_cost_only_their_spine_entry() {
        let mut ds = Dataset::from_graphs("churn", vec![tiny_graph(3, 0); 1_000]);
        let mut other = Dataset::from_graphs("other", vec![tiny_graph(2, 1)]);
        for id in ds.ids() {
            assert!(ds.remove(id));
        }
        assert!(other.remove(0));
        // No per-slot graph: every dead slot, in every dataset, is a handle
        // to the same allocation.
        for id in ds.ids() {
            assert!(Arc::ptr_eq(
                ds.shared_unchecked(id),
                other.shared_unchecked(0)
            ));
            assert!(ds.graph(id).is_err() && ds.shared(id).is_err());
        }
        assert_eq!(ds.iter_live().count(), 0);
        // The accounting says so: what is left is the spine, all of it owned.
        let spine = ds.graphs.capacity() * std::mem::size_of::<Arc<Graph>>();
        assert_eq!(ds.memory_bytes(), spine);
        assert_eq!(ds.owned_memory_bytes(), spine);
        // A live neighbour is still counted in full, and `iter_live` skips
        // exactly the dead ids.
        let live = tiny_graph(5, 2);
        let live_bytes = live.memory_bytes() + std::mem::size_of::<Graph>();
        let id = ds.push(live);
        let spine = ds.graphs.capacity() * std::mem::size_of::<Arc<Graph>>();
        assert_eq!(ds.memory_bytes(), spine + live_bytes);
        assert_eq!(ds.owned_memory_bytes(), spine + live_bytes);
        assert_eq!(ds.iter_live().map(|(id, _)| id).collect::<Vec<_>>(), [id]);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new("empty");
        assert!(ds.is_empty());
        assert_eq!(ds.total_vertices(), 0);
        assert_eq!(ds.distinct_label_count(), 0);
        assert_eq!(ds.memory_bytes(), 0);
        assert_eq!(ds.owned_memory_bytes(), 0);
        assert_eq!(ds.shared_memory_bytes(), 0);
    }
}
