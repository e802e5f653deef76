//! Trie over vertex-label sequences, shared by Grapes and GraphGrepSX.
//!
//! Both methods enumerate all simple paths up to a maximum length with a DFS
//! and organize them in a tree keyed by the path's label sequence (a suffix
//! tree in GraphGrepSX, a trie in Grapes). At every node the structure
//! records, per dataset graph, how many traversals end there and — when
//! location information is enabled (Grapes) — the ids of the vertices at
//! which those traversals start.
//!
//! Nodes are addressed by dense ids: they are only ever appended (a purge
//! empties payloads but keeps every node), so an id stays valid for the
//! trie's lifetime. The query side reads by id — [`PathTrie::child`],
//! [`PathTrie::payload`] — and [`PathTrie::walk`] steps a query's traversals
//! down the trie in the same DFS that built it.

use sqbench_features::paths::walk_paths;
use sqbench_graph::{Graph, GraphId, Label, VertexId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-graph payload stored at a trie node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathEntry {
    /// Number of directed traversals of this label sequence in the graph.
    pub count: u32,
    /// Start vertices of those traversals (only populated when the trie
    /// stores location information). Sorted and deduplicated.
    pub start_vertices: Vec<VertexId>,
}

impl PathEntry {
    fn record(&mut self, start: Option<VertexId>) {
        self.count += 1;
        if let Some(s) = start {
            if let Err(pos) = self.start_vertices.binary_search(&s) {
                self.start_vertices.insert(pos, s);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.start_vertices.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// One trie node: child edges keyed by the next vertex label, plus the
/// per-graph occurrence payload of the label sequence spelled by the path
/// from the root to this node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TrieNode {
    children: BTreeMap<Label, usize>,
    graphs: BTreeMap<GraphId, PathEntry>,
}

/// Trie over label sequences with per-graph occurrence payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTrie {
    nodes: Vec<TrieNode>,
    store_locations: bool,
    inserted_paths: usize,
}

impl PathTrie {
    /// Creates an empty trie. `store_locations` controls whether start
    /// vertices are recorded (Grapes) or only counts (GraphGrepSX).
    pub fn new(store_locations: bool) -> Self {
        PathTrie {
            nodes: vec![TrieNode::default()],
            store_locations,
            inserted_paths: 0,
        }
    }

    /// Whether this trie stores start-vertex location information.
    pub fn stores_locations(&self) -> bool {
        self.store_locations
    }

    /// Number of trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct label sequences that have at least one occurrence.
    pub fn distinct_paths(&self) -> usize {
        self.nodes.iter().filter(|n| !n.graphs.is_empty()).count()
    }

    /// Every graph id some payload mentions (diagnostics: after a
    /// [`PathTrie::purge`] none of the purged ids is among them).
    pub fn graph_ids(&self) -> BTreeSet<GraphId> {
        self.nodes
            .iter()
            .flat_map(|n| n.graphs.keys().copied())
            .collect()
    }

    /// Total number of traversals inserted.
    pub fn inserted_paths(&self) -> usize {
        self.inserted_paths
    }

    /// Records one directed traversal of `labels` in graph `graph`,
    /// optionally starting at `start`.
    pub fn insert(&mut self, labels: &[Label], graph: GraphId, start: VertexId) {
        let mut node = 0usize;
        for &label in labels {
            node = match self.nodes[node].children.get(&label) {
                Some(&child) => child,
                None => {
                    let child = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[node].children.insert(label, child);
                    child
                }
            };
        }
        let start = if self.store_locations {
            Some(start)
        } else {
            None
        };
        self.nodes[node]
            .graphs
            .entry(graph)
            .or_default()
            .record(start);
        self.inserted_paths += 1;
    }

    /// The root node: the empty label sequence.
    const ROOT: usize = 0;

    /// The node spelling `node`'s label sequence extended by `label`, if any
    /// inserted traversal spells it.
    pub fn child(&self, node: usize, label: Label) -> Option<usize> {
        self.nodes[node].children.get(&label).copied()
    }

    /// The per-graph payload of `node`, or `None` when no live traversal
    /// ends there (a prefix-only node, or one a purge emptied).
    pub fn payload(&self, node: usize) -> Option<&BTreeMap<GraphId, PathEntry>> {
        let graphs = &self.nodes[node].graphs;
        (!graphs.is_empty()).then_some(graphs)
    }

    /// Looks up a label sequence; returns the node it spells, or `None` if
    /// no dataset path has this label sequence (see [`PathTrie::payload`]).
    pub fn lookup(&self, labels: &[Label]) -> Option<usize> {
        let mut node = Self::ROOT;
        for &label in labels {
            node = self.child(node, label)?;
        }
        self.payload(node).map(|_| node)
    }

    /// Walks every traversal of up to `max_edges` edges of `query` down the
    /// trie and returns the nodes they reach with the number of traversals
    /// reaching each, ascending by node. `None` as soon as one traversal
    /// steps off the trie or lands on an empty payload: no indexed graph has
    /// that path, so no graph can contain the query. The pairs are exactly
    /// `(lookup(labels), count)` over the query's distinct label sequences.
    pub fn walk(&self, query: &Graph, max_edges: usize) -> Option<Vec<(usize, u32)>> {
        let mut reached: Vec<usize> = Vec::new();
        let complete = walk_paths(query, max_edges, Self::ROOT, |node, labels, _| {
            let child = self.child(node, *labels.last()?)?;
            self.payload(child)?;
            reached.push(child);
            Some(child)
        });
        if !complete {
            return None;
        }
        reached.sort_unstable();
        let runs = reached.chunk_by(|a, b| a == b);
        let count = |run: &[usize]| u32::try_from(run.len()).expect("traversal count fits u32");
        Some(runs.map(|run| (run[0], count(run))).collect())
    }

    /// Merges another trie into this one, consuming it (used by Grapes'
    /// parallel build: each worker thread builds a partial trie over its
    /// share of the dataset, then the partial tries are merged). Payloads
    /// are moved, not copied, so merging is linear in the smaller trie.
    pub fn merge(&mut self, mut other: PathTrie) {
        let other_nodes = std::mem::take(&mut other.nodes);
        let mut taken: Vec<TrieNode> = other_nodes;
        self.merge_node(0, &mut taken, 0);
        self.inserted_paths += other.inserted_paths;
    }

    fn merge_node(&mut self, self_node: usize, other: &mut [TrieNode], other_node: usize) {
        // Move the payloads across.
        let other_graphs = std::mem::take(&mut other[other_node].graphs);
        for (gid, entry) in other_graphs {
            match self.nodes[self_node].graphs.entry(gid) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(entry);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let target = slot.get_mut();
                    target.count += entry.count;
                    for s in entry.start_vertices {
                        if let Err(pos) = target.start_vertices.binary_search(&s) {
                            target.start_vertices.insert(pos, s);
                        }
                    }
                }
            }
        }
        // Merge children.
        let other_children: Vec<(Label, usize)> = std::mem::take(&mut other[other_node].children)
            .into_iter()
            .collect();
        for (label, other_child) in other_children {
            let self_child = match self.nodes[self_node].children.get(&label) {
                Some(&c) => c,
                None => {
                    let c = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[self_node].children.insert(label, c);
                    c
                }
            };
            self.merge_node(self_child, other, other_child);
        }
    }

    /// Removes every payload entry of the given (sorted) dead graph ids —
    /// the trie side of lazy tombstone compaction. Node structure is kept
    /// (re-inserting a label sequence reuses it); `inserted_paths` is
    /// decremented by the traversal counts that disappear.
    pub fn purge(&mut self, dead: &[GraphId]) {
        if dead.is_empty() {
            return;
        }
        for node in &mut self.nodes {
            for &gid in dead {
                if let Some(entry) = node.graphs.remove(&gid) {
                    self.inserted_paths -= entry.count as usize;
                }
            }
        }
    }

    /// Estimated heap bytes used by the trie.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<TrieNode>()
                    + n.children.len()
                        * (std::mem::size_of::<Label>() + std::mem::size_of::<usize>())
                    + n.graphs
                        .values()
                        .map(|e| std::mem::size_of::<GraphId>() + e.memory_bytes())
                        .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    /// The payload a label sequence spells; panics when it has none.
    fn at<'a>(trie: &'a PathTrie, labels: &[Label]) -> &'a BTreeMap<GraphId, PathEntry> {
        trie.payload(trie.lookup(labels).expect("indexed path"))
            .expect("non-empty payload")
    }

    #[test]
    fn insert_and_lookup() {
        let mut trie = PathTrie::new(true);
        trie.insert(&[1, 2, 3], 0, 5);
        trie.insert(&[1, 2, 3], 0, 7);
        trie.insert(&[1, 2, 3], 1, 0);
        trie.insert(&[1, 2], 0, 5);
        let payload = at(&trie, &[1, 2, 3]);
        assert_eq!(payload.len(), 2);
        assert_eq!(payload[&0].count, 2);
        assert_eq!(payload[&0].start_vertices, vec![5, 7]);
        assert_eq!(payload[&1].count, 1);
        assert_eq!(at(&trie, &[1, 2])[&0].count, 1);
        assert!(trie.lookup(&[9]).is_none());
        assert!(trie.lookup(&[1, 2, 3, 4]).is_none());
        assert_eq!(trie.inserted_paths(), 4);
    }

    #[test]
    fn prefix_without_occurrence_is_not_a_path() {
        let mut trie = PathTrie::new(false);
        trie.insert(&[4, 5, 6], 0, 0);
        // The prefix [4, 5] exists as a node but has no recorded occurrence.
        assert!(trie.lookup(&[4, 5]).is_none());
        assert!(trie.lookup(&[4, 5, 6]).is_some());
        assert_eq!(trie.distinct_paths(), 1);
        assert_eq!(trie.node_count(), 4); // root + 3
    }

    #[test]
    fn locations_disabled_keeps_counts_only() {
        let mut trie = PathTrie::new(false);
        trie.insert(&[1], 3, 42);
        let payload = at(&trie, &[1]);
        assert_eq!(payload[&3].count, 1);
        assert!(payload[&3].start_vertices.is_empty());
        assert!(!trie.stores_locations());
    }

    #[test]
    fn duplicate_starts_are_deduplicated() {
        let mut trie = PathTrie::new(true);
        trie.insert(&[1, 1], 0, 2);
        trie.insert(&[1, 1], 0, 2);
        let payload = at(&trie, &[1, 1]);
        assert_eq!(payload[&0].count, 2);
        assert_eq!(payload[&0].start_vertices, vec![2]);
    }

    #[test]
    fn merge_combines_counts_and_structure() {
        let mut a = PathTrie::new(true);
        a.insert(&[1, 2], 0, 0);
        a.insert(&[1, 3], 0, 1);
        let mut b = PathTrie::new(true);
        b.insert(&[1, 2], 0, 4);
        b.insert(&[2, 2], 1, 0);
        a.merge(b);
        assert_eq!(at(&a, &[1, 2])[&0].count, 2);
        assert_eq!(at(&a, &[1, 2])[&0].start_vertices, vec![0, 4]);
        assert_eq!(at(&a, &[2, 2])[&1].count, 1);
        assert_eq!(at(&a, &[1, 3])[&0].count, 1);
        assert_eq!(a.inserted_paths(), 4);
    }

    #[test]
    fn purge_drops_dead_graphs_but_keeps_structure() {
        let mut trie = PathTrie::new(true);
        trie.insert(&[1, 2], 0, 0);
        trie.insert(&[1, 2], 1, 3);
        trie.insert(&[1, 2], 1, 4);
        trie.insert(&[2, 2], 1, 0);
        trie.insert(&[1, 3], 2, 1);
        let nodes = trie.node_count();
        trie.purge(&[1]);
        assert_eq!(at(&trie, &[1, 2]).len(), 1);
        assert!(at(&trie, &[1, 2]).contains_key(&0));
        assert!(trie.lookup(&[2, 2]).is_none(), "graph 1 was its only owner");
        assert_eq!(at(&trie, &[1, 3])[&2].count, 1);
        assert_eq!(trie.inserted_paths(), 2, "graph 1's traversals subtracted");
        assert_eq!(trie.node_count(), nodes, "structure survives the purge");
        assert_eq!(trie.graph_ids(), BTreeSet::from([0, 2]));
        // Re-inserting after a purge reuses the surviving nodes.
        trie.insert(&[2, 2], 3, 7);
        assert_eq!(trie.node_count(), nodes);
        assert_eq!(at(&trie, &[2, 2])[&3].count, 1);
    }

    #[test]
    fn memory_accounting_grows_with_content() {
        let mut trie = PathTrie::new(true);
        let empty_bytes = trie.memory_bytes();
        for i in 0..20u32 {
            trie.insert(&[i, i + 1, i + 2], 0, i as usize);
        }
        assert!(trie.memory_bytes() > empty_bytes);
    }

    #[test]
    fn empty_label_sequence_hits_the_root() {
        let mut trie = PathTrie::new(false);
        assert!(trie.lookup(&[]).is_none());
        trie.insert(&[], 0, 0);
        assert!(trie.lookup(&[]).is_some());
    }

    /// The walk reaches the node `lookup` names for every query label
    /// sequence, counting one per traversal, and gives up on the first
    /// traversal the trie does not hold — including one a purge emptied.
    #[test]
    fn walk_reaches_the_lookup_nodes_with_traversal_counts() {
        let indexed = GraphBuilder::new("g")
            .vertices(&[1, 2, 1, 3])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let mut trie = PathTrie::new(false);
        sqbench_features::paths::for_each_path(&indexed, 2, |labels, start| {
            trie.insert(labels, 0, start);
        });
        let query = GraphBuilder::new("q")
            .vertices(&[1, 2, 1])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        let node = |labels: &[Label]| trie.lookup(labels).unwrap();
        let mut expected = vec![
            (node(&[1]), 2),
            (node(&[2]), 1),
            (node(&[1, 2]), 2),
            (node(&[2, 1]), 2),
            (node(&[1, 2, 1]), 2),
        ];
        expected.sort_unstable();
        assert_eq!(trie.walk(&query, 2), Some(expected));
        assert_eq!(trie.walk(&Graph::new("empty"), 2), Some(vec![]));

        let off_trie = GraphBuilder::new("q").vertices(&[2, 2]).edge(0, 1);
        assert_eq!(trie.walk(&off_trie.build().unwrap(), 2), None);
        trie.purge(&[0]);
        assert_eq!(trie.walk(&query, 2), None, "purged payloads are empty");
    }
}
