//! Exhaustive enumeration of simple paths.
//!
//! GraphGrepSX and Grapes both index *all* simple paths of up to a maximum
//! length (the paper uses length 4). For each canonical path label the index
//! stores, per dataset graph, how many times the path occurs and — for
//! Grapes — the ids of the vertices at which occurrences start (the
//! "location information" that gives Grapes its extra filtering power).

use crate::canonical::{path_key, FeatureKey};
use sqbench_graph::{Graph, Label, VertexId};
use std::collections::BTreeMap;

/// Occurrence information for one path feature within one graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathOccurrences {
    /// Number of directed simple-path traversals matching the feature.
    pub count: usize,
    /// Vertices at which those traversals start (Grapes' location info).
    /// Sorted and deduplicated.
    pub start_vertices: Vec<VertexId>,
}

impl PathOccurrences {
    fn record(&mut self, start: VertexId) {
        self.count += 1;
        if let Err(pos) = self.start_vertices.binary_search(&start) {
            self.start_vertices.insert(pos, start);
        }
    }

    /// Estimated heap bytes used by this record (for index size accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.start_vertices.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// All path features of a graph, keyed by canonical path label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    /// Canonical path label → occurrence info.
    pub paths: BTreeMap<FeatureKey, PathOccurrences>,
}

impl PathSet {
    /// Number of distinct path features.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` if no paths were enumerated (empty graph).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterator over `(key, occurrences)`.
    pub fn iter(&self) -> impl Iterator<Item = (&FeatureKey, &PathOccurrences)> {
        self.paths.iter()
    }

    /// The occurrence record for a given canonical key, if present.
    pub fn get(&self, key: &FeatureKey) -> Option<&PathOccurrences> {
        self.paths.get(key)
    }

    /// Estimated heap bytes used by the whole set.
    pub fn memory_bytes(&self) -> usize {
        self.paths
            .iter()
            .map(|(k, v)| k.len_bytes() + v.memory_bytes())
            .sum()
    }
}

/// Calls `visit(labels, start_vertex)` once for every *directed* simple-path
/// traversal of `0..=max_edges` edges in `g` (the zero-edge traversal is the
/// single start vertex). This is the raw DFS enumeration that GraphGrepSX
/// and Grapes run during index construction; both insert traversals directly
/// into their trie keyed by the label sequence.
pub fn for_each_path<F>(g: &Graph, max_edges: usize, mut visit: F)
where
    F: FnMut(&[Label], VertexId),
{
    walk_paths(g, max_edges, (), |(), labels, start| {
        visit(labels, start);
        Some(())
    });
}

/// The one traversal DFS, threading a caller cursor along each traversal:
/// `step(parent, labels, start)` is called once per directed simple-path
/// traversal of `0..=max_edges` edges, in [`for_each_path`]'s order, with
/// the cursor `step` returned for the same traversal one vertex shorter
/// (`root` for a zero-edge traversal). Returning `None` ends the whole walk;
/// the result is `false` exactly then. The path methods walk their label
/// trie with a query this way — the cursor is a trie node, and stepping off
/// the trie ends the walk.
pub fn walk_paths<C, F>(g: &Graph, max_edges: usize, root: C, mut step: F) -> bool
where
    C: Copy,
    F: FnMut(C, &[Label], VertexId) -> Option<C>,
{
    let mut labels_buf: Vec<Label> = Vec::with_capacity(max_edges + 1);
    let mut visited = vec![false; g.vertex_count()];
    for start in g.vertices() {
        labels_buf.push(g.label(start));
        let Some(cursor) = step(root, &labels_buf, start) else {
            return false;
        };
        visited[start] = true;
        let complete = dfs_paths(
            g,
            start,
            start,
            cursor,
            max_edges,
            &mut labels_buf,
            &mut visited,
            &mut step,
        );
        visited[start] = false;
        labels_buf.pop();
        if !complete {
            return false;
        }
    }
    true
}

/// Enumerates all simple paths of `1..=max_edges` edges (and the length-0
/// single-vertex "paths") in `g`, grouped by canonical label.
///
/// Each *directed* traversal is counted once, matching the behaviour of the
/// GraphGrepSX/Grapes DFS enumerators; because the canonical label folds a
/// path and its reverse together, a symmetric path contributes two counts
/// (one per direction), which is exactly how those systems count
/// occurrences.
pub fn enumerate_paths(g: &Graph, max_edges: usize) -> PathSet {
    let mut set = PathSet::default();
    for_each_path(g, max_edges, |labels, start| {
        set.paths.entry(path_key(labels)).or_default().record(start);
    });
    set
}

#[allow(clippy::too_many_arguments)]
fn dfs_paths<C, F>(
    g: &Graph,
    start: VertexId,
    current: VertexId,
    cursor: C,
    remaining: usize,
    labels_buf: &mut Vec<Label>,
    visited: &mut Vec<bool>,
    step: &mut F,
) -> bool
where
    C: Copy,
    F: FnMut(C, &[Label], VertexId) -> Option<C>,
{
    if remaining == 0 {
        return true;
    }
    for &next in g.neighbors(current) {
        if visited[next] {
            continue;
        }
        visited[next] = true;
        labels_buf.push(g.label(next));
        let complete = step(cursor, labels_buf, start).is_some_and(|child| {
            dfs_paths(
                g,
                start,
                next,
                child,
                remaining - 1,
                labels_buf,
                visited,
                step,
            )
        });
        labels_buf.pop();
        visited[next] = false;
        if !complete {
            return false;
        }
    }
    true
}

/// The query side of [`enumerate_paths`]: the canonical keys of all simple
/// paths up to `max_edges` edges of a *query* graph, with their occurrence
/// counts. No served filter calls it — GGSX and Grapes walk their trie with
/// the query through [`walk_paths`] instead — but it is the path-extraction
/// cost `sqbench-e2e`'s `features.paths_us` row times.
pub fn query_paths(query: &Graph, max_edges: usize) -> PathSet {
    enumerate_paths(query, max_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn labeled_path(labels: &[Label]) -> Graph {
        let mut b = GraphBuilder::new("p").vertices(labels);
        for i in 1..labels.len() {
            b = b.edge(i - 1, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_vertex_graph_has_one_feature() {
        let g = GraphBuilder::new("v").vertex(7).build().unwrap();
        let set = enumerate_paths(&g, 4);
        assert_eq!(set.len(), 1);
        let (key, occ) = set.iter().next().unwrap();
        assert_eq!(key, &path_key(&[7]));
        assert_eq!(occ.count, 1);
        assert_eq!(occ.start_vertices, vec![0]);
    }

    #[test]
    fn path_graph_features() {
        // labels 1-2-3: paths of length 0: {1},{2},{3}; length 1: (1,2),(2,3);
        // length 2: (1,2,3).
        let g = labeled_path(&[1, 2, 3]);
        let set = enumerate_paths(&g, 4);
        assert_eq!(set.len(), 6);
        // The length-1 path (1,2) occurs once in each direction.
        assert_eq!(set.get(&path_key(&[1, 2])).unwrap().count, 2);
        // The full path occurs twice (once per direction) but its canonical
        // key is shared.
        assert_eq!(set.get(&path_key(&[1, 2, 3])).unwrap().count, 2);
        // Start vertices of (1,2,3): traversals start at 0 and at 2.
        assert_eq!(
            set.get(&path_key(&[1, 2, 3])).unwrap().start_vertices,
            vec![0, 2]
        );
    }

    #[test]
    fn max_edges_limits_path_length() {
        let g = labeled_path(&[0, 1, 2, 3, 4]);
        let set = enumerate_paths(&g, 2);
        assert!(set.get(&path_key(&[0, 1, 2])).is_some());
        assert!(set.get(&path_key(&[0, 1, 2, 3])).is_none());
    }

    #[test]
    fn triangle_paths_do_not_repeat_vertices() {
        let g = GraphBuilder::new("tri")
            .vertices(&[1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let set = enumerate_paths(&g, 4);
        // Longest simple path in a triangle has 2 edges.
        assert!(set.get(&path_key(&[1, 1, 1, 1])).is_none());
        // 2-edge paths: from each start there are 2 traversals of 2 edges.
        assert_eq!(set.get(&path_key(&[1, 1, 1])).unwrap().count, 6);
    }

    #[test]
    fn same_label_paths_from_different_places_share_key() {
        // Two disjoint edges with the same labels: one key, two start sets.
        let g = GraphBuilder::new("2e")
            .vertices(&[5, 6, 5, 6])
            .edges(&[(0, 1), (2, 3)])
            .build()
            .unwrap();
        let set = enumerate_paths(&g, 3);
        let occ = set.get(&path_key(&[5, 6])).unwrap();
        assert_eq!(occ.count, 4); // two edges, two directions each
        assert_eq!(occ.start_vertices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn query_paths_matches_enumerate_paths() {
        let g = labeled_path(&[1, 2, 3, 4]);
        assert_eq!(query_paths(&g, 3), enumerate_paths(&g, 3));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let g = labeled_path(&[1, 2, 3, 4]);
        let set = enumerate_paths(&g, 3);
        assert!(set.memory_bytes() > 0);
        assert!(!set.is_empty());
    }

    #[test]
    fn zero_max_edges_yields_only_vertex_features() {
        let g = labeled_path(&[1, 2]);
        let set = enumerate_paths(&g, 0);
        assert_eq!(set.len(), 2);
        assert!(set.get(&path_key(&[1, 2])).is_none());
    }

    #[test]
    fn for_each_path_emits_every_directed_traversal() {
        let g = labeled_path(&[1, 2, 3]);
        let mut traversals: Vec<(Vec<Label>, usize)> = Vec::new();
        for_each_path(&g, 2, |labels, start| {
            traversals.push((labels.to_vec(), start));
        });
        // 3 single-vertex + 4 one-edge (two per edge) + 2 two-edge = 9.
        assert_eq!(traversals.len(), 9);
        assert!(traversals.contains(&(vec![1, 2, 3], 0)));
        assert!(traversals.contains(&(vec![3, 2, 1], 2)));
        assert!(traversals.contains(&(vec![2], 1)));
    }

    /// The cursor a traversal receives is the one its one-vertex-shorter
    /// prefix returned, and a `None` step ends the walk at once.
    #[test]
    fn walk_paths_threads_the_prefix_cursor_and_stops_on_none() {
        let g = labeled_path(&[1, 2, 3]);
        let mut traversals = 0;
        let complete = walk_paths(&g, 2, 0usize, |depth, labels, _| {
            assert_eq!(depth + 1, labels.len(), "cursor is the prefix's");
            traversals += 1;
            Some(labels.len())
        });
        assert!(complete);
        assert_eq!(traversals, 9);
        let mut steps = 0;
        let complete = walk_paths(&g, 2, (), |(), labels, _| {
            steps += 1;
            (labels != [1, 2]).then_some(())
        });
        assert!(!complete);
        assert_eq!(steps, 2, "[1], then [1, 2] stops the walk");
    }
}
