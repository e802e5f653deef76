//! Basic graph algorithms needed across the workspace: traversal,
//! connectivity and cycle detection.
//!
//! These are used by the dataset statistics (number of disconnected graphs in
//! Table 1) and by the generators (to report how many synthetic graphs are
//! trees vs. contain cycles, as discussed in §4.2 of the paper).

use crate::graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Returns the vertices of each connected component of `g`, as a vector of
/// vertex-id lists. Components are discovered in order of their smallest
/// vertex id; vertices within a component are listed in BFS order.
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut visited = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            component.push(v);
            for &w in g.neighbors(v) {
                if !visited[w] {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
        components.push(component);
    }
    components
}

/// `true` iff the graph is connected. The empty graph is considered
/// connected (it has zero components, hence no disconnection).
pub fn is_connected(g: &Graph) -> bool {
    if g.vertex_count() == 0 {
        return true;
    }
    connected_components(g).len() == 1
}

/// Breadth-first order of vertices reachable from `start`.
pub fn bfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let n = g.vertex_count();
    if start >= n {
        return Vec::new();
    }
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.neighbors(v) {
            if !visited[w] {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Depth-first order of vertices reachable from `start` (preorder, neighbors
/// visited in ascending id order).
pub fn dfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let n = g.vertex_count();
    if start >= n {
        return Vec::new();
    }
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if visited[v] {
            continue;
        }
        visited[v] = true;
        order.push(v);
        // Push in reverse so that the smallest-id neighbor is popped first.
        for &w in g.neighbors(v).iter().rev() {
            if !visited[w] {
                stack.push(w);
            }
        }
    }
    order
}

/// `true` iff the graph contains at least one cycle. For undirected graphs a
/// connected component with `|E| >= |V|` necessarily has a cycle, and a
/// forest satisfies `|E| = |V| - #components`.
pub fn has_cycle(g: &Graph) -> bool {
    let components = connected_components(g);
    let num_components = components.len();
    g.edge_count() > g.vertex_count().saturating_sub(num_components)
}

/// `true` iff the graph is a forest of simple paths (every vertex has degree
/// at most two and there are no cycles). GraphGen statistics in the paper
/// distinguish path/tree/cyclic graphs; the generators use this helper to
/// report that mix.
pub fn is_path_forest(g: &Graph) -> bool {
    !has_cycle(g) && g.vertices().all(|v| g.degree(v) <= 2)
}

/// Shortest-path distance (in edges) between `from` and `to`, or `None` if
/// they are not connected (or out of range).
pub fn bfs_distance(g: &Graph, from: VertexId, to: VertexId) -> Option<usize> {
    let n = g.vertex_count();
    if from >= n || to >= n {
        return None;
    }
    if from == to {
        return Some(0);
    }
    let mut dist = vec![usize::MAX; n];
    dist[from] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                if w == to {
                    return Some(dist[w]);
                }
                queue.push_back(w);
            }
        }
    }
    None
}

/// The diameter (longest shortest path) of the graph, computed by running a
/// BFS from every vertex. Returns 0 for graphs with fewer than two vertices
/// and `None` if the graph is disconnected.
pub fn diameter(g: &Graph) -> Option<usize> {
    let n = g.vertex_count();
    if n < 2 {
        return Some(0);
    }
    if !is_connected(g) {
        return None;
    }
    let mut best = 0usize;
    for start in 0..n {
        let mut dist = vec![usize::MAX; n];
        dist[start] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    best = best.max(dist[w]);
                    queue.push_back(w);
                }
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_triangles() -> Graph {
        GraphBuilder::new("2tri")
            .vertices(&[0, 0, 0, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .build()
            .unwrap()
    }

    fn path5() -> Graph {
        GraphBuilder::new("p5")
            .vertices(&[0, 1, 2, 3, 4])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = two_triangles();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4, 5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_of_connected_graph() {
        let g = path5();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).len(), 1);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::new("empty");
        assert!(is_connected(&g));
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn bfs_and_dfs_cover_component() {
        let g = path5();
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(dfs_order(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0, 4]);
        assert!(bfs_order(&g, 99).is_empty());
    }

    #[test]
    fn cycle_detection() {
        assert!(has_cycle(&two_triangles()));
        assert!(!has_cycle(&path5()));
        let star = GraphBuilder::new("star")
            .vertices(&[0, 1, 1, 1])
            .edges(&[(0, 1), (0, 2), (0, 3)])
            .build()
            .unwrap();
        assert!(!has_cycle(&star));
        assert!(!is_path_forest(&star)); // center has degree 3
        assert!(is_path_forest(&path5()));
    }

    #[test]
    fn distances_and_diameter() {
        let g = path5();
        assert_eq!(bfs_distance(&g, 0, 4), Some(4));
        assert_eq!(bfs_distance(&g, 2, 2), Some(0));
        assert_eq!(bfs_distance(&g, 0, 99), None);
        assert_eq!(diameter(&g), Some(4));
        assert_eq!(diameter(&two_triangles()), None);
        assert_eq!(bfs_distance(&two_triangles(), 0, 3), None);
    }
}
