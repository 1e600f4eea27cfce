//! Residual flow network with Dinic's and Edmonds–Karp max-flow.

use std::collections::VecDeque;

/// Sentinel capacity for edges that must never be cut.
///
/// Large enough to dominate any real cost, small enough that summing many
/// such capacities cannot overflow a `u64` (we additionally saturate).
pub const CAP_INF: u64 = 1 << 60;

/// A directed edge in the residual graph.
#[derive(Debug, Clone)]
struct Edge {
    /// Target vertex.
    to: u32,
    /// Remaining capacity.
    cap: u64,
}

/// A flow network over vertices `0..n` with integer capacities.
///
/// Edges are stored in a flat arena; edge `i` and its reverse edge `i ^ 1`
/// are adjacent so residual updates are branch-free. Vertices are plain
/// `usize` indices — callers map their domain objects onto them.
///
/// ```
/// use helix_mincut::FlowNetwork;
/// let mut net = FlowNetwork::new(4);
/// let (s, a, b, t) = (0, 1, 2, 3);
/// net.add_edge(s, a, 3);
/// net.add_edge(s, b, 2);
/// net.add_edge(a, t, 2);
/// net.add_edge(b, t, 3);
/// net.add_edge(a, b, 1);
/// let result = net.dinic(s, t);
/// assert_eq!(result.max_flow, 5);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// `adj[v]` lists indices into `edges`.
    adj: Vec<Vec<u32>>,
    edges: Vec<Edge>,
    /// Original capacity of each edge (for flow reporting).
    orig_cap: Vec<u64>,
}

/// Result of a max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowResult {
    /// Value of the maximum flow == capacity of the minimum cut.
    pub max_flow: u64,
    /// `true` for vertices reachable from the source in the final residual
    /// graph, i.e. the source side of a minimum cut.
    pub source_side: Vec<bool>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            orig_cap: Vec::new(),
        }
    }

    /// Adds a directed edge `from -> to` with capacity `cap`, plus its
    /// residual reverse edge. Returns an identifier usable with
    /// [`FlowNetwork::flow_on`].
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> usize {
        assert!(from < self.adj.len(), "`from` vertex {from} out of range");
        assert!(to < self.adj.len(), "`to` vertex {to} out of range");
        let id = self.edges.len();
        self.edges.push(Edge { to: to as u32, cap });
        self.edges.push(Edge {
            to: from as u32,
            cap: 0,
        });
        self.adj[from].push(id as u32);
        self.adj[to].push(id as u32 + 1);
        self.orig_cap.push(cap);
        self.orig_cap.push(0);
        id
    }

    /// Flow currently routed through the forward edge returned by
    /// [`FlowNetwork::add_edge`] (only meaningful after running a max-flow).
    pub fn flow_on(&self, edge_id: usize) -> u64 {
        self.orig_cap[edge_id] - self.edges[edge_id].cap
    }

    /// Computes a maximum `source -> sink` flow with Dinic's algorithm and
    /// returns the flow value together with the source side of a min cut.
    ///
    /// Consumes the residual state: calling it twice on the same instance
    /// returns `0` the second time. Clone the network first if needed.
    pub fn dinic(&mut self, source: usize, sink: usize) -> MaxFlowResult {
        assert_ne!(source, sink, "source and sink must differ");
        let n = self.adj.len();
        let mut level = vec![-1i32; n];
        let mut iter = vec![0usize; n];
        let mut total: u64 = 0;

        while self.bfs_levels(source, sink, &mut level) {
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs_augment(source, sink, u64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total = total.saturating_add(pushed);
            }
        }

        // After termination `level` holds -1 exactly for vertices unreachable
        // from the source in the residual graph; recompute for clarity.
        let mut source_side = vec![false; n];
        self.residual_reachable(source, &mut source_side);
        MaxFlowResult {
            max_flow: total,
            source_side,
        }
    }

    /// Computes a maximum flow with the Edmonds–Karp algorithm (BFS
    /// augmenting paths). Slower than [`FlowNetwork::dinic`]; retained as an
    /// independent implementation for differential testing.
    pub fn edmonds_karp(&mut self, source: usize, sink: usize) -> MaxFlowResult {
        assert_ne!(source, sink, "source and sink must differ");
        let n = self.adj.len();
        let mut total: u64 = 0;
        // `parent_edge[v]` = edge index used to reach v on the BFS path.
        let mut parent_edge = vec![u32::MAX; n];

        loop {
            parent_edge.iter_mut().for_each(|p| *p = u32::MAX);
            let mut queue = VecDeque::new();
            queue.push_back(source as u32);
            let mut seen = vec![false; n];
            seen[source] = true;
            'bfs: while let Some(v) = queue.pop_front() {
                for &eid in &self.adj[v as usize] {
                    let e = &self.edges[eid as usize];
                    if e.cap > 0 && !seen[e.to as usize] {
                        seen[e.to as usize] = true;
                        parent_edge[e.to as usize] = eid;
                        if e.to as usize == sink {
                            break 'bfs;
                        }
                        queue.push_back(e.to);
                    }
                }
            }
            if !seen[sink] {
                break;
            }
            // Find bottleneck along the path, then augment.
            let mut bottleneck = u64::MAX;
            let mut v = sink;
            while v != source {
                let eid = parent_edge[v] as usize;
                bottleneck = bottleneck.min(self.edges[eid].cap);
                v = self.edges[eid ^ 1].to as usize;
            }
            let mut v = sink;
            while v != source {
                let eid = parent_edge[v] as usize;
                self.edges[eid].cap -= bottleneck;
                self.edges[eid ^ 1].cap = self.edges[eid ^ 1].cap.saturating_add(bottleneck);
                v = self.edges[eid ^ 1].to as usize;
            }
            total = total.saturating_add(bottleneck);
        }

        let mut source_side = vec![false; n];
        self.residual_reachable(source, &mut source_side);
        MaxFlowResult {
            max_flow: total,
            source_side,
        }
    }

    /// BFS computing level graph; returns whether the sink is reachable.
    fn bfs_levels(&self, source: usize, sink: usize, level: &mut [i32]) -> bool {
        level.iter_mut().for_each(|l| *l = -1);
        level[source] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source as u32);
        while let Some(v) = queue.pop_front() {
            for &eid in &self.adj[v as usize] {
                let e = &self.edges[eid as usize];
                if e.cap > 0 && level[e.to as usize] < 0 {
                    level[e.to as usize] = level[v as usize] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        level[sink] >= 0
    }

    /// Iterative DFS sending one blocking-path augmentation.
    fn dfs_augment(
        &mut self,
        source: usize,
        sink: usize,
        limit: u64,
        level: &[i32],
        iter: &mut [usize],
    ) -> u64 {
        // Explicit stack of (vertex, flow limit) avoids recursion on deep DAGs.
        let mut path: Vec<u32> = Vec::new(); // edge ids along the current path
        let mut v = source;
        let mut _limit = limit;
        loop {
            if v == sink {
                // Bottleneck over the path.
                let bottleneck = path
                    .iter()
                    .map(|&eid| self.edges[eid as usize].cap)
                    .min()
                    .unwrap_or(0);
                for &eid in &path {
                    self.edges[eid as usize].cap -= bottleneck;
                    let rev = (eid ^ 1) as usize;
                    self.edges[rev].cap = self.edges[rev].cap.saturating_add(bottleneck);
                }
                return bottleneck;
            }
            let mut advanced = false;
            while iter[v] < self.adj[v].len() {
                let eid = self.adj[v][iter[v]];
                let e = &self.edges[eid as usize];
                if e.cap > 0 && level[e.to as usize] == level[v] + 1 {
                    path.push(eid);
                    v = e.to as usize;
                    advanced = true;
                    break;
                }
                iter[v] += 1;
            }
            if advanced {
                continue;
            }
            // Dead end: retreat. Mark this vertex exhausted for this phase.
            if v == source {
                return 0;
            }
            let eid = path
                .pop()
                .expect("non-source dead end must have a path edge");
            let prev = self.edges[(eid ^ 1) as usize].to as usize;
            iter[prev] += 1;
            v = prev;
        }
    }

    /// Marks vertices reachable from `source` through positive-capacity
    /// residual edges.
    fn residual_reachable(&self, source: usize, out: &mut [bool]) {
        let mut queue = VecDeque::new();
        queue.push_back(source as u32);
        out[source] = true;
        while let Some(v) = queue.pop_front() {
            for &eid in &self.adj[v as usize] {
                let e = &self.edges[eid as usize];
                if e.cap > 0 && !out[e.to as usize] {
                    out[e.to as usize] = true;
                    queue.push_back(e.to);
                }
            }
        }
    }
}
