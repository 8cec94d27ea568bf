"""Dinic max flow on integer capacities.

Capacities and flows are exact Python ints (scaled rationals upstream), so
feasibility answers are exact.  Each phase walks the level graph with an
explicit path stack, so an augmenting path may be as long as the network.
"""

from __future__ import annotations

from collections import deque


class Dinic:
    def __init__(self, num_nodes):
        self.n = num_nodes
        self.head = [[] for _ in range(num_nodes)]  # node -> arc ids
        self.to = []
        self.cap = []

    def add_edge(self, u, v, cap):
        """Add arc u->v with the given capacity; returns its arc id."""
        arc = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(arc)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(arc + 1)
        return arc

    def flow_on(self, arc):
        """Flow pushed through arc = capacity now sitting on its reverse."""
        return self.cap[arc ^ 1]

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self.head[u]:
                v = self.to[arc]
                if self.cap[arc] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _blocking_flow(self, s, t):
        """Saturate the level graph: walk current arcs from s, retreat from a
        dead end and advance the parent's arc, push each path's bottleneck at
        t and resume from the tail of its first saturated arc."""
        head, to, cap, level = self.head, self.to, self.cap, self.level
        next_arc = [0] * self.n
        path, total, u = [], 0, s  # path: the arc ids from s to u
        while True:
            if u == t:
                pushed = min([cap[arc] for arc in path])
                for arc in path:
                    cap[arc] -= pushed
                    cap[arc ^ 1] += pushed
                total += pushed
                del path[[cap[arc] for arc in path].index(0):]
                u = to[path[-1]] if path else s
                continue
            arcs, i, up = head[u], next_arc[u], level[u] + 1
            while i < len(arcs) and (cap[arcs[i]] == 0 or level[to[arcs[i]]] != up):
                i += 1
            next_arc[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                u = to[path.pop() ^ 1]
                next_arc[u] += 1
            else:
                return total

    def max_flow(self, s, t):
        total = 0
        while self._bfs(s, t):
            total += self._blocking_flow(s, t)
        return total

    def min_cut_source_side(self, s):
        """Nodes reachable from s in the residual network (call after max_flow)."""
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self.head[u]:
                v = self.to[arc]
                if self.cap[arc] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return {v for v in range(self.n) if seen[v]}
