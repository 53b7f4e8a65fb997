"""Mutable 4-valent port graphs behind diagram surgery.

A node is a crossing whose ports are its PD slots 0..3, in counterclockwise
order and up to the half turn that the under-strand's direction picks: slots
0 and 2 carry the under-strand and slots 1 and 3 the over-strand.  Port s of
node n is the int 4n + s, as in ``knotlab.diagram``: p >> 2 is its node, p & 3
its slot, p & 1 its level (odd is over) and p ^ 2 the port across.  A port
that is not a non-negative int raises WiringError.  Wires connect ports.
Tracing a fully wired graph orients every strand, numbers
the edges consecutively along each component and emits a PD diagram, so code
that builds or mutates graphs never has to manage edge labels itself.  The
face walk of a graph state is kept until the next mutation; its face_of list,
indexed by port, holds -1 at the ports of removed nodes.  Node ids are never
reused, so ``compact`` renumbers them in order once most ids are unused.
"""

from __future__ import annotations

from .diagram import Crossing, PlanarDiagram, KnotlabError, _diagram, _face_orbits, _occurrences


class WiringError(KnotlabError):
    pass


class StrandGraph:
    """Nodes and wires, mutated only through the methods below.

    The face walk is remembered until the next mutation, so every move kind
    enumerated on one graph state reads the same walk.
    """

    def __init__(self):
        self.nodes = set()
        self.conn = {}
        self._next = 0
        self._walk = None

    def add_node(self):
        nid = self._next
        self._next += 1
        self.nodes.add(nid)
        self._walk = None
        return nid

    def connect(self, u, v):
        for port in (u, v):
            if port.__class__ is not int or port < 0:
                raise _malformed(port)
            if port >> 2 not in self.nodes:
                raise WiringError(f"no port {_named(port)} in the graph")
        if u == v:
            raise WiringError("cannot wire a port to itself")
        if u in self.conn or v in self.conn:
            raise WiringError(f"port already wired: {_named(u if u in self.conn else v)}")
        self.conn[u] = v
        self.conn[v] = u
        self._walk = None

    def disconnect(self, u):
        if u.__class__ is not int or u < 0:
            raise _malformed(u)
        if u not in self.conn:
            raise WiringError(f"port {_named(u)} is not wired")
        v = self.conn.pop(u)
        del self.conn[v]
        self._walk = None
        return v

    def remove_node(self, nid):
        if nid not in self.nodes:
            raise WiringError(f"no node {nid} in the graph")
        for p in range(4 * nid, 4 * nid + 4):
            if p in self.conn:
                raise WiringError("remove_node on a wired node")
        self.nodes.remove(nid)
        self._walk = None

    def compact(self):
        """Renumber the nodes 0, 1, ... in their order once removed nodes
        leave more than half of the ids unused, so a face walk's face_of
        stays within twice the live ports however many nodes came and went.

        Ports keep their order, so every sorted listing and every traced
        diagram is unchanged; ports held from before it are stale.
        """
        if self._next <= 2 * len(self.nodes):
            return
        rank = {nid: k for k, nid in enumerate(sorted(self.nodes))}
        self.conn = {
            4 * rank[u >> 2] + (u & 3): 4 * rank[v >> 2] + (v & 3) for u, v in self.conn.items()
        }
        self.nodes = set(rank.values())
        self._next = len(rank)
        self._walk = None

    def wires(self):
        """Deterministic list of wires as ordered port pairs (u < v)."""
        return sorted([(u, v) for u, v in self.conn.items() if u < v])

    def splice_pairs(self, removed):
        """Outside port pairs to wire together once the node set is deleted.

        Each strand entering the set is walked once, until it leaves.  Raises
        WiringError on a node not in the graph or a port of the set left
        unwired, and if some port of the set is never walked: a strand that
        never leaves the set would be orphaned as a crossingless loop.
        """
        conn = self.conn
        walked = set()
        pairs = []
        try:
            for nid in removed:
                for start in range(4 * nid, 4 * nid + 4):
                    outside = conn[start]
                    if start in walked or outside >> 2 in removed:
                        continue
                    cur = start
                    while True:
                        out_port = cur ^ 2
                        walked.update((cur, out_port))
                        cur = conn[out_port]
                        if cur >> 2 not in removed:
                            break
                    pairs.append((outside, cur))
        except KeyError as e:
            # caught, not checked first: moves._sweep probes every bigon here
            port = e.args[0]
            if port >> 2 not in self.nodes:
                raise WiringError(f"no node {port >> 2} in the graph") from None
            raise WiringError(f"port {_named(port)} is not wired") from None
        if len(walked) < 4 * len(removed):
            raise WiringError("splice would strand a crossingless component")
        return pairs

    def splice_out(self, removed):
        """Delete a set of nodes, reconnecting every strand that passes through."""
        pairs = self.splice_pairs(removed)
        for nid in removed:
            for p in range(4 * nid, 4 * nid + 4):
                if p in self.conn:
                    self.disconnect(p)
            self.remove_node(nid)
        for a, b in pairs:
            self.connect(a, b)

    def face_walk(self):
        """(faces, face_of, number of wires with the same face on both
        sides), as diagram._face_orbits returns them: face_of[port] is the
        port's face, and -1 at the ports of removed nodes.

        Walked once per graph state; callers must not mutate the result.
        """
        if self._walk is None:
            self._walk = _face_orbits(self.conn, sorted(self.nodes))
        return self._walk

    def faces(self):
        """Face orbits of the rotation system as tuples of departure ports."""
        return self.face_walk()[0]

    @classmethod
    def from_diagram(cls, pd):
        g = cls()
        for _ in _diagram(pd).crossings:
            g.add_node()
        for lab, pair in _occurrences(pd).items():
            if len(pair) != 2:
                raise WiringError(f"edge label {lab} does not appear exactly twice")
            u, v = pair
            g.conn[u] = v
            g.conn[v] = u
        return g

    def to_diagram(self):
        """Trace strands, number edges consecutively, emit the PD diagram.

        A wire's label is kept at the port the strand enters by, in a list
        indexed by port up to the largest node id, and each crossing's slots
        start at the under port its node is entered by.
        Once every port is wired, under ports 0 and 2 of a node lie on one
        traced strand, so the trace enters every node at an under port.
        """
        nodes = sorted(self.nodes)
        conn = self.conn
        for nid in nodes:
            for p in range(4 * nid, 4 * nid + 4):
                if p not in conn:
                    raise WiringError(f"unwired port {_named(p)}")
        label = [0] * (4 * nodes[-1] + 4 if nodes else 0)  # by port; 0 is unlabeled
        n = 0
        for nid in nodes:
            b = 4 * nid
            for port in (b, b + 2, b + 1, b + 3):
                # enter a component at port unless its wire is labeled
                while not label[port] and not label[conn[port]]:
                    n += 1
                    label[port] = n
                    port = conn[port ^ 2]
        crossings = []
        for nid in nodes:
            b = 4 * nid
            u = b if label[b] else b + 2  # the under port the node is entered by
            w = u ^ 2
            # slots u, u + 1, w, w + 1; the under wires are labeled where they enter
            crossings.append(
                Crossing(
                    label[u],
                    label[u + 1] or label[conn[u + 1]],
                    label[conn[w]],
                    label[w + 1] or label[conn[w + 1]],
                )
            )
        return PlanarDiagram(tuple(crossings))


def _named(port):
    return f"{port} (node {port >> 2}, slot {port & 3})"


def _malformed(port):
    return WiringError(f"malformed port {port!r}: a port is a non-negative int 4 * node + slot")
