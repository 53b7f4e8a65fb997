"""Mutable 4-valent port graphs behind diagram surgery.

A node is a crossing whose ports 0..3 are its PD slots, in counterclockwise
order and up to the half turn that the under-strand's direction picks: ports
0 and 2 carry the under-strand and ports 1 and 3 the over-strand.  Wires
connect ports.  Tracing a fully wired graph orients every strand, numbers
the edges consecutively along each component and emits a PD diagram, so code
that builds or mutates graphs never has to manage edge labels itself.
"""

from __future__ import annotations

from .diagram import Crossing, PlanarDiagram, KnotlabError, _face_orbits, _occurrences


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
            if port[0] not in self.nodes or port[1] not in (0, 1, 2, 3):
                raise WiringError(f"no port {port} in the graph")
        if u == v:
            raise WiringError("cannot wire a port to itself")
        if u in self.conn or v in self.conn:
            raise WiringError(f"port already wired: {u if u in self.conn else v}")
        self.conn[u] = v
        self.conn[v] = u
        self._walk = None

    def disconnect(self, u):
        if u not in self.conn:
            raise WiringError(f"port {u} is not wired")
        v = self.conn.pop(u)
        del self.conn[v]
        self._walk = None
        return v

    def remove_node(self, nid):
        if nid not in self.nodes:
            raise WiringError(f"no node {nid} in the graph")
        for p in range(4):
            if (nid, p) in self.conn:
                raise WiringError("remove_node on a wired node")
        self.nodes.remove(nid)
        self._walk = None

    def wires(self):
        """Deterministic list of wires as ordered port pairs (u < v)."""
        out = []
        for u, v in self.conn.items():
            if u < v:
                out.append((u, v))
        out.sort()
        return out

    def splice_pairs(self, removed):
        """Outside port pairs to wire together once the node set is deleted.

        Each strand entering the set is walked once, until it leaves.  Raises
        WiringError if some port of the set is never walked: a strand that
        never leaves the set would be orphaned as a crossingless loop.
        """
        walked = set()
        pairs = []
        for nid in removed:
            for p in range(4):
                start = (nid, p)
                outside = self.conn[start]
                if start in walked or outside[0] in removed:
                    continue
                cur = start
                while True:
                    out_port = (cur[0], (cur[1] + 2) % 4)
                    walked.update((cur, out_port))
                    cur = self.conn[out_port]
                    if cur[0] not in removed:
                        break
                pairs.append((outside, cur))
        if len(walked) < 4 * len(removed):
            raise WiringError("splice would strand a crossingless component")
        return pairs

    def splice_out(self, removed):
        """Delete a set of nodes, reconnecting every strand that passes through."""
        pairs = self.splice_pairs(removed)
        for nid in removed:
            for p in range(4):
                if (nid, p) in self.conn:
                    self.disconnect((nid, p))
            self.remove_node(nid)
        for a, b in pairs:
            self.connect(a, b)

    def face_walk(self):
        """(faces, port -> (face, position in it), number of wires with the
        same face on both sides), as diagram._face_orbits returns them.

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
        for _ in pd.crossings:
            g.add_node()
        for lab, pair in _occurrences(pd).items():
            if len(pair) != 2:
                raise WiringError(f"edge label {lab} does not appear exactly twice")
            g.connect(pair[0], pair[1])
        return g

    def to_diagram(self):
        """Trace strands, number edges consecutively, emit the PD diagram.

        A wire's label is kept at the port the strand enters by, and each
        crossing's slots start at the under port its node is entered by.
        Once every port is wired, under ports 0 and 2 of a node lie on one
        traced strand, so the trace enters every node at an under port.
        """
        nodes = sorted(self.nodes)
        conn = self.conn
        for nid in nodes:
            for p in range(4):
                if (nid, p) not in conn:
                    raise WiringError(f"unwired port {(nid, p)}")
        label = {}
        entered = {}
        for nid in nodes:
            for p in (0, 2, 1, 3):
                # enter a component at (nid, p) unless its wire is labeled
                port = (nid, p)
                while port not in label and conn[port] not in label:
                    label[port] = len(label) + 1
                    n, q = port
                    if q % 2 == 0:
                        entered[n] = q
                    port = conn[(n, (q + 2) % 4)]
        crossings = []
        for nid in nodes:
            u = entered[nid]
            ports = [(nid, (u + k) % 4) for k in range(4)]
            crossings.append(Crossing(*(label.get(q) or label[conn[q]] for q in ports)))
        return PlanarDiagram(tuple(crossings))
