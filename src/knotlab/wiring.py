"""Mutable 4-valent port graphs behind diagram surgery.

A node is a crossing with ports 0..3 in counterclockwise order; one opposite
port pair carries the over-strand (ports 1,3 unless over_vertical).  Wires
connect ports.  Tracing a fully wired graph orients every strand, numbers the
edges consecutively along each component and emits a PD diagram, so code that
builds or mutates graphs never has to manage edge labels itself.
"""

from __future__ import annotations

from .diagram import Crossing, PlanarDiagram, KnotlabError, _face_orbits, _occurrences


class WiringError(KnotlabError):
    pass


class StrandGraph:
    """Nodes and wires, mutated only through the methods below.

    The face trace is remembered until the next mutation, so every move kind
    enumerated on one graph state reads the same trace.
    """

    def __init__(self):
        self.over_vertical = {}
        self.conn = {}
        self._next = 0
        self._faces = None

    def add_node(self, over_vertical=False):
        nid = self._next
        self._next += 1
        self.over_vertical[nid] = over_vertical
        self._faces = None
        return nid

    def connect(self, u, v):
        if u == v:
            raise WiringError("cannot wire a port to itself")
        if u in self.conn or v in self.conn:
            raise WiringError(f"port already wired: {u if u in self.conn else v}")
        self.conn[u] = v
        self.conn[v] = u
        self._faces = None

    def disconnect(self, u):
        v = self.conn.pop(u)
        del self.conn[v]
        self._faces = None
        return v

    def remove_node(self, nid):
        for p in range(4):
            if (nid, p) in self.conn:
                raise WiringError("remove_node on a wired node")
        del self.over_vertical[nid]
        self._faces = None

    def wires(self):
        """Deterministic list of wires as ordered port pairs (u < v)."""
        out = []
        for u, v in self.conn.items():
            if u < v:
                out.append((u, v))
        out.sort()
        return out

    def under_pair(self, nid):
        return (1, 3) if self.over_vertical[nid] else (0, 2)

    def over_pair(self, nid):
        return (0, 2) if self.over_vertical[nid] else (1, 3)

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

    def faces(self):
        """Face orbits of the rotation system as tuples of departure ports.

        Traced once per graph state; callers must not mutate the list.
        """
        if self._faces is None:
            self._faces = _face_orbits(self.conn, sorted(self.over_vertical))
        return self._faces

    @classmethod
    def from_diagram(cls, pd):
        g = cls()
        for _ in pd.crossings:
            g.add_node(False)
        for lab, pair in _occurrences(pd).items():
            if len(pair) != 2:
                raise WiringError(f"edge label {lab} does not appear exactly twice")
            g.connect(pair[0], pair[1])
        return g

    def to_diagram(self):
        """Trace strands, number edges consecutively, emit the PD diagram."""
        nodes = sorted(self.over_vertical)
        for nid in nodes:
            for p in range(4):
                if (nid, p) not in self.conn:
                    raise WiringError(f"unwired port {(nid, p)}")
        label = {}
        head_of = {}

        def wire_key(u):
            v = self.conn[u]
            return (u, v) if u < v else (v, u)

        next_label = 1
        for nid in nodes:
            start_ports = self.under_pair(nid) + self.over_pair(nid)
            for p0 in start_ports:
                w0 = wire_key((nid, p0))
                if w0 in label:
                    continue
                # enter the component at (nid, p0); the wire feeding that port
                # becomes the first edge of the component
                label[w0] = next_label
                head_of[w0] = (nid, p0)
                next_label += 1
                cur = (nid, p0)
                while True:
                    out_port = (cur[0], (cur[1] + 2) % 4)
                    w = wire_key(out_port)
                    if w in label:
                        break
                    label[w] = next_label
                    nxt = self.conn[out_port]
                    head_of[w] = nxt
                    next_label += 1
                    cur = nxt
        crossings = []
        for nid in nodes:
            up = self.under_pair(nid)
            unders_in = [p for p in up if head_of[wire_key((nid, p))] == (nid, p)]
            if len(unders_in) != 1:
                raise WiringError(f"node {nid}: strand trace inconsistent")
            u = unders_in[0]
            slots = [label[wire_key((nid, (u + k) % 4))] for k in range(4)]
            crossings.append(Crossing(*slots))
        return PlanarDiagram(tuple(crossings))
