"""Abstract branched-surface models and laminarity certificates.

A model records sectors with Euler characteristics, branch curves with
merge/sheet incidences and co-orientation relations, horizontal boundary
components, and compressing disks.  No embedding data is kept: the
machine-checkable content is the branch-equation system, the transverse
orientability constraint graph, and the boundary/disk bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple

from .diagram import KnotlabError, _ParityUnionFind, _validated_make


class ModelError(KnotlabError):
    pass


_RELATIONS = ("same", "opposite")


# int() would truncate 1.5 and read "1", so a count that is not an int is refused.
def _check_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{what} must be an int, not {value!r}")


class BranchCurve(
    namedtuple("BranchCurve", "id merged_side sheet_sides self_intersections orientation_relation")
):
    """One branch curve: two sheets merging into one side of the locus."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, id, merged_side, sheet_sides, self_intersections, orientation_relation):
        self = super().__new__(cls, id, merged_side, tuple(sheet_sides), self_intersections,
                               tuple(orientation_relation))
        if len(self.sheet_sides) != 2 or len(self.orientation_relation) != 2:
            raise ModelError(f"curve {self.id}: need two sheet sides and two relations")
        if any(r not in _RELATIONS for r in self.orientation_relation):
            raise ModelError(f"curve {self.id}: relations must be 'same' or 'opposite'")
        _check_int(self.self_intersections, f"curve {self.id}: self-intersection count")
        if self.self_intersections < 0:
            raise ModelError(f"curve {self.id}: negative self-intersection count")
        return self


class BranchedSurfaceModel(
    namedtuple(
        "BranchedSurfaceModel", "sectors branch_curves horizontal_boundary compressing_disks"
    )
):
    __slots__ = ()
    _make = _validated_make

    def __new__(cls, sectors, branch_curves, horizontal_boundary, compressing_disks):
        model = super().__new__(
            cls,
            tuple((str(i), c) for i, c in sectors),
            tuple(branch_curves),
            tuple((str(i), g, n) for i, g, n in horizontal_boundary),
            tuple((str(d), str(b)) for d, b in compressing_disks),
        )
        _check(model)
        return model

    def sector_ids(self):
        return [i for i, _ in self.sectors]

    def euler_characteristic(self):
        """Branch curves are circles, so the sectors carry all of chi."""
        return sum(c for _, c in self.sectors)


def _curve_sides(model):
    """The ids of the sectors some branch curve has as a side."""
    return {s for c in model.branch_curves for s in (c.merged_side, *c.sheet_sides)}


def _check(model):
    ids = model.sector_ids()
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate sector ids")
    known = set(ids)
    curve_ids = [c.id for c in model.branch_curves]
    if len(set(curve_ids)) != len(curve_ids):
        raise ModelError("duplicate curve ids")
    for c in model.branch_curves:
        for s in (c.merged_side, *c.sheet_sides):
            if s not in known:
                raise ModelError(f"curve {c.id} references unknown sector {s}")
    # a sector is a connected surface (chi <= 2) with boundary along each branch
    # curve it is a side of (chi <= 1)
    sided = _curve_sides(model)
    for sid, chi in model.sectors:
        _check_int(chi, f"sector {sid}: chi")
        if chi > 2:
            raise ModelError(f"sector {sid}: chi {chi} > 2 on a connected surface")
        if chi > 1 and sid in sided:
            raise ModelError(f"sector {sid}: chi {chi} > 1 on a side of a branch curve")
    bids = [b for b, _, _ in model.horizontal_boundary]
    if len(set(bids)) != len(bids):
        raise ModelError("duplicate boundary component ids")
    for bid, genus, circles in model.horizontal_boundary:
        _check_int(genus, f"boundary component {bid}: genus")
        _check_int(circles, f"boundary component {bid}: circle count")
        if genus < 0 or circles < 0:
            raise ModelError(f"boundary component {bid}: negative genus or circle count")
    disks = [d for d, _ in model.compressing_disks]
    if len(set(disks)) != len(disks):
        raise ModelError("duplicate disk ids")
    for disk, comp in model.compressing_disks:
        if comp not in set(bids):
            raise ModelError(f"disk {disk} lies on unknown boundary component {comp}")


def build_bf(g):
    """Single-sector model: genus-g spanning surface with a tube and a fold.

    One sector of chi = -1 - 2g, one embedded branch curve whose two sheets
    both return to the sector with matching co-orientations, and a horizontal
    boundary of two once-punctured genus-(g+1) components, each compressible
    by its own disk.
    """
    _check_int(g, "genus")
    if g < 0:
        raise ModelError(f"genus must be nonnegative, got {g}")
    return BranchedSurfaceModel(
        sectors=[("S0", -1 - 2 * g)],
        branch_curves=[BranchCurve("G", "S0", ("S0", "S0"), 0, ("same", "same"))],
        horizontal_boundary=[("F+", g + 1, 1), ("F-", g + 1, 1)],
        compressing_disks=[("D+", "F+"), ("D-", "F-")],
    )


def branch_equations(model):
    """One integer row per branch curve: weight(merged) - the two sheet weights."""
    index = {sid: k for k, sid in enumerate(model.sector_ids())}
    rows = []
    for c in model.branch_curves:
        row = [0] * len(index)
        row[index[c.merged_side]] += 1
        for s in c.sheet_sides:
            row[index[s]] -= 1
        rows.append(row)
    return rows


# Fourier-Motzkin can square the inequality count at each step.  Models of 3-5
# sectors peak below 500 inequalities and 5-sector 4-curve models near 24k;
# 7-sector 7-curve models run for minutes past this bound.
MAX_INEQUALITIES = 50_000
# The starting system has two inequalities per curve and one per sector, each
# of sectors + 1 coefficients, so it grows as the square of the sector count;
# a larger one is refused before it is built.
MAX_COEFFICIENTS = 1_000_000


def _feasible_positive(rows, n):
    """Exact check: does `rows * w = 0` admit a strictly positive rational w?

    Positivity is scale-invariant, so w_i >= 1 is imposed and the system is
    decided by Fourier-Motzkin elimination.  Each inequality is one integer
    list [a_1, ..., a_n, c] read as a.w + c >= 0; eliminating w_k only
    multiplies rows by positive integers and adds them, so no step divides.
    Raises ModelError when an elimination step would exceed MAX_INEQUALITIES.
    """
    ineqs = []
    for r in rows:
        ineqs.append(r + [0])
        ineqs.append([-c for c in r] + [0])
    for i in range(n):
        ineqs.append([1 if j == i else 0 for j in range(n)] + [-1])
    for k in range(n):
        pos, neg, rest = [], [], []
        for ineq in ineqs:
            if ineq[k] > 0:
                pos.append(ineq)
            elif ineq[k] < 0:
                neg.append(ineq)
            else:
                rest.append(ineq)
        size = len(rest) + len(pos) * len(neg)
        if size > MAX_INEQUALITIES:
            raise ModelError(
                f"branch equations too large: eliminating sector {k + 1} of {n} "
                f"needs {size} inequalities (limit {MAX_INEQUALITIES})"
            )
        for p in pos:
            for q in neg:
                rest.append([p[k] * x - q[k] * y for x, y in zip(q, p)])
        ineqs = rest
    return all(ineq[n] >= 0 for ineq in ineqs)


def carries_closed_surface(model):
    """True iff the branch equations admit a strictly positive solution.

    A sector that no curve touches has a zero column, so w = 1 serves it:
    only the sectors on curves are eliminated, and a model with sectors but
    no curves carries a surface.  Raises ModelError when the starting system
    of the whole model would exceed MAX_COEFFICIENTS.
    """
    n, m = len(model.sectors), len(model.branch_curves)
    size = (2 * m + n) * (n + 1)
    if size > MAX_COEFFICIENTS:
        raise ModelError(
            f"branch equations too large: {n} sectors and {m} curves "
            f"need {size} coefficients (limit {MAX_COEFFICIENTS})"
        )
    if not m:
        return n > 0
    rows = branch_equations(model)
    sided = _curve_sides(model)
    keep = [k for k, sid in enumerate(model.sector_ids()) if sid in sided]
    rows = [[row[k] for k in keep] for row in rows]
    return _feasible_positive(rows, len(keep))


def transversely_orientable(model):
    """2-color the sectors so every branch relation is satisfied.

    Union-find with parity: 'opposite' edges flip the coloring, 'same' edges
    preserve it; the model is orientable iff no constraint cycle is odd.
    """
    index = {sid: k for k, sid in enumerate(model.sector_ids())}
    uf = _ParityUnionFind(len(index))
    for c in model.branch_curves:
        for sheet, rel in zip(c.sheet_sides, c.orientation_relation):
            if not uf.union(index[c.merged_side], index[sheet], rel == "opposite"):
                return False
    return True


_STANDING_NOTE = (
    "monogon, Reeb-component, and surgery conditions hold by construction "
    "for this model shape and are not independently re-checked"
)
_MULTI_SECTOR_NOTE = (
    "disk-of-contact detection is not implemented for multi-sector models; "
    "the no-positive-solution check covers the single-sector case only"
)


class CertificateReport(
    namedtuple(
        "CertificateReport",
        "branch_curve_embedded carries_no_closed_surface transversely_orientable "
        "disks_on_distinct_components incompressibility_certified verdict notes",
    )
):
    __slots__ = ()

    def flags(self):
        return (
            self.branch_curve_embedded,
            self.carries_no_closed_surface,
            self.transversely_orientable,
            self.disks_on_distinct_components,
            self.incompressibility_certified,
        )


def persistence_certificate(model, incompressibility_certified):
    """Assemble the laminarity certificate for a model.

    The four combinatorial checks are computed here; incompressibility of the
    underlying spanning surface is an input flag supplied by its own
    certificate.  Verdict: 'persistently-laminar' iff all five hold,
    'essential-only-unknown' if only the input flag is missing, else 'fails'.
    """
    embedded = all(c.self_intersections == 0 for c in model.branch_curves)
    no_closed = not carries_closed_surface(model)
    orientable = transversely_orientable(model)
    comps = [c for _, c in model.compressing_disks]
    distinct = len(comps) >= 2 and len(set(comps)) == len(comps)
    notes = [_STANDING_NOTE]
    if len(model.sectors) > 1:
        notes.append(_MULTI_SECTOR_NOTE)
    combinatorial = embedded and no_closed and orientable and distinct
    if combinatorial and incompressibility_certified:
        verdict = "persistently-laminar"
    elif combinatorial:
        verdict = "essential-only-unknown"
    else:
        verdict = "fails"
    return CertificateReport(
        branch_curve_embedded=embedded,
        carries_no_closed_surface=no_closed,
        transversely_orientable=orientable,
        disks_on_distinct_components=distinct,
        incompressibility_certified=bool(incompressibility_certified),
        verdict=verdict,
        notes=tuple(notes),
    )


def serialize_model(model):
    lines = []
    for sid, chi in model.sectors:
        lines.append(f"sector {sid} {chi}")
    for c in model.branch_curves:
        s1, s2 = c.sheet_sides
        r1, r2 = c.orientation_relation
        lines.append(f"curve {c.id} {c.merged_side} {s1} {s2} {r1} {r2} {c.self_intersections}")
    for bid, genus, circles in model.horizontal_boundary:
        lines.append(f"boundary {bid} {genus} {circles}")
    for disk, comp in model.compressing_disks:
        lines.append(f"disk {disk} {comp}")
    return "\n".join(lines) + "\n"


def parse_model(text):
    if not isinstance(text, str):
        raise ModelError(f"model text must be a str, not {type(text).__name__}")
    sectors, curves, boundary, disks = [], [], [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "sector":
                sid, chi = args
                sectors.append((sid, int(chi)))
            elif kind == "curve":
                cid, merged, s1, s2, r1, r2, xings = args
                curves.append(BranchCurve(cid, merged, (s1, s2), int(xings), (r1, r2)))
            elif kind == "boundary":
                bid, genus, circles = args
                boundary.append((bid, int(genus), int(circles)))
            elif kind == "disk":
                disk, comp = args
                disks.append((disk, comp))
            else:
                raise ModelError(f"line {ln}: unknown record '{kind}'")
        except ValueError as e:
            raise ModelError(f"line {ln}: cannot parse '{line}'") from e
    return BranchedSurfaceModel(sectors, curves, boundary, disks)
