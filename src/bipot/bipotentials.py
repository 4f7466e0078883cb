"""Syncs, bipotentials, their graphs, axioms, and cyclic monotonicity.

A bipotential b(x, y) is separately convex and lsc, dominates the duality
product, and satisfies the three-way equivalence between the two
subdifferential inclusions and equality b = <x, y>; its graph M(b) is the
equality set. b is a bipotential iff c = b - <x, y> is a sync (nonnegative,
separately convex, attained slice minima equal to 0), and the two standard
constructions are the separable one, phi(x) + phi*(y), and the degenerate
one, <x, y> + indicator of a BB-graph.

On finite grids every section is closed, so the bi-closed half of the
BB-graph definition holds vacuously; the checkers note this instead of
testing it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .convexity import _set_scan, first_nonconvex, is_convex
from .errors import FormatError, InvalidInputError, require_tol
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction, _open_csv
from .legendre import conjugate
from .report import CheckReport, failing, passing
from .windows import _pair_tiles, chebyshev_dilate

CLOSEDNESS_NOTE = "bi-closed: vacuously true on a finite grid"

# residuals between tol and BAND*tol are treated as borderline rather than
# as decisive (non-)membership, so the three-way equivalence is not failed
# by knife-edge rounding at the tolerance boundary
_BAND = 3.0

# tuples that check_cyclically_monotone enumerates at most: 8 points at
# n_max = 8 are 19.2M, 3.7 s on a 2-core x86 VM; 10 points are 1.1e10
_CYCLE_TUPLES = 25_000_000


@dataclass(frozen=True)
class GraphSet:
    """A set of (x-node, y-node) pairs, stored as a boolean mask."""

    xgrid: Grid
    ygrid: Grid
    mask: np.ndarray

    def __post_init__(self):
        if self.xgrid.dim != self.ygrid.dim:
            raise InvalidInputError("x-grid and y-grid must have the same dimension")
        m = np.asarray(self.mask)
        if m.dtype != bool or m.shape != self.xgrid.shape + self.ygrid.shape:
            raise InvalidInputError("mask must be boolean with shape x-shape + y-shape")
        if m.flags.writeable:
            m = m.copy()
            m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_pairs(cls, xgrid: Grid, ygrid: Grid, pairs) -> "GraphSet":
        mask = np.zeros(xgrid.shape + ygrid.shape, dtype=bool)
        for xi, yi in pairs:
            xi = (xi,) if np.isscalar(xi) else tuple(xi)
            yi = (yi,) if np.isscalar(yi) else tuple(yi)
            mask[xi + yi] = True
        return cls(xgrid, ygrid, mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def to_csv(self, path) -> None:
        """Flat `x_index,y_index` rows plus grid metadata comment lines."""
        def gline(tag, g):
            lo = " ".join(repr(v) for v in g.lo)
            hi = " ".join(repr(v) for v in g.hi)
            n = " ".join(str(v) for v in g.n)
            return f"# {tag} lo={lo} hi={hi} n={n}\n"

        ny = self.ygrid.size
        flat = np.flatnonzero(self.mask.reshape(-1))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# bipot-graph v1\n")
            fh.write(gline("xgrid", self.xgrid))
            fh.write(gline("ygrid", self.ygrid))
            fh.write("x_index,y_index\n")
            for f in flat:
                fh.write(f"{f // ny},{f % ny}\n")

    @classmethod
    def read_csv(cls, path) -> "GraphSet":
        def parse_grid(line, lineno):
            # `# tag lo=... hi=... n=...`: a value runs up to the next key,
            # so a 2-D grid reads `lo=-2.0 -2.0 hi=2.0 2.0 n=5 5`
            fields, key = {}, None
            try:
                for tok in line.split()[2:]:
                    if "=" in tok:
                        key, tok = tok.split("=", 1)
                        fields[key] = tok
                    else:
                        fields[key] += " " + tok
                lo = tuple(float(v) for v in fields["lo"].split())
                hi = tuple(float(v) for v in fields["hi"].split())
                n = tuple(int(v) for v in fields["n"].split())
            except (KeyError, ValueError):
                raise FormatError("malformed grid metadata", line=lineno) from None
            return Grid(lo, hi, n)

        with _open_csv(path) as fh:
            head = [fh.readline() for _ in range(4)]
            if "" in head or not head[0].startswith("# bipot-graph"):
                raise FormatError("missing '# bipot-graph' metadata header", line=1)
            xgrid = parse_grid(head[1], 2)
            ygrid = parse_grid(head[2], 3)
            if head[3].strip() != "x_index,y_index":
                raise FormatError("expected header 'x_index,y_index'", line=4)
            nx, ny = xgrid.size, ygrid.size
            mask = np.zeros((nx, ny), dtype=bool)
            for lineno, raw in enumerate(fh, start=5):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    xs, ys = raw.split(",")
                    xi, yi = int(xs), int(ys)
                    if not (0 <= xi < nx and 0 <= yi < ny):
                        raise ValueError
                except ValueError:
                    raise FormatError("expected two integer indices",
                                      line=lineno) from None
                mask[xi, yi] = True
        return cls(xgrid, ygrid, mask.reshape(xgrid.shape + ygrid.shape))


def graphs_match_within(a: GraphSet, b: GraphSet, nodes: int = 1) -> bool:
    """Mutual containment of two graphs up to `nodes` grid steps per axis."""
    if a.xgrid.shape != b.xgrid.shape or a.ygrid.shape != b.ygrid.shape:
        raise InvalidInputError("graphs live on different grids")

    def dilate(g: GraphSet) -> np.ndarray:
        m = chebyshev_dilate(g.mask, g.ygrid, nodes)
        xd, yd = g.xgrid.dim, g.ygrid.dim
        perm = tuple(range(xd, xd + yd)) + tuple(range(xd))
        m = chebyshev_dilate(m.transpose(perm), g.xgrid, nodes)
        back = tuple(range(yd, yd + xd)) + tuple(range(yd))
        return m.transpose(back)

    return bool((~dilate(a) & b.mask).sum() == 0 and (~dilate(b) & a.mask).sum() == 0)


# --- constructions ----------------------------------------------------------


def sync_from_bipotential(b: SampledBivariate) -> SampledBivariate:
    """c(x, y) = b(x, y) - <x, y>, the sync of a bipotential, filled an
    x-tile at a time from ``_sync_tiles`` into a read-only output."""
    out = np.empty((b.xgrid.size, b.ygrid.size))
    for t, c, _ in _sync_tiles(b):
        out[t] = c
    out.flags.writeable = False
    return SampledBivariate(b.xgrid, b.ygrid, out.reshape(b.vals.shape))


def separable(phi: SampledFunction, ygrid: Grid | None = None) -> SampledBivariate:
    """b(x, y) = phi(x) + phi*(y)."""
    phi.require_domain("separable")
    if ygrid is None:
        ygrid = phi.grid   # node-aligned dual box by default
    star = conjugate(phi, ygrid)
    xshape = phi.grid.shape
    yshape = star.grid.shape
    vals = phi.vals.reshape(xshape + (1,) * len(yshape)) + star.vals
    return SampledBivariate(phi.grid, star.grid, vals)


def _sync_tiles(b: SampledBivariate):
    """(t, c, <x, y>) over the x-tiles t of ``windows._pair_tiles``, each
    of shape (tile, ygrid.size): c = b - <x, y>, and +inf wherever b is
    +inf, also where <x, y> overflows."""
    vals = b.vals.reshape(b.xgrid.size, b.ygrid.size)
    for t, P in _pair_tiles(b.xgrid, b.ygrid):
        with np.errstate(invalid="ignore"):   # inf - inf, reset below
            c = vals[t] - P
        c[vals[t] == INF] = INF
        yield t, c, P


def graph_of(b: SampledBivariate, tol: float) -> GraphSet:
    """All node pairs with b(x, y) - <x, y> <= tol, a tile of x-nodes
    at a time."""
    require_tol(tol)
    mask = np.empty((b.xgrid.size, b.ygrid.size), dtype=bool)
    for t, c, _ in _sync_tiles(b):
        np.less_equal(c, tol, out=mask[t])
    mask.flags.writeable = False
    return GraphSet(b.xgrid, b.ygrid, mask.reshape(b.vals.shape))


def default_graph_tol(xgrid: Grid, ygrid: Grid) -> float:
    """Equality-set threshold at curvature scale h^2/2 (plus float slack)."""
    h = max(max(xgrid.h), max(ygrid.h))
    return 0.5 * h * h + 1e-12


# --- axiom checkers ---------------------------------------------------------


def _yslice_stack(vals: np.ndarray, xdim: int) -> np.ndarray:
    """(ny, *xshape) view: one x-function per y-node."""
    nax = vals.ndim
    perm = tuple(range(xdim, nax)) + tuple(range(xdim))
    moved = vals.transpose(perm)
    return moved.reshape((-1,) + vals.shape[:xdim])


def _xslice_stack(vals: np.ndarray, xdim: int) -> np.ndarray:
    """(nx, *yshape) view: one y-function per x-node."""
    return vals.reshape((-1,) + vals.shape[xdim:])


def _unflatten(grid: Grid, flat: int):
    if grid.dim == 1:
        return flat
    return (flat // grid.n[1], flat % grid.n[1])


def _slice_convexity(b: SampledBivariate, tol: float) -> CheckReport:
    """Axiom (a): every nonempty slice passes the convexity battery."""
    xd = b.xgrid.dim
    for tag, stack, dom, grid, name in (
            ("y", _yslice_stack(b.vals, xd), b.xgrid, b.ygrid, "b(., y)"),
            ("x", _xslice_stack(b.vals, xd), b.ygrid, b.xgrid, "b(x, .)")):
        bad = first_nonconvex(stack, dom, tol)
        if bad is not None:
            detail = is_convex(SampledFunction(dom, stack[bad]), tol)
            return failing(f"slice-convex[{detail.axiom}]",
                           ((tag, _unflatten(grid, bad)), detail.witness),
                           detail.residual,
                           f"slice {name} fails the line battery")
    return passing("slice-convex")


def check_bipotential(b: SampledBivariate, tol: float | None = None) -> CheckReport:
    """Decide the three bipotential axioms, reporting the first failure.

    (a) separate convexity of every nonempty slice (line battery, tolerance
        1e-9 * value scale);
    (b) b >= <x, y> within tol;
    (c) at every node pair the two subdifferential memberships, decided by
        the Fenchel-Young residual of the corresponding slice, and the
        equality membership b = <x, y> must coincide within tol.

    tol defaults to 3h(1 + |<x, y>|) per node pair. Residuals between tol
    and 3*tol are borderline and never fail (c) on their own.
    """
    require_tol(tol)
    rep = _slice_convexity(b, 1e-9 * (1.0 + abs(b.finite_max)))
    if not rep.ok:
        return rep
    return _sync_axioms(b, tol)


def _sync_axioms(b: SampledBivariate, tol: float | None,
                 sync: bool = False) -> CheckReport:
    """Axioms (b) and (c) of ``check_bipotential``; with sync, b holds a
    sync c and ``check_sync``'s attained-minimum axiom is decided too.

    They read the sync array an x-tile of ``windows._pair_tiles`` at a
    time, in two passes: c = b - <x, y> from ``_sync_tiles``, or with sync
    b's own values. The first pass tests c >= -tol and gathers each
    slice's minimum, its first argmin and <x, y> there. The conjugate of
    the slice b(., y) at y is -m_y, m_y = min_x c, so the Fenchel-Young
    residuals are c - m_y and c - m_x. A slice minimum escapes the box
    when no node off the box boundary comes within 1e-12 (1 + |max b|) of
    it (max b: the largest finite value): the memberships it feeds are
    borderline, counted in a note, and with sync it is not attained. An
    attained minimum fails above h (1 + |<x, y>|) at its argmin, or tol.
    A pairing or tolerance that overflows is +-inf, as are the residuals
    built on it.
    """
    h = max(max(b.xgrid.h), max(b.ygrid.h))
    vals = b.vals.reshape(b.xgrid.size, -1)

    def tiles():
        """(t, c, <x, y>, the tolerance of each pair) over the x-tiles t."""
        src = (((t, vals[t], P) for t, P in _pair_tiles(b.xgrid, b.ygrid))
               if sync else _sync_tiles(b))
        for t, c, P in src:
            yield t, c, P, (3.0 * h * (1.0 + np.abs(P)) if tol is None
                            else float(tol))

    def node(t, k):
        """The (x, y) index of flat pair k of tile t."""
        return tuple(int(i) for i in np.unravel_index(
            t.start * vals.shape[1] + k, b.vals.shape))

    # flat masks of the nodes off the box boundary
    xin, yin = (np.pad(np.ones([n - 2 for n in g.n], bool), 1).reshape(-1)
                for g in (b.xgrid, b.ygrid))
    cols = np.arange(vals.shape[1])
    m_x, p_x, inner_x = [], [], []
    m_y = inner_y = np.full(len(cols), INF)
    p_y = np.zeros(len(cols))
    with np.errstate(invalid="ignore", over="ignore"):
        for t, c, P, tolc in tiles():
            bad = c < -tolc
            if bad.any():
                k = int(np.argmax(bad))
                return failing("duality-lower-bound", node(t, k),
                               float(c.flat[k]), "b(x, y) < <x, y> - tol")
            rows = np.arange(len(c))
            a = c.argmin(axis=1)
            m_x.append(c[rows, a])
            p_x.append(P[rows, a])
            inner_x.append(c.min(axis=1, where=yin, initial=INF))
            if sync:   # a strided scan, so only where the test reads it
                a = c.argmin(axis=0)
                p_y = np.where(c[a, cols] < m_y, P[a, cols], p_y)
            m_y = np.minimum(m_y, c.min(axis=0))
            inner_y = np.minimum(inner_y, c.min(axis=0, where=xin[t, None],
                                                initial=INF))
        m_x, p_x = np.concatenate(m_x), np.concatenate(p_x)
        inner_x = np.concatenate(inner_x)
        ftol = 1e-12 * (1.0 + abs(b.finite_max))
        esc_y = np.isfinite(m_y) & (inner_y > m_y + ftol)
        esc_x = np.isfinite(m_x) & (inner_x > m_x + ftol)
        minima = ((("y", b.ygrid, m_y, p_y, esc_y),
                   ("x", b.xgrid, m_x, p_x, esc_x)) if sync else ())
        for tag, grid, m, p, esc in minima:
            mtol = h * (1.0 + np.abs(p)) if tol is None else np.full_like(m, tol)
            bad = np.flatnonzero(np.isfinite(m) & ~esc & (m > mtol))
            if bad.size:
                s = int(bad[0])
                mn, tl = float(m[s]), float(mtol[s])
                return failing("attained-min-zero", (tag, _unflatten(grid, s)),
                               mn, f"slice minimum {mn!r} exceeds {tl!r}")
        for t, c, _, tolc in tiles():
            r1 = np.where(np.isposinf(c), INF, c - m_y)
            r2 = np.where(np.isposinf(c), INF, c - m_x[t, None])
            ex, band = esc_x[t, None], _BAND * tolc
            member = ((r1 <= tolc) & ~esc_y) | ((r2 <= tolc) & ~ex) | (c <= tolc)
            viol = member & (((r1 >= band) & ~esc_y) | ((r2 >= band) & ~ex)
                             | (c >= band))
            if viol.any():
                k = int(np.argmax(viol))
                rs = (float(r1.flat[k]), float(r2.flat[k]), float(c.flat[k]))
                return failing("three-way-equivalence", node(t, k), min(rs),
                               f"residuals (del_y, del_x, eq) = {rs}")
    notes = [CLOSEDNESS_NOTE]
    n_esc = int(esc_y.sum() + esc_x.sum())
    if n_esc:
        notes.append(f"box-escaping slice suprema treated as borderline: {n_esc}")
    return passing("bipotential", *notes)


def check_sync(c: SampledBivariate, tol: float | None = None) -> CheckReport:
    """Decide the sync axioms: c >= 0, separate convexity, attained slice
    minima equal to 0 (within a resolution tolerance), then cross-check
    c + <x, y> against the bipotential axioms (b) and (c).

    The last two read c itself, an x-tile at a time, through
    ``_sync_axioms``: its first pass tests c >= -tol (the cross-check's
    lower bound) and gathers the slice minima that the attained-minimum
    test reads, with <x, y> at each slice's first argmin in the bits of
    ``grids.pairing``; a minimum that escapes the box by its rule is not
    attained. Axiom (a) of c + <x, y> is not run again: each of its
    slices is c's slice plus a function linear along every grid line, so
    the second differences are c's. No product array is held whole.
    """
    require_tol(tol)
    scale = 1.0 + abs(c.finite_max)
    neg_tol = 1e-9 * scale if tol is None else tol
    if c.vals.min() < -neg_tol:
        neg = c.vals < -neg_tol   # only to locate the first failure
        idx = np.unravel_index(int(np.argmax(neg)), neg.shape)
        return failing("nonnegative", tuple(int(i) for i in idx),
                       float(c.vals[idx]))

    rep = _slice_convexity(c, 1e-9 * scale)
    if not rep.ok:
        return rep
    rep = _sync_axioms(c, tol, sync=True)
    if rep.ok:
        return passing("sync", CLOSEDNESS_NOTE)
    if rep.axiom == "attained-min-zero":
        return rep
    return failing(f"psync-crosscheck[{rep.axiom}]", rep.witness,
                   rep.residual,
                   "c passed the sync axioms but c + <x,y> fails "
                   "the bipotential axioms")


def check_bbgraph(M: GraphSet) -> CheckReport:
    """Bi-convexity of every nonempty section; closedness is vacuous.

    Sections are scanned y-first in ascending node order; the report names
    the first failing section. The y-sections are a transposed view of the
    mask and the x-sections a reshape of it, each decided as one stack by
    the hull-margin scan of ``is_set_convex``.
    """
    if M.is_empty:
        raise InvalidInputError("check_bbgraph needs a nonempty graph")
    xd = M.xgrid.dim
    for tag, stack, dom, grid in (
            ("y", _yslice_stack(M.mask, xd), M.xgrid, M.ygrid),
            ("x", _xslice_stack(M.mask, xd), M.ygrid, M.xgrid)):
        for b, rep in _set_scan(stack, dom):
            if not rep.ok:
                return failing(f"{tag}-section-convex",
                               ((tag, _unflatten(grid, b)), rep.witness),
                               rep.residual, *rep.notes)
    return passing("bbgraph", CLOSEDNESS_NOTE)


def check_cyclically_monotone(points, n_max: int,
                              tol: float | None = None) -> CheckReport:
    """Exhaustive cycle inequality over tuples drawn from `points`.

    points: (x, y) pairs of finite scalars or 2-vectors. Every tuple
    (p_0, ..., p_n) with n + 1 <= n_max points (repetition allowed) must
    satisfy <x_n - x_0, y_n> + sum <x_{k-1} - x_k, y_{k-1}> >= -tol.
    Exhaustive by design, up to ``_CYCLE_TUPLES`` tuples: point sets of
    desk scale (<= 8).
    """
    require_tol(tol)
    pts = list(points)
    if not pts:
        raise InvalidInputError("need at least one point")
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    k = len(pts)
    if n_max > k:
        warnings.warn(f"n_max={n_max} exceeds the point count {k}; clamping",
                      stacklevel=2)
        n_max = k
    count = sum(k ** L for L in range(2, n_max + 1))
    if count > _CYCLE_TUPLES:
        raise InvalidInputError(f"{count} tuples of up to {n_max} of {k} "
                                f"points exceed the budget of {_CYCLE_TUPLES}")
    X = np.asarray([np.atleast_1d(np.asarray(p[0], dtype=np.float64)) for p in pts])
    Y = np.asarray([np.atleast_1d(np.asarray(p[1], dtype=np.float64)) for p in pts])
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise InvalidInputError("points must be finite")
    D = X @ Y.T                    # D[i, j] = <x_i, y_j>
    if tol is None:
        tol = 1e-12 * (1.0 + float(np.abs(D).max()))

    for L in range(2, n_max + 1):
        total = k ** L
        chunk = 200_000
        for start in range(0, total, chunk):
            ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
            digits = np.empty((len(ids), L), dtype=np.int64)
            rem = ids
            for pos in range(L - 1, -1, -1):
                rem, digits[:, pos] = np.divmod(rem, k)
            last = digits[:, -1]
            s = D[last, last] - D[digits[:, 0], last]
            for j in range(1, L):
                prev = digits[:, j - 1]
                s += D[prev, prev] - D[digits[:, j], prev]
            worst = int(np.argmin(s))
            if s[worst] < -tol:
                cycle = tuple(int(d) for d in digits[worst])
                return failing("cycle-inequality", cycle, float(s[worst]),
                               f"cycle of length {L} over point indices")
    return passing("cyclically-monotone")
