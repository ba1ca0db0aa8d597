"""Bow diagrams and their transition calculus.

A circular diagram is a cyclic sequence of marked nodes -- crosses x_0, ...,
x_{n-1} indexed anticlockwise with x_0 distinguished, and circles carrying a
formal parameter label (sym, nu_star multiple) and indexed clockwise when a
numbering is needed -- with a nonnegative integer dimension on every segment
between consecutive nodes.  In affine type A every diagram is circular.

Internally `nodes[k]` is followed anticlockwise by `nodes[(k+1) % m]`, and
segment `dims[k]` lies between them; node k sits between `dims[k-1]`
(anticlockwise out, `dims[-1]` for node 0) and `dims[k]` (in).
Crosses carry 0, ..., n-1 in anticlockwise order, read from x_0.

The local transition at an adjacent circle/cross pair swaps the two nodes
and replaces the middle dimension by (left + right + 1 - middle); when the
cross is x_0 the circle's parameter gains or loses one unit of the marked
symbol nu_star depending on crossing direction.  `_middle` and `_step` hold
that rule for `transitions`, `hw_transition` and the balanced search;
`separated_form` reads it at the circle it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from .weights import AffineWeight, exact_ints, root_difference
from .young import GYDiagram, gyd_transpose

X_KIND = "x"
O_KIND = "o"


def x_node(index: int) -> tuple:
    return (X_KIND,) + exact_ints((index,), "cross index")


def o_node(sym: int, nu_star: int = 0) -> tuple:
    return (O_KIND,) + exact_ints((sym, nu_star), "circle label")


_X0 = x_node(0)


def numbered_nodes(kinds, labels, base: int) -> tuple:
    """Nodes of the given kinds ('x' or 'o'), crosses numbered anticlockwise from the cross at `base`.

    The circles take their (sym, nu_star) labels from `labels`, in node order.
    """
    n, xi = kinds.count(X_KIND), -kinds[:base].count(X_KIND)
    if not 0 <= base < len(kinds) or kinds[base] != X_KIND or len(labels) != len(kinds) - n:
        raise ValueError("numbered nodes need a cross at the base and one label per circle")
    circles = iter(labels)
    nodes = []
    for kind in kinds:
        if kind == X_KIND:
            nodes.append(x_node(xi % n))
            xi += 1
        else:
            nodes.append(o_node(*next(circles)))
    return tuple(nodes)


def _is_x(node) -> bool:
    return node[0] == X_KIND


def _balanced(nodes, dims) -> bool:
    """Whether every circle has equal dimensions on its two sides."""
    return all(dims[k - 1] == dims[k] for k, nd in enumerate(nodes) if nd[0] == O_KIND)


@dataclass(frozen=True)
class BowDiagram:
    shape: str  # always "circle"
    nodes: tuple
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(map(tuple, self.nodes)))
        object.__setattr__(self, "dims", exact_ints(self.dims, "segment dimensions"))
        if self.shape != "circle":
            raise ValueError("shape must be 'circle'")
        if any(v < 0 for v in self.dims):
            raise ValueError("segment dimensions must be nonnegative")
        m = len(self.nodes)
        if len(self.dims) != m or m == 0:
            raise ValueError("circle needs one segment per node")
        # every node is exactly ("x", index) or ("o", sym, nu_star) with exact ints
        xs, labels = [], []  # cross indices in node order; each circle's sym and nu_star
        for nd in self.nodes:
            if len(nd) == 2 and nd[0] == X_KIND:
                xs.append(nd[1])
            elif len(nd) == 3 and nd[0] == O_KIND:
                labels += nd[1:]
            elif nd[:1] == (X_KIND,):
                raise ValueError(f"a cross node is ('x', index), got {nd!r}")
            elif nd[:1] == (O_KIND,):
                raise ValueError(f"a circle node is ('o', sym, nu_star), got {nd!r}")
            else:
                raise ValueError("node kind must be 'x' or 'o'")
        exact_ints(xs, "cross index")
        exact_ints(labels, "circle label")
        n = len(xs)
        if not n:
            raise ValueError("circle diagrams need at least one cross")
        if sorted(xs) != list(range(n)):
            raise ValueError("cross indices must be 0..n-1")
        start = xs.index(0)
        if xs[start:] + xs[:start] != list(range(n)):
            raise ValueError("cross indices must increase anticlockwise from x_0")
        syms = labels[::2]
        if len(set(syms)) != len(syms):
            raise ValueError("circle parameter symbols must be distinct")

    # -- structure -------------------------------------------------------

    @property
    def num_x(self) -> int:
        return sum(1 for nd in self.nodes if _is_x(nd))

    @property
    def num_o(self) -> int:
        return len(self.nodes) - self.num_x

    def node_n(self, k: int) -> int:
        """N-value at position k: in-out for circles, out-in for crosses."""
        n = self.dims[k] - self.dims[k - 1]
        return -n if _is_x(self.nodes[k]) else n

    def is_balanced(self) -> bool:
        return _balanced(self.nodes, self.dims)

    def canonical_key(self):
        """Nodes and dims read anticlockwise from x_0."""
        p0 = self.nodes.index(_X0)
        return self.nodes[p0:] + self.nodes[:p0], self.dims[p0:] + self.dims[:p0]

    def __eq__(self, other):
        return isinstance(other, BowDiagram) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


class InvariantRecord(NamedTuple):
    """Per-node N values plus the transition-invariant families, as flat int tuples.

    `circles` lists the circle symbols in anticlockwise order, starting at the
    least symbol; `n_h` and `pair_h` are aligned with it.  `pair_h[j]` is
    N_{circles[j]} - N_{circles[j-1]} + #(crosses between them), wrapping at
    j = 0.  `n_x` and `pair_x` are indexed by cross label; `pair_x[i]` is
    N_{x_i} - N_{x_{i+1}} + #(circles between them), indices mod n.
    Transitions and storage rotations keep the circles' cyclic order and its
    least symbol, so every field is canonical.
    """

    circles: tuple[int, ...]
    n_h: tuple[int, ...]
    pair_h: tuple[int, ...]
    n_x: tuple[int, ...]
    pair_x: tuple[int, ...]
    quad_h: int
    quad_x: int

    def invariant_part(self):
        """The transition invariants: equal exactly when the labelled links and quadratic sums agree."""
        return (self.circles, self.pair_h, self.pair_x, self.quad_h, self.quad_x)


def invariants(d: BowDiagram) -> InvariantRecord:
    """N values, links and quadratic sums in one anticlockwise walk over the nodes.

    The walk starts at x_0, so the crosses come in index order.  A link joins
    a node to the previous node of its kind and is emitted when the later one
    is met.  The cross link x_{n-1} -> x_0 is emitted after the walk; the first
    circle's link is taken from a circle at position -1 with N value 0 and
    corrected after the walk, when the last circle is known.  The circle
    lists are then turned to start at the least symbol.
    """
    nodes, dims = d.canonical_key()
    circles, n_h, pair_h, n_x, pair_x = [], [], [], [], []
    quad_h = quad_x = 0
    # position and N value of the last cross (xk, xv) and the last circle (hk, hv) met
    xk = hk = -1
    hv = 0
    out_seg = dims[-1]
    for k, nd in enumerate(nodes):
        in_seg = dims[k]
        if nd[0] == X_KIND:
            v = out_seg - in_seg
            quad_x -= v * v
            quad_h += out_seg + in_seg
            n_x.append(v)
            if xk >= 0:
                # crosses (x_i, x_{i+1}): N_{x_i} - N_{x_{i+1}} + (# circles between)
                pair_x.append(xv - v + k - xk - 1)
            xk, xv = k, v
        else:
            v = in_seg - out_seg
            quad_h -= v * v
            quad_x += out_seg + in_seg
            circles.append(nd[1])
            n_h.append(v)
            # circles (h_s, h_{s+1}), h_{s+1} next clockwise:
            # N_{h_s} - N_{h_{s+1}} + (# crosses between)
            pair_h.append(v - hv + k - hk - 1)
            hk, hv = k, v
        out_seg = in_seg
    m = len(nodes)
    pair_x.append(xv - n_x[0] + m - xk - 1)
    if circles:
        pair_h[0] += m - 1 - hk - hv
        r = circles.index(min(circles))
        circles = circles[r:] + circles[:r]
        n_h = n_h[r:] + n_h[:r]
        pair_h = pair_h[r:] + pair_h[:r]
    return InvariantRecord(tuple(circles), tuple(n_h), tuple(pair_h), tuple(n_x), tuple(pair_x), quad_h, quad_x)


# -- transitions -------------------------------------------------------


def _middle(nodes, dims, pos: int):
    """The new middle dimension of a transition at segment `pos`, of either sign; None without a circle/cross pair."""
    s = (pos + 1) % len(nodes)
    if nodes[pos][0] == nodes[s][0]:
        return None
    return dims[pos - 1] + dims[s] + 1 - dims[pos]


def _step(nodes: tuple, dims: tuple, pos: int, mid: int) -> tuple[tuple, tuple]:
    """Swap the pair around segment `pos` and set its dimension to `mid`, in the same storage order."""
    s = (pos + 1) % len(nodes)
    na, nb = nodes[pos], nodes[s]
    # a circle passing x_0 anticlockwise loses one unit of nu_star, clockwise gains one
    if nb == _X0:
        na = (O_KIND, na[1], na[2] - 1)
    elif na == _X0:
        nb = (O_KIND, nb[1], nb[2] + 1)
    nodes, dims = list(nodes), list(dims)
    nodes[pos], nodes[s] = nb, na
    dims[pos] = mid
    return tuple(nodes), tuple(dims)


def _unchecked(nodes: tuple, dims: tuple) -> BowDiagram:
    """A diagram built without re-validation, for data a transition made from a valid diagram."""
    d = object.__new__(BowDiagram)
    d.__dict__.update(shape="circle", nodes=nodes, dims=dims)
    return d


def transitions(d: BowDiagram) -> list[int]:
    """The segments where a transition is legal: a circle/cross pair whose new middle is >= 0."""
    nodes, dims = d.nodes, d.dims
    return [pos for pos in range(len(nodes)) if (mid := _middle(nodes, dims, pos)) is not None and mid >= 0]


def hw_transition(d: BowDiagram, pos: int) -> BowDiagram:
    """Swap the circle/cross pair around segment `pos`; involutive at a fixed locus.

    The input is checked here; the child of a valid diagram is valid, so it
    is built without re-validation.  The public constructor stays strict.
    """
    (pos,) = exact_ints((pos,), "transition segment")
    m = len(d.nodes)
    if not 0 <= pos < m:
        raise ValueError(f"transition segment must be in 0..{m - 1}, got {pos}")
    mid = _middle(d.nodes, d.dims, pos)
    if mid is None:
        raise ValueError("transition needs one circle and one cross")
    if mid < 0:
        raise ValueError(f"transition at segment {pos} yields negative dimension {mid}")
    nodes, dims = _step(d.nodes, d.dims, pos, mid)
    return _unchecked(nodes, dims)


# -- separated and balanced forms --------------------------------------


@dataclass(frozen=True)
class SeparatedForm:
    """Numeric data of the fully separated arrangement.

    tlambda[s-1] is the N value at the s-th circle counted clockwise from
    x_1; mu[i-1] is the N value at x_i for 1 <= i <= n-1 and mu[n-1] the one
    at x_0; v0 is the dimension of the segment leaving x_0 anticlockwise;
    params[s-1] is the (sym, nu_star) label sitting at circle slot s.
    """

    n: int
    l: int
    tlambda: tuple[int, ...]
    mu: tuple[int, ...]
    v0: int
    params: tuple

    def __post_init__(self):
        exact_ints((self.n, self.l, self.v0), "n, l and v0")
        object.__setattr__(self, "tlambda", exact_ints(self.tlambda, "tlambda"))
        object.__setattr__(self, "mu", exact_ints(self.mu, "mu"))
        if self.n < 1 or self.l < 0 or self.v0 < 0:
            raise ValueError("separated data needs n >= 1, l >= 0 and v0 >= 0")
        if len(self.tlambda) != self.l or len(self.params) != self.l:
            raise ValueError(f"tlambda and params need l = {self.l} entries each")
        if len(self.mu) != self.n:
            raise ValueError(f"mu needs n = {self.n} entries")
        params = tuple(exact_ints(p, "circle label") for p in self.params)
        for p in params:
            if len(p) != 2:
                raise ValueError(f"a params entry is (sym, nu_star), got {p!r}")
        object.__setattr__(self, "params", params)
        if len({sym for sym, _ in params}) != self.l:
            raise ValueError("circle symbols must be distinct")

    def realize(self) -> BowDiagram:
        """Build the circle diagram with this data; raises on negative dims."""
        # x_0, then circle slots l .. 1, then x_1 .. x_{n-1}
        nodes = numbered_nodes([X_KIND] + [O_KIND] * self.l + [X_KIND] * (self.n - 1), self.params[::-1], 0)
        dims = [self.v0]
        cur = self.v0
        for s in range(self.l, 0, -1):       # crossing circles anticlockwise: +N
            cur += self.tlambda[s - 1]
            dims.append(cur)
        for i in range(1, self.n):           # crossing crosses anticlockwise: -N
            cur -= self.mu[i - 1]
            dims.append(cur)
        closing = cur - self.mu[self.n - 1]
        if closing != self.v0:
            raise ValueError("inconsistent separated data: charge mismatch")
        dims = dims[: len(nodes)]
        if any(v < 0 for v in dims):
            raise ValueError(f"separated data needs a negative dimension: {dims}")
        return BowDiagram("circle", nodes, tuple(dims))


def separated_form(d: BowDiagram) -> SeparatedForm:
    """Move every circle clockwise onto the arc before x_1, never across x_0.

    With x_0 at index 0, the circles are taken anticlockwise from x_0 and each
    is swapped clockwise past the crosses before it until it joins the arc.
    No circle crosses x_0, so every nu_star label stays as it is.  When circle
    h passes cross x, the new segment is a value fixed by the diagram plus the
    number of pairs (circle ahead of h, cross still behind h) already swapped.
    Moving the nearest circles first makes every new segment as large as any
    order of transitions allows, so this pass meets a negative dimension
    exactly when no admissible transition sequence separates the diagram.

    Each swap is a transition read at the moving circle: its N value t grows
    by one per cross passed, and the new segment, `_middle`'s value, is the
    segment beyond that cross plus the new t.  The circle's node moves once.
    """
    nodes, dims = d.canonical_key()
    nodes, dims = list(nodes), list(dims)
    m = len(nodes)
    l = 0
    for k in range(1, m):
        if _is_x(nodes[k]):
            continue
        l += 1
        t = dims[k] - dims[k - 1]
        for p in range(k, l, -1):
            t += 1
            dims[p - 1] = dims[p - 2] + t
            if dims[p - 1] < 0:
                raise ValueError("no admissible transition sequence reaches the separated form")
        nodes[l : k + 1] = [nodes[k]] + nodes[l:k]
    n = m - l
    # x_0 at index 0, circle slot s at index l + 1 - s, cross x_i at index l + i
    tlam = tuple(dims[l + 1 - s] - dims[l - s] for s in range(1, l + 1))
    mu = tuple(dims[k - 1] - dims[k] for k in range(l + 1, m)) + (dims[-1] - dims[0],)
    params = tuple(nodes[l + 1 - s][1:] for s in range(1, l + 1))
    return SeparatedForm(n, l, tlam, mu, dims[0], params)


def rotate_base(sf: SeparatedForm) -> SeparatedForm:
    """Carry the circle nearest x_1 once around the circle, across x_0."""
    if sf.l < 1:
        raise ValueError("rotation needs at least one circle")
    t1 = sf.tlambda[0]
    v0 = sf.v0 - t1 + sf.n
    if v0 < 0:
        raise ValueError(f"rotation not realizable: new base dimension {v0} < 0")
    tl = sf.tlambda[1:] + (t1 - sf.n,)
    mu = tuple(x - 1 for x in sf.mu)
    sym, nu = sf.params[0]
    params = sf.params[1:] + ((sym, nu - 1),)
    return SeparatedForm(sf.n, sf.l, tl, mu, v0, params)


def weights_of(d: BowDiagram) -> tuple[AffineWeight, AffineWeight]:
    """The dominant weight and the weight named by the diagram."""
    sf = separated_form(d)
    if sf.l < 1:
        raise ValueError("weight dictionary needs at least one circle")
    try:
        tgy = GYDiagram(sf.l, sf.n, sf.tlambda)
    except ValueError:
        # GYDiagram's own message would name a Young diagram the caller never gave
        raise ValueError(
            f"the separated form's tlambda {list(sf.tlambda)} is not a level-{sf.n} generalized"
            " Young diagram, so the diagram names no dominant weight"
        ) from None
    lam_prof = gyd_transpose(tgy).entries
    lam = AffineWeight(sf.n, sf.l, lam_prof)
    mu = AffineWeight(sf.n, sf.l, sf.mu, Fraction(-sf.v0))
    return lam, mu


def balanced_form(lam: AffineWeight, mu: AffineWeight) -> BowDiagram:
    """The unique balanced circle diagram naming the pair (lam, mu)."""
    if not lam.is_dominant():
        raise ValueError("first weight must be dominant")
    if lam.delta != 0:
        raise ValueError("dominant weight must have delta coefficient 0")
    if lam.profile[-1] != 0:
        # the diagram carries only the sl-class, and the dictionary reads the
        # pair back with this normalization; reject rather than shift silently
        raise ValueError("dominant profile must be charge-normalized (last entry 0)")
    if lam.level < 1:
        raise ValueError("level must be >= 1")
    n, l = lam.n, lam.level
    rv = root_difference(lam, mu)
    if not rv.is_nonnegative():
        raise ValueError("weight gap must lie in the positive root cone")
    v = rv.coeffs
    w = [0] * n
    for i in range(1, n):
        w[i] = lam.profile[i - 1] - lam.profile[i]
    w[0] = l - lam.profile[0] + lam.profile[-1]
    nodes = []
    dims = []
    sym = l
    for i in range(n):
        nodes.append(x_node(i))
        dims.append(v[i])
        for _ in range(w[i]):
            nodes.append(o_node(sym))
            dims.append(v[i])
            sym -= 1
    return BowDiagram("circle", tuple(nodes), tuple(dims))


def hw_reachable_balanced(d: BowDiagram, dim_bound: int) -> list[BowDiagram]:
    """Breadth-first search of the transition class with dims <= dim_bound.

    Returns every balanced diagram encountered, in `canonical_key` order.
    The search walks storage order: a state is the nodes and dims as
    `_step` leaves them, and it is also the state's visited key; a diagram is
    built only for a balanced state.  A circle passing x_0 gains or loses one
    unit of nu_star, yet the search cannot spin: N_h + #(crosses from x_0 to
    h) - n * nu_h is a transition invariant of every circle h, so nu_star is
    fixed by the rest of the diagram.  x_0 moves one place anticlockwise per
    unit of nu_star gained, so x_0's storage position is fixed too, and two
    states are the same diagram exactly when their tuples are equal.  A
    transition is an involution at its segment, so the move that made a
    state leads back to its parent and is not tried again.
    """
    (dim_bound,) = exact_ints((dim_bound,), "dimension bound")
    if any(v > dim_bound for v in d.dims):
        raise ValueError("start diagram exceeds the dimension bound")
    m = len(d.nodes)
    seen = {(d.nodes, d.dims)}
    queue = deque([(d.nodes, d.dims, -1)])  # a state and the segment it was reached by
    found = []
    while queue:
        nodes, dims, back = queue.popleft()
        if _balanced(nodes, dims):
            found.append(_unchecked(nodes, dims))
        for pos in range(m):
            mid = _middle(nodes, dims, pos) if pos != back else None
            if mid is not None and 0 <= mid <= dim_bound:
                child = _step(nodes, dims, pos, mid)
                if child not in seen:
                    seen.add(child)
                    queue.append(child + (pos,))
    return sorted(found, key=BowDiagram.canonical_key)
