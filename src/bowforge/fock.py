"""Representation-theoretic ground truth for affine type A.

Two independent engines live here:

* exact weight multiplicities of integrable highest weight modules of every
  positive level via the Freudenthal recursion over the affine root system
  (real roots have multiplicity 1, imaginary roots multiplicity n-1), run in
  simple-root coordinates: a weight below lam is its gap c with
  mu = lam - sum c_i alpha_i, the form is the affine Cartan matrix,
  (lam + rho, alpha_i) = <lam, h_i> + 1, and every term of the recursion is
  an integer.  The real roots are b + s delta, s >= s0, for the signed
  finite roots b, and delta is W-fixed, so one alcove reduction of mu + k b
  with floor k s0 serves every s; roots outside the root system of the
  stabilizer W_J of mu are summed once per W_J orbit, weighted by an orbit
  size that depends on b and J alone; the imaginary roots sum in closed
  form through the divisor sums sigma(m);

* the level-1 charged fermion module on Maya sequences, where the rank-n
  Chevalley generators act as the folded one-step hopping operators.  States are
  subsets of Z agreeing with the half-filled vacuum (occupied exactly on
  the negatives) outside a finite window, recorded by flipped positions.
  Moving a particle from t to t+1 lowers the weight by alpha_{(t+1) mod n};
  replacements are between adjacent slots, so wedge signs are all +1 and
  coefficients stay integers.

Every operator reads one i-signature: the hop slots t = i-1 mod n by
decreasing t, marked '+' (particle at t, hole at t+1) or '-' (the reverse).
f_i and e_i map a basis state to the {state: coeff} dict of its hops at the
'+' and '-' slots, every coefficient 1; the crystal operators, epsilon and
phi read the letters left after cancelling '+ -' pairs, in the reading order
and bracket orientation that make the vacuum component reproduce the
Freudenthal multiplicities.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, permutations, product
from math import comb, factorial, isqrt
from operator import itemgetter, mul, sub
from typing import Iterator, Optional

from .weights import (
    AffineWeight,
    coroot_pairing,
    exact_ints,
    fundamental_weight,
    lower_weight,
    simple_root,
)

# -- partitions --------------------------------------------------------


def partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to k, lexicographically descending; none for k < 0."""

    def gen(rest, mx):
        if rest == 0:
            yield ()
        for first in range(min(rest, mx), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(k, k)


_PARTITION_COUNTS = [1]


def partition_count(k: int) -> int:
    """p(k), from a table filled bottom-up by the pentagonal number recurrence."""
    global _PARTITION_COUNTS
    if k < 0:
        return 0
    p = _PARTITION_COUNTS
    if k >= len(p):
        # extend a private copy and publish it whole, so concurrent callers never see a partial table
        p = list(p)
        for m in range(len(p), k + 1):
            total, j, g1 = 0, 1, 1  # g1 = j(3j-1)/2 and g1 + j run over the pentagonal numbers
            while g1 <= m:
                sign = 1 if j % 2 else -1
                total += sign * p[m - g1]
                if g1 + j <= m:
                    total += sign * p[m - g1 - j]
                j += 1
                g1 = j * (3 * j - 1) // 2
            p.append(total)
        _PARTITION_COUNTS = p
    return p[k]


# -- fermionic basis states --------------------------------------------


class FockState(tuple):
    """Charge-0 Maya sequence of rank n >= 2: the tuple (n, flips) of flipped positions relative to the vacuum.

    A flip at g >= 0 is a particle, a flip at g < 0 a hole; equal counts keep
    the charge at zero.  `FockState(n, flips)` checks its input and sorts the
    flips, and so does unpickling; a hop, whose child is valid when its parent
    is, builds the tuple directly with `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, n, flips):
        fl = tuple(sorted(exact_ints(flips, "flip positions")))
        if len(set(fl)) != len(fl):
            raise ValueError("flip positions must be distinct")
        exact_ints((n,), "rank")
        if n < 2:
            raise ValueError("rank must be >= 2")
        if 2 * sum(g >= 0 for g in fl) != len(fl):
            raise ValueError("state must have charge 0")
        return tuple.__new__(cls, (n, fl))

    n = property(itemgetter(0))
    flips = property(itemgetter(1))

    def __reduce__(self):
        # every pickle protocol and copy rebuild through the checks; __getnewargs__ would
        # leave protocols 0 and 1 to copyreg, which calls tuple.__new__ on the raw data
        return FockState, tuple(self)

    def __repr__(self):
        return f"FockState(n={self[0]!r}, flips={self[1]!r})"

    def weight(self) -> AffineWeight:
        """Lambda_0 - sum_r c_r alpha_r for the simple-root coefficients c of `_gap`."""
        return lower_weight(fundamental_weight(self[0], 0), _gap(self))


def _gap(state: FockState) -> tuple[int, ...]:
    """c with weight Lambda_0 - sum c_r alpha_r: c_r = sum_g +-ceil((g - s)/n), s = (r-1) mod n (+ particle, - hole)."""
    n, flips = state
    coeffs = []
    for r in range(n):
        # a hop t -> t+1 lowers the weight by alpha_r exactly when t = s mod n; slot t
        # carries (particles above t) - (holes above t) hops, so summing over t = s mod n
        # counts ceil((g - s)/n) per flip g, up to a constant that charge 0 cancels
        s = (r - 1) % n
        coeffs.append(sum((s - g) // n if g < 0 else -((s - g) // n) for g in flips))
    return tuple(coeffs)


def states_of_energy(n: int, e: int) -> list[FockState]:
    """All charge-0 states of given energy, via the partition bijection.

    A partition p occupies p_k - k for k >= 1: its particles are the occupied
    g >= 0 and its holes the unoccupied g in -len(p) .. -1.
    """
    states = []
    for part in partitions(e):
        occupied = {p - k for k, p in enumerate(part, 1)}
        flips = [g for g in occupied if g >= 0] + [g for g in range(-len(part), 0) if g not in occupied]
        states.append(FockState(n, flips))
    return states


# -- the module action --------------------------------------------------


def _signature(state: FockState, i: int) -> list[tuple[int, str]]:
    """Hop slots t = i-1 mod n by decreasing t, '+' (particle at t, hole at t+1) or '-' (the reverse).

    Outside [min(min flip, -1) - 1, max(max flip, 0)] the state is the
    vacuum, whose only hop slot is t = -1.
    """
    n, flips = state
    hi = max(flips + (0,))
    lo = min(flips + (-1,)) - 1
    flips = set(flips)
    word = []
    for t in range(hi - (hi - i + 1) % n, lo - 1, -n):
        here, right = (t < 0) != (t in flips), (t < -1) != (t + 1 in flips)
        if here != right:
            word.append((t, "+" if here else "-"))
    return word


def _hop(state: FockState, t: int) -> FockState:
    """Move the particle between slots t and t+1 to the other slot.

    An adjacent hop keeps the charge, so the child of a valid state is built
    without the constructor's checks.
    """
    n, flips = state
    return tuple.__new__(FockState, (n, tuple(sorted(set(flips) ^ {t, t + 1}))))


def _check_generator(state: FockState, i: int) -> None:
    """ValueError unless i is an int in 0..n-1."""
    exact_ints((i,), "generator index")
    if not 0 <= i < state[0]:
        raise ValueError("generator index out of range")


def chevalley_apply(op: str, i: int, state: FockState) -> dict[FockState, int]:
    """e_i, f_i or h_i applied to one basis state, as a {state: coeff} dict with no zero coefficient.

    e_i and f_i hop at the '-' and '+' slots of the i-signature; distinct
    slots give distinct states, so every coefficient is 1.  h_i scales the
    state by <wt, h_i> = [i = 0] - (A c)_i, read off the simple-root gap c of
    the weight, not off the i-signature the hops read.
    """
    _check_generator(state, i)
    if op not in ("e", "f", "h"):
        raise ValueError("op must be one of 'e', 'f', 'h'")
    if op == "h":
        val = (i == 0) - _cartan_times(_gap(state))[i]
        return {state: val} if val else {}
    letter = "+" if op == "f" else "-"
    return {_hop(state, t): 1 for t, s in _signature(state, i) if s == letter}


# -- crystal structure ---------------------------------------------------


def _reduced(word) -> tuple[list[int], list[int]]:
    """Slots of the '-' and '+' letters left after cancelling '+ -' pairs; every '-' precedes every '+'."""
    minus, plus = [], []
    for t, s in word:
        if s == "+":
            plus.append(t)
        elif plus:
            plus.pop()
        else:
            minus.append(t)
    return minus, plus


def crystal_op(op: str, state: FockState, i: int) -> Optional[FockState]:
    """Kashiwara operator on a basis state; None when undefined."""
    _check_generator(state, i)
    minus, plus = _reduced(_signature(state, i))
    if op == "f":
        return _hop(state, plus[0]) if plus else None
    if op == "e":
        return _hop(state, minus[-1]) if minus else None
    raise ValueError("op must be 'e' or 'f'")


def epsilon(state: FockState, i: int) -> int:
    _check_generator(state, i)
    return len(_reduced(_signature(state, i))[0])


def phi(state: FockState, i: int) -> int:
    _check_generator(state, i)
    return len(_reduced(_signature(state, i))[1])


def crystal_component(n: int, depth: int) -> dict[FockState, int]:
    """Vacuum component of the crystal truncated to `depth` arrows; state -> height."""
    vac = FockState(n, ())
    depth = _check_depth(depth)
    out = {vac: 0}
    layer = [vac]
    for h in range(1, depth + 1):
        nxt = []
        for st in layer:
            for i in range(n):
                nstate = crystal_op("f", st, i)
                if nstate is not None and nstate not in out:
                    out[nstate] = h
                    nxt.append(nstate)
        layer = nxt
    return out


# -- Freudenthal multiplicities ------------------------------------------


def _cartan_times(c) -> list[int]:
    """A c for the affine Cartan matrix A of rank len(c) >= 2.

    Neighbours on the cycle; at rank 2 both neighbours are the same node,
    which gives the doubled edge.
    """
    n = len(c)
    return [2 * c[i] - c[i - 1] - c[(i + 1) % n] for i in range(n)]


def affine_cartan_matrix(n: int) -> list[list[int]]:
    return [_cartan_times([int(i == j) for j in range(n)]) for i in range(n)]


def _dominant_gap(marks, gap, ac, floor=0) -> Optional[tuple[int, ...]]:
    """Gap of the dominant representative of lam - sum gap_i alpha_i; None if it is not below lam.

    `ac` is A gap.  The simple reflection s_i adds d = <mu, h_i> =
    marks_i - ac_i to gap_i, which changes A gap by d times column i of A:
    ac_i += 2d and each neighbour of i on the cycle loses d (at rank 2 both
    neighbours are one node).  Raising mu towards the alcove only shrinks
    the gap, so once an entry is below `floor` the reduced gap has an entry
    below it too, and None is returned at once; floor 0 is the test for
    lying below lam.  The reflections run round the cycle until n nodes in
    a row are dominant.
    """
    if min(gap) < floor:
        return None
    c, ac = list(gap), list(ac)
    n = len(c)
    i = clean = 0
    while clean < n:
        d = marks[i] - ac[i]
        if d < 0:
            c[i] += d
            if c[i] < floor:
                return None
            ac[i] += 2 * d
            ac[i - 1] -= d
            ac[(i + 1) % n] -= d
            clean = 1
        else:
            clean += 1
        i = (i + 1) % n
    return tuple(c)


def _parabolic_order(n: int, nodes) -> int:
    """|W_K| for a proper subset K of the n-cycle: (r+1)! per maximal run of r consecutive nodes, wrapping through 0."""
    inside = [i in nodes for i in range(n)]
    start = inside.index(False)
    order = run = 1
    for s in range(start + 1, start + n + 1):
        if inside[s % n]:
            run += 1
        else:
            order *= factorial(run)
            run = 1
    return order


@cache
def _signed_roots(n: int) -> tuple:
    """(b, A b, s0, support of b + s0 delta) for b = +-(alpha_j + ... + alpha_{i-1}), 1 <= j < i <= n.

    s0 is the least s with b + s delta positive: 0 for +b, 1 for -b.
    """
    out = []
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            for s0 in (0, 1):
                b = tuple((-1 if s0 else 1) * (j <= a < i) for a in range(n))
                out.append((b, tuple(_cartan_times(b)), s0, tuple(a for a in range(n) if b[a] + s0)))
    return tuple(out)


@cache
def _weighted_roots(n: int, zero: tuple[int, ...]) -> tuple:
    """`_signed_roots(n)` rows with their W_J orbit weights at s0 and at s > s0, J = zero.

    The weights are those of `_freudenthal_frame`; a b whose roots all
    carry weight 0 is left out.
    """
    stabilizer = _parabolic_order(n, zero)
    out = []
    for b, ab, s0, low in _signed_roots(n):
        if any(ab[x] < 0 for x in zero):
            weight = 0
        else:
            weight = stabilizer // _parabolic_order(n, [x for x in zero if ab[x] == 0])
        first = 1 if set(low) <= set(zero) else weight
        if first:
            out.append((b, ab, s0, low, first, weight))
    return tuple(out)


@cache
def _divisor_sum(m: int) -> int:
    """sigma(m), the sum of the divisors of m >= 1."""
    return sum(d + m // d if d * d < m else d for d in range(1, isqrt(m) + 1) if m % d == 0)


def _check_depth(depth) -> int:
    """`depth` as a nonnegative int, or ValueError naming it."""
    (depth,) = exact_ints((depth,), "depth")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return depth


_MULT_CACHE: dict = {}


def freudenthal_mult(lam: AffineWeight, mu: AffineWeight) -> int:
    """Exact weight multiplicity of mu in the integrable module with highest weight lam.

    Weights outside the positive cone return 0.  The memo is read at the
    least image of (marks of lam, dominant gap) under the symmetries of the
    n-cycle, so the highest weights of one rotation/reflection orbit share
    every entry.
    """
    found = _marks_and_gap(lam, mu)
    if found is None:
        return 0
    marks, gap = found
    gap = _dominant_gap(marks, gap, _cartan_times(gap))
    if gap is None:
        return 0
    return _mult(*_least_image(marks, gap))


def _least_image(marks: tuple[int, ...], gap: tuple[int, ...]) -> tuple:
    """The least (marks, gap) among its 2n images under the rotations and reflections of the n-cycle.

    Each of them permutes the nodes and fixes the affine Cartan matrix, so
    mult_{V(lam)}(mu) = mult_{V(sigma lam)}(sigma mu) (Kac, Sec. 4.7), and
    it maps a dominant gap to one dominant for the permuted marks.  Pairs
    compare marks first, so the gap is minimised only over the symmetries
    that take the marks to their least image.
    """
    least, moves = _marks_symmetries(marks)
    return least, min([move(gap) for move in moves])


@cache
def _marks_symmetries(marks: tuple[int, ...]) -> tuple:
    """(least image of marks under the 2n rotations and reflections of the n-cycle, those reaching it).

    Each symmetry is an itemgetter that permutes a node tuple.  Most marks
    are reached by one or two of them; equal marks by all of them.
    """
    nodes = tuple(range(len(marks)))
    moves = [itemgetter(*order[r:], *order[:r]) for order in (nodes, nodes[::-1]) for r in nodes]
    least = min(move(marks) for move in moves)
    return least, tuple(move for move in moves if move(marks) == least)


def _marks_and_gap(lam: AffineWeight, mu: AffineWeight) -> Optional[tuple]:
    """(marks of lam, coefficients of lam - mu) after `freudenthal_mult`'s checks; None off the root lattice.

    Both read off the profiles: marks_0 = level + p_n - p_1 and
    marks_i = p_i - p_{i+1}, so lam is dominant exactly when no mark is
    negative; gap_0 is the delta gap and gap_j = gap_{j-1} + p_j - q_j for
    the profiles p of lam and q of mu.  The difference lies in the root
    lattice exactly when the charges agree and the delta gap is an integer.
    """
    n, level, p = lam.n, lam.level, lam.profile
    if n < 2:
        raise ValueError("multiplicities need rank >= 2")
    marks = (level + p[-1] - p[0], *map(sub, p, p[1:]))
    if min(marks) < 0:
        raise ValueError("highest weight must be dominant")
    if level < 1:
        raise ValueError("highest weight must have positive level")
    if mu.n != n or mu.level != level:
        raise ValueError("level/rank mismatch")
    q = mu.profile
    if sum(p) != sum(q):
        return None
    dl, dm = lam.delta, mu.delta
    if dl.denominator == 1 == dm.denominator:
        gap0 = dl.numerator - dm.numerator
    else:
        gap0 = dl - dm
        if gap0.denominator != 1:
            return None
        gap0 = gap0.numerator
    return marks, tuple(accumulate(map(sub, p[:-1], q), initial=gap0))


def _mult(marks: tuple[int, ...], gap: tuple[int, ...]) -> int:
    """Multiplicity of the dominant weight mu = lam - sum gap_i alpha_i, where lam has these marks.

    Freudenthal's formula with (alpha_i, alpha_j) = A_ij and
    (lam + rho, alpha_i) = marks_i + 1:
    ((lam+rho)^2 - (mu+rho)^2) m(mu)
        = 2 sum_{alpha > 0} mult(alpha) sum_{k >= 1} (mu + k alpha, alpha) m(mu + k alpha).

    Runs depth first on an explicit stack of frames, so no query can reach
    the recursion limit.
    """
    if not any(gap):
        return 1
    val = _MULT_CACHE.get((marks, gap))
    if val is not None:
        return val
    stack = [_freudenthal_frame(marks, gap)]
    while stack:
        g, denom, terms, pending = stack[-1]
        for top in pending:
            if any(top) and (marks, top) not in _MULT_CACHE:
                stack.append(_freudenthal_frame(marks, top))
                break
        else:
            stack.pop()
            total = sum(coef * _MULT_CACHE[marks, top] if any(top) else coef for top, coef in terms.items())
            val, rem = divmod(total, denom)
            if rem or val < 0:
                raise ArithmeticError(f"Freudenthal recursion produced {total}/{denom}")
            _MULT_CACHE[marks, g] = val
    return _MULT_CACHE[marks, gap]


def _freudenthal_frame(marks: tuple[int, ...], gap: tuple[int, ...]) -> tuple:
    """(gap, denominator, terms, pending terms) for one node of `_mult`.

    terms maps the dominant gap of each mu + k alpha to its summed
    coefficient; pending iterates over it, lowest height first, as the
    node's children resolve, so most children find their own children
    resolved and the stack stays shallow.

    Real roots.  They are b + s delta for the n(n-1) signed finite roots
    b = +-(alpha_j + ... + alpha_{i-1}), 1 <= j < i <= n, and s >= s0 (0 for
    +b, 1 for -b).  delta is W-fixed and A delta = 0, so the dominant gap of
    mu + k(b + s delta) is that of mu + k b less k s (1, ..., 1), and the
    coefficient's pairing is (mu, b) + s level + 2k.  So each (b, k) takes
    one reduction of gap - k b, with floor k s0, and serves every s up to
    its least entry // k.  k runs up to the least entry of gap on the
    support of b + s0 delta and stops at the first k below the floor: root
    strings through a weight are unbroken (Kac, Prop. 3.6), so no larger k
    gives a weight either.

    Orbit weights.  The stabilizer W_J of mu, J = {j : <mu, h_j> = 0}, is
    finite because the level is positive, and it fixes every term:
    (mu + k w alpha, w alpha) = (mu + k alpha, alpha) and
    m(mu + k w alpha) = m(mu + k alpha).  So a root whose support leaves J
    stands for its W_J orbit, and each orbit is summed once, at its one root
    with (A alpha)_j >= 0 for every j in J, weighted by the orbit size
    |W_J| / |W_J'|, J' = {j in J : (A alpha)_j = 0} (Moody-Patera).  Roots
    supported inside J are summed one by one.  A(b + s delta) = A b, so the
    weight depends on b and J alone (`_weighted_roots`), and only the root at
    s = s0 can lie inside J: for s > s0 the support is every node.

    Imaginary roots.  j delta (multiplicity n - 1, norm 0) fixes the
    dominant mu and (mu + k j delta, j delta) = j level, so the terms at
    gap - m (1, ..., 1) sum to 2 (n - 1) level sigma(m) over jk = m.
    """
    ac = _cartan_times(gap)
    mu = [w - x for w, x in zip(marks, ac)]
    denom = sum(c * (w + 2 + m) for c, w, m in zip(gap, marks, mu))
    if denom == 0:
        raise ArithmeticError("vanishing Freudenthal denominator at a dominant weight")
    n, level = len(gap), sum(mu)
    terms: dict = {}
    for b, ab, s0, low, first, weight in _weighted_roots(n, tuple(j for j in range(n) if mu[j] == 0)):
        pair = sum(map(mul, mu, b))
        t, tac = gap, ac
        for k in range(1, min(gap[a] for a in low) + 1):
            t = tuple(map(sub, t, b))
            tac = list(map(sub, tac, ab))
            top = _dominant_gap(marks, t, tac, k * s0)
            if top is None:
                break
            step = (k,) * n
            last = min(top) // k if weight else s0  # with weight 0 only the root at s0 counts: it lies inside J
            for s in range(s0, last + 1):
                if s:
                    top = tuple(map(sub, top, step))
                coef = first if s == s0 else weight
                terms[top] = terms.get(top, 0) + 2 * coef * (pair + s * level + 2 * k)
    # the imaginary roots: top = gap - m (1, ..., 1) for m = 1 .. min(gap)
    top, ones = gap, (1,) * n
    for m in range(1, min(gap) + 1):
        top = tuple(map(sub, top, ones))
        terms[top] = terms.get(top, 0) + 2 * (n - 1) * level * _divisor_sum(m)
    return gap, denom, terms, iter(sorted(terms, key=sum))


def cone_points(n: int, depth: int) -> Iterator[tuple[int, ...]]:
    """All coefficient vectors with 0 <= sum <= depth, lexicographic.

    Each prefix grows only by entries within its remaining budget, so no
    point of the (depth+1)^n box outside the cone is built.
    """
    points = [()] if depth >= 0 else []
    for _ in range(n):
        points = [c + (a,) for c in points for a in range(depth + 1 - sum(c))]
    return iter(points)


def string_top(lam: AffineWeight, mu: AffineWeight, i: int) -> int:
    """Largest sl(2)_i highest weight meeting the i-string through mu in V(lam).

    Returns <mu, h_i> + 2k for the largest k >= 0 such that mu + k alpha_i
    is a weight of V(lam), i.e. its dominant representative lies below lam
    (Kac, Prop. 12.5), which the alcove reduction decides with no multiplicity.

    The string's weights are one unbroken interval in k that s_i maps to
    itself about k = -<mu, h_i>/2 (Kac, Prop. 3.6): it meets k >= 0 exactly
    when it holds k0 = max(0, ceil(-<mu, h_i>/2)), and no k past gap_i (the
    i-th coefficient of lam - mu) is a weight, so the top is bisected between.
    """
    # the checks of the weight-space walk, in its order: alpha_i, <mu, h_i>, mu + alpha_i
    simple_root(lam.n, i)
    mu_p = coroot_pairing(mu, i)
    if mu.n != lam.n:
        raise ValueError("rank mismatch")
    found = _marks_and_gap(lam, mu)
    if found is not None:
        marks, gap = found

        def present(k):
            g = gap[:i] + (gap[i] - k,) + gap[i + 1 :]
            return _dominant_gap(marks, g, _cartan_times(g)) is not None

        lo, hi = max(0, -(mu_p // 2)), gap[i] + 1
        if present(lo):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if present(mid) else (lo, mid)
            return mu_p + 2 * lo
    raise ValueError("no member of the i-string through this weight lies in the module")


def fock_weight_count(n: int, mu: AffineWeight) -> int:
    """Number of charge-0 basis states of exact weight mu, read from the gap histogram of its energy."""
    exact_ints((n,), "rank")
    if mu.level != 1:
        raise ValueError("the fermion module has level 1")
    if mu.n != n:
        raise ValueError("rank mismatch")
    if n == 1:
        e = -mu.delta
        if e.denominator != 1 or e < 0 or len(set(mu.profile)) > 1 or mu.profile[0] != 0:
            return 0
        return partition_count(int(e))
    found = _marks_and_gap(fundamental_weight(n, 0), mu)
    if found is None or min(found[1]) < 0:
        return 0
    return _gap_counts(n, sum(found[1])).get(found[1], 0)


@cache
def _gap_counts(n: int, energy: int) -> dict[tuple[int, ...], int]:
    """Simple-root gap -> number of charge-0 states of this energy with that gap; never handed to callers."""
    return Counter(map(_gap, states_of_energy(n, energy)))


def delta_convolution(lam: AffineWeight, mu: AffineWeight, top: int) -> int:
    """Sum over 0 <= j <= top of p(j) * m(mu + j delta).

    For mu = lam - sum c_a alpha_a, top = min(c) is the last j with mu + j delta below lam;
    at lam = L0 the sum is then the number of charge-0 fermion states of weight mu.
    """
    shifted = (AffineWeight(mu.n, mu.level, mu.profile, mu.delta + j) for j in range(top + 1))
    return sum(partition_count(j) * freudenthal_mult(lam, nu) for j, nu in enumerate(shifted))


# -- verification reports -------------------------------------------------


def char_factorization_check(n: int, depth: int) -> list[tuple[str, bool, str]]:
    """(label, ok, detail) rows: fermion-module weight counts against the partition convolution of multiplicities."""
    exact_ints((n,), "rank")
    depth = _check_depth(depth)
    lam = fundamental_weight(n, 0)
    rows = []
    for coeffs in cone_points(n, depth):
        mu = lower_weight(lam, coeffs)
        lhs = fock_weight_count(n, mu)
        rhs = delta_convolution(lam, mu, min(coeffs))
        rows.append((f"mu = L0 - {list(coeffs)}", lhs == rhs, f"fock={lhs} convolution={rhs}"))
    return rows


def serre_and_commutator_check(n: int, depth: int) -> list[tuple[str, bool, str]]:
    """(label, ok, "") rows: the defining relations of the affine algebra, checked on every state up to `depth`.

    Vectors are {state: coeff} dicts, extended linearly from `chevalley_apply`
    on basis states; each (op, i, state) image is computed once per call, and
    nothing is kept across calls.
    """
    exact_ints((n,), "rank")
    if n < 2:
        raise ValueError("relations need rank >= 2")
    depth = _check_depth(depth)
    cartan = affine_cartan_matrix(n)
    basis = [{st: 1} for e in range(depth + 1) for st in states_of_energy(n, e)]
    images: dict[tuple[str, int, FockState], tuple[tuple[FockState, int], ...]] = {}

    def act(op: str, i: int, vec: dict) -> dict:
        """op_i applied to vec, each basis image read from the table or filled on first use."""
        out: dict[FockState, int] = {}
        for state, c in vec.items():
            image = images.get((op, i, state))
            if image is None:
                image = images[op, i, state] = tuple(chevalley_apply(op, i, state).items())
            for s, d in image:
                out[s] = out.get(s, 0) + c * d
        return out

    def vanishes(terms) -> bool:
        """True when the residual, the sum of the (coeff, vector) terms, has no nonzero coefficient."""
        residual: dict[FockState, int] = {}
        for k, vec in terms:
            for s, c in vec.items():
                residual[s] = residual.get(s, 0) + k * c
        return not any(residual.values())

    def ad_power(a: int, b: int, power: int, v: dict) -> Iterator[tuple[int, dict]]:
        """The binomial terms of ad(e_a)^power (e_b) applied to v."""
        lifts = [v]
        for _ in range(power):
            lifts.append(act("e", a, lifts[-1]))
        for k in range(power + 1):
            w = act("e", b, lifts[k])
            for _ in range(power - k):
                w = act("e", a, w)
            yield (-1) ** k * comb(power, k), w

    rows = []
    for a, b in product(range(n), repeat=2):
        ok = all(vanishes([(1, act("e", a, act("f", b, v))), (-1, act("f", b, act("e", a, v))),
                           (-1, act("h", a, v) if a == b else {})]) for v in basis)
        rows.append((f"[e_{a}, f_{b}] = {f'h_{a}' if a == b else '0'}", ok, ""))
    for a, b in product(range(n), repeat=2):
        ok = all(vanishes([(1, act("h", a, act("e", b, v))), (-1, act("e", b, act("h", a, v))),
                           (-cartan[a][b], act("e", b, v))]) for v in basis)
        rows.append((f"[h_{a}, e_{b}] = {cartan[a][b]} e_{b}", ok, ""))
    for a, b in permutations(range(n), 2):
        power = 1 - cartan[a][b]
        ok = all(vanishes(ad_power(a, b, power, v)) for v in basis)
        rows.append((f"ad(e_{a})^{power}(e_{b}) = 0", ok, ""))
    return rows
