"""Two-level logic minimization in the style of espresso.

This module provides the classic unate-recursive-paradigm primitives
(tautology check and complement) plus an espresso-style
EXPAND / IRREDUNDANT / REDUCE loop.  It stands in for the espresso pass
that SIS applies to the FSM's combinational logic before technology
mapping in the paper's experimental flow (paper Fig. 6).

The minimizer is heuristic, as espresso is: it guarantees the result is a
cover of the ON-set that stays inside ON ∪ DC, and it is verified for
functional equivalence by the test-suite, but it does not guarantee
minimality.  For the MCNC-scale FSMs in the paper (≤ ~20 input variables,
a few hundred cubes) it runs in milliseconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.cube import Cover, Cube

__all__ = [
    "is_tautology",
    "complement",
    "espresso",
    "minimize_function",
]

# Recursion safety valve; MCNC-scale functions stay well below this.
_MAX_RECURSION_VARS = 64


def _most_binate_var(cover: Cover) -> Optional[int]:
    """Pick the best splitting variable for the unate recursive paradigm.

    Prefers the most *binate* variable (appears in both polarities in the
    most cubes); when the cover is unate, returns the most-bound variable;
    returns None when no cube binds any variable.
    """
    n = cover.n_vars
    count0 = [0] * n
    count1 = [0] * n
    for cube in cover.cubes:
        care = cube.care_mask()
        ones = cube.one_mask & care
        # Iterate only the bound variables (set bits), not all n.
        while care:
            low = care & -care
            care ^= low
            var = low.bit_length() - 1
            if ones & low:
                count1[var] += 1
            else:
                count0[var] += 1
    best_var = None
    best_key: Tuple[int, int] = (-1, -1)
    for var in range(n):
        c0 = count0[var]
        c1 = count1[var]
        if c0 == 0 and c1 == 0:
            continue
        # Binate vars first (min polarity count), then total occurrences.
        key = (c0 if c0 < c1 else c1, c0 + c1)
        if key > best_key:
            best_key = key
            best_var = var
    return best_var


def _unate_reduction_tautology(cover: Cover) -> Optional[bool]:
    """Fast tautology special cases; None when recursion is required."""
    if any(c.is_full() for c in cover):
        return True
    if not cover.cubes:
        return False
    # A unate cover is a tautology iff it contains the universal cube.
    # (Checked above.)  Detect unateness cheaply.
    n = cover.n_vars
    has0 = 0
    has1 = 0
    for cube in cover:
        care = cube.care_mask()
        has1 |= cube.one_mask & care
        has0 |= care & ~cube.one_mask
    if not (has0 & has1):  # unate in every variable
        return False
    # Quick necessary condition: minterm count must reach 2**n.
    total = sum(c.num_minterms() for c in cover)
    if total < (1 << n):
        return False
    return None


def _branch_cover(cover: Cover, var: int, value: int) -> Cover:
    """Cofactor of ``cover`` against ``var = value``, ``var`` raised."""
    bit = 1 << var
    cubes: List[Cube] = []
    if value:
        for cube in cover.cubes:
            if cube.one_mask & bit:
                cubes.append(
                    Cube._raw(cover.n_vars, cube.zero_mask | bit, cube.one_mask)
                )
    else:
        for cube in cover.cubes:
            if cube.zero_mask & bit:
                cubes.append(
                    Cube._raw(cover.n_vars, cube.zero_mask, cube.one_mask | bit)
                )
    return Cover._wrap(cover.n_vars, cubes)


def is_tautology(cover: Cover) -> bool:
    """True when the cover evaluates to 1 for every input assignment."""
    quick = _unate_reduction_tautology(cover)
    if quick is not None:
        return quick
    var = _most_binate_var(cover)
    if var is None:
        # No cube binds any variable: tautology iff any cube is non-empty.
        return bool(cover.cubes)
    for value in (0, 1):
        if not is_tautology(_branch_cover(cover, var, value)):
            return False
    return True


# Complement results memoized across calls: espresso's REDUCE step
# complements a near-identical "rest of the cover" for every cube, and
# successive EXPAND/IRREDUNDANT/REDUCE sweeps revisit the same covers.
# Keys commit to the exact cube *sequence* (not the set) so a memo hit
# returns bit-identical results to recomputation — cube order steers the
# heuristics downstream.  Cleared wholesale at the size cap.
_COMPLEMENT_MEMO: Dict[Tuple, Cover] = {}
_COMPLEMENT_MEMO_LIMIT = 4096


def _cover_memo_key(cover: Cover) -> Tuple:
    return (
        cover.n_vars,
        tuple((c.zero_mask, c.one_mask) for c in cover.cubes),
    )


def complement(cover: Cover) -> Cover:
    """Compute a cover of the complement of ``cover``.

    Uses the unate recursive paradigm: split on the most binate variable,
    complement each cofactor, and merge with the splitting literal.
    """
    key = _cover_memo_key(cover)
    cached = _COMPLEMENT_MEMO.get(key)
    if cached is not None:
        # Hand out a fresh wrapper so caller-side mutation (the cover is
        # public API) cannot poison the memo; cubes are immutable.
        return Cover._wrap(cover.n_vars, list(cached.cubes))
    result = _complement_uncached(cover)
    if len(_COMPLEMENT_MEMO) >= _COMPLEMENT_MEMO_LIMIT:
        _COMPLEMENT_MEMO.clear()
    _COMPLEMENT_MEMO[key] = Cover._wrap(cover.n_vars, list(result.cubes))
    return result


def _complement_uncached(cover: Cover) -> Cover:
    n = cover.n_vars
    if not cover.cubes:
        return Cover.universe(n)
    if any(c.is_full() for c in cover.cubes):
        return Cover.empty(n)
    if len(cover.cubes) == 1:
        return _complement_cube(cover.cubes[0])
    var = _most_binate_var(cover)
    if var is None:
        return Cover.empty(n)
    result: List[Cube] = []
    bit = 1 << var
    for value in (0, 1):
        comp = complement(_branch_cover(cover, var, value))
        # Re-bind the splitting literal on each complement cube.
        if value:
            for cube in comp.cubes:
                if cube.one_mask & bit:
                    result.append(
                        Cube._raw(n, cube.zero_mask & ~bit, cube.one_mask)
                    )
        else:
            for cube in comp.cubes:
                if cube.zero_mask & bit:
                    result.append(
                        Cube._raw(n, cube.zero_mask, cube.one_mask & ~bit)
                    )
    return Cover._wrap(n, result).single_cube_containment()


def _complement_cube(cube: Cube) -> Cover:
    """De Morgan complement of a single cube (one cube per bound literal)."""
    n = cube.n_vars
    result = Cover(n)
    for var in range(n):
        lit = cube.literal(var)
        if lit == "0":
            result.append(Cube.full(n).restrict_var(var, 1))  # type: ignore[arg-type]
        elif lit == "1":
            result.append(Cube.full(n).restrict_var(var, 0))  # type: ignore[arg-type]
    return result


# ----------------------------------------------------------------------
# Espresso loop
# ----------------------------------------------------------------------


def _expand(on: Cover, off: Cover) -> Cover:
    """EXPAND: grow each cube maximally without hitting the OFF-set.

    Literals are raised greedily in an order that prefers freeing the
    variables bound in the fewest OFF-set cubes; expanded cubes that
    swallow other ON-cubes let us drop the swallowed ones.
    """
    n = on.n_vars
    full = (1 << n) - 1
    off_cubes = off.cubes
    # Per-variable count of OFF cubes binding it, tabulated once; the old
    # per-literal _blocking_count rescanned the OFF cover each time.
    blocking = [0] * n
    for c in off_cubes:
        care = c.care_mask()
        while care:
            low = care & -care
            care ^= low
            blocking[low.bit_length() - 1] += 1
    cubes = sorted(on.cubes, key=Cube.num_literals, reverse=True)
    expanded: List[Cube] = []
    for cube in cubes:
        cz = cube.zero_mask
        co = cube.one_mask
        swallowed = False
        for e in expanded:
            if cz & e.zero_mask == cz and co & e.one_mask == co:
                swallowed = True
                break
        if swallowed:
            continue
        # Try raising literals one at a time, cheapest first.
        care = (cz ^ co) & full
        order = sorted(
            (v for v in range(n) if care >> v & 1),
            key=blocking.__getitem__,
        )
        for var in order:
            bit = 1 << var
            tz = cz | bit
            to = co | bit
            if blocking[var] == 0:
                # No OFF cube binds var: raising it cannot create an
                # intersection (the cube is disjoint from OFF on some
                # other variable, which raising var leaves bound).
                cz, co = tz, to
                continue
            for c in off_cubes:
                if ((tz & c.zero_mask) | (to & c.one_mask)) == full:
                    break
            else:
                cz, co = tz, to
        expanded.append(Cube._raw(n, cz, co))
    return Cover._wrap(n, expanded).single_cube_containment()


def _blocking_count(off: Cover, var: int) -> int:
    """Number of OFF-set cubes that bind ``var`` (expansion risk proxy)."""
    bit = 1 << var
    return sum(1 for c in off if c.care_mask() & bit)


def _irredundant(on: Cover, dc: Cover) -> Cover:
    """IRREDUNDANT: drop cubes covered by the rest of the cover plus DC."""
    cubes = list(on.cubes)
    dc_cubes = dc.cubes
    # Visit smallest cubes first: they are the most likely to be redundant.
    for cube in sorted(cubes, key=Cube.num_literals, reverse=True):
        rest = Cover._wrap(
            on.n_vars, [c for c in cubes if c is not cube] + dc_cubes
        )
        if rest.covers_cube(cube):
            cubes.remove(cube)
    return Cover._wrap(on.n_vars, cubes)


def _reduce(on: Cover, dc: Cover) -> Cover:
    """REDUCE: shrink each cube to the supercube of its essential part.

    The essential part of cube ``c`` is ``c`` minus what the rest of the
    cover (plus DC) covers; reducing opens room for the next EXPAND to
    find a different (hopefully smaller) local optimum.
    """
    n = on.n_vars
    cubes = list(on.cubes)
    dc_cubes = list(dc.cubes)
    reduced: List[Cube] = []
    for i, cube in enumerate(cubes):
        rest = Cover._wrap(
            n, [c for j, c in enumerate(cubes) if j != i] + dc_cubes
        )
        rest_cf = rest.cofactor(cube)
        comp = complement(rest_cf)
        # supercube of (cube AND complement(rest cofactor cube))
        essential = [
            inter for inter in (cc.intersect(cube) for cc in comp.cubes)
            if inter is not None
        ]
        if not essential:
            # Fully covered by the rest; keep as-is, IRREDUNDANT removes it.
            reduced.append(cube)
            continue
        super_c = essential[0]
        for cc in essential[1:]:
            super_c = super_c.supercube(cc)
        reduced.append(super_c)
        cubes[i] = super_c
    return Cover._wrap(n, reduced)


def _cover_cost(cover: Cover) -> Tuple[int, int]:
    return (len(cover), cover.num_literals())


def espresso(on: Cover, dc: Optional[Cover] = None, max_iters: int = 8) -> Cover:
    """Espresso-style heuristic minimization.

    Parameters
    ----------
    on:
        Cover of the ON-set.
    dc:
        Optional cover of the don't-care set.
    max_iters:
        Upper bound on EXPAND/IRREDUNDANT/REDUCE sweeps (the loop exits
        as soon as the cost stops improving).

    Returns
    -------
    Cover
        A cover ``F`` with ON ⊆ F ⊆ ON ∪ DC.
    """
    n = on.n_vars
    if dc is None:
        dc = Cover.empty(n)
    on = on.single_cube_containment()
    if on.is_empty_function():
        return on
    off = complement(Cover(n, list(on.cubes) + list(dc.cubes)))
    best = _irredundant(_expand(on, off), dc)
    best_cost = _cover_cost(best)
    current = best
    for _ in range(max_iters):
        current = _reduce(current, dc)
        current = _expand(current, off)
        current = _irredundant(current, dc)
        cost = _cover_cost(current)
        if cost < best_cost:
            best, best_cost = current, cost
        else:
            break
    return best


def minimize_function(
    on_patterns: List[str], dc_patterns: Optional[List[str]] = None
) -> Cover:
    """Convenience wrapper: minimize a function given as pattern strings."""
    on = Cover.from_strings(on_patterns)
    dc = Cover.from_strings(dc_patterns) if dc_patterns else None
    return espresso(on, dc)
