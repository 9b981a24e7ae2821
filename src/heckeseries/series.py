"""Generating series of the symplectic Hecke operators and their
numerator/denominator polynomials over the Hecke ring.

``HeckeExpr`` models the commutative ring Z[T(p), T_1(p^2), T_2(p^2), [p]_3]
extended by p^(+-1): an ``XPoly`` in the four generators with PrimeLaurent
coefficients, keyed by the exponent tuple (a, b, c, d) of
T(p)^a T_1(p^2)^b T_2(p^2)^c [p]_3^d.  The spherical map on it,
``hecke_image``, is ``XPoly.substitute`` with the four generator images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import index, lshift

from .algebra import (
    PL_ZERO,
    PrimeLaurent,
    VSeries,
    XPoly,
    _add_into,
    _bounds,
    _div_packed,
    _key,
    _laurent,
    _pack,
    _unpack,
    _width,
)
from .errors import (
    EnumerationTooLarge,
    FunctionalEquationViolated,
    NonUniqueSolution,
    NonVanishingTail,
    NoSolution,
    NotDivisible,
    NotLaurent,
    NotSymmetric,
    VarMismatch,
)
from .spherical import (
    _alternant_sums,
    _compositions,
    _deformed_product,
    _div_vandermonde,
    _multiplicity_norm,
    _vandermonde_terms,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from .symmetric import _dominant_product, _orbit_sums, signatures, to_msym, x0_weight

#: default truncation order for the genus-3 series work
DEFAULT_ORDER = 12
#: hard bound on the truncation order of r_series and p3_closed_form, and on the
#: order p_numerator accepts, whose value and cost do not depend on it; at this
#: order r_series(3, N) takes 0.13-0.16 s, p3_closed_form(N) 0.014-0.023 s and
#: p_numerator(3, N) 0.006-0.011 s, as at order 12 (2-vCPU Xeon, Python 3.11.7, cold)
SERIES_ORDER_BOUND = 20
#: hard bound on the x0-weight of express_in_generators; its generator basis,
#: built once per weight from the cached decompositions of lower weights, takes
#: 0.11-0.13 s cold at this weight (56 monomials), 0.04-0.05 s at 8, 0.18-0.20 s
#: at 11 and 0.31-0.40 s at 12 (84 monomials) (2-vCPU Xeon, Python 3.11)
GENERATOR_WEIGHT_BOUND = 10

GENERATOR_NAMES = ("T(p)", "T1(p^2)", "T2(p^2)", "[p]3")


class HeckeExpr(XPoly):
    """Polynomial in the four commuting Sp_3 generators over Laurent-in-p.

    An XPoly with nvars = 4 whose variables are the generators, so it has
    XPoly's arithmetic; it differs only in construction, term order, names
    and JSON.  It does not mix with a plain XPoly.
    """

    __slots__ = ()
    var_names = GENERATOR_NAMES

    def __init__(self, terms=None):
        super().__init__(4, terms)

    @staticmethod
    def const(value) -> "HeckeExpr":
        return HeckeExpr.constant(4, value)

    def sorted_terms(self):
        """Terms by ascending (degree, tuple): the reverse of XPoly's order."""
        return super().sorted_terms()[::-1]

    def to_json(self) -> dict:
        return {
            "terms": [{"g": list(g), "c": c.to_json()} for g, c in self.sorted_terms()]
        }

    @staticmethod
    def from_json(data) -> "HeckeExpr":
        return HeckeExpr(
            {tuple(t["g"]): PrimeLaurent.from_json(t["c"]) for t in data["terms"]}
        )


T_P = HeckeExpr.variable(4, 0)
T1_P2 = HeckeExpr.variable(4, 1)
T2_P2 = HeckeExpr.variable(4, 2)
P_BRACKET = HeckeExpr.variable(4, 3)


# keeps its name: the benchmark's self-tests clear this cache by it
@lru_cache(maxsize=None)
def _generator_image_power(index: int) -> XPoly:
    """Spherical image of generator index (T(p), T_1(p^2), T_2(p^2), [p]_3)."""
    if index == 0:
        return sp_image_Tp(3)
    if index == 3:
        return sp_image_pbracket(3)
    return sp_image_Ti(index, 3)


def hecke_image(e: HeckeExpr) -> XPoly:
    """Ring-homomorphism extension of the spherical map to generator polynomials."""
    return e.substitute({i: _generator_image_power(i) for i in range(4)})


# -- series ----------------------------------------------------------


def _check_size(what: str, value: int, bound: int) -> None:
    """Refuse a negative size or one past its bound, before anything is computed."""
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    if value > bound:
        raise EnumerationTooLarge(f"{what} {value} exceeds the bound {bound}")


@lru_cache(maxsize=None)
def r_series(n: int, N: int) -> VSeries:
    """Truncated generating series of the T(p^delta) images.

    Coefficient of v^delta is the sum over ascending exponent chains
    d1 <= ... <= dn <= delta of p^(n*d1 + (n-1)*d2 + ... + dn) times
    omega(t(p^d)) times x0^delta.  With lambda the chain reversed, the
    chain's weight is sum i*lambda_i, which cancels the prefactor
    p^(-sum i*lambda_i) of omega; so

        R_delta = x0^delta * sum over m <= delta of the sum over the
                  signatures lambda with top part m of
                  Antisym(x^lambda * D) / V / v_lambda(1/p),

    and each top part costs one exact division by the norm per multiplicity
    class (``spherical._alternant_sums``) and one step by V
    (``spherical._div_vandermonde``), on orbit representatives.  The running
    sum over m adds them per representative; v^delta's orbits are written once.
    """
    if not 1 <= n <= 3:
        raise ValueError("genus 1..3 only")
    _check_size("series order", N, SERIES_ORDER_BOUND)
    by_top = [[(m,) + rest for rest in signatures(m, n - 1)] for m in range(N + 1)]
    coeffs = []
    acc: dict[tuple, PrimeLaurent] = {}
    for delta, anti in enumerate(_alternant_sums(by_top, n)):
        # v^delta collects every signature with top part m <= delta
        quot = _div_vandermonde(anti, n)
        for e, c in quot.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        coeffs.append(_orbit_sums(quot._raw({(delta,) + e[1:]: c for e, c in acc.items() if c})))
    return VSeries(N, coeffs)


def _factor_loop(coeffs: list, subsets, nv: int, width: int) -> None:
    """Multiply the packed v^0.. coefficients in place by (1 - x0 x_S v) for
    each subset S of {1..nv-1}, truncated at the last one.  They hold no
    zero, and none is left: a term that cancels is dropped at once."""
    for subset in subsets:
        shift = _key(tuple(int(i == 0 or i in subset) for i in range(nv)), width)
        for k in range(len(coeffs) - 1, 0, -1):  # top down: coeffs[k - 1] is not yet updated
            acc = coeffs[k]
            get = acc.get
            for key, c in coeffs[k - 1].items():
                key += shift
                s = get(key, 0) - c
                if s:
                    acc[key] = s
                else:
                    del acc[key]


@lru_cache(maxsize=None)
def q_poly(n: int) -> VSeries:
    """The degree-2^n denominator: product of (1 - x0 x_S v) over subsets S of {1..n}."""
    if not 1 <= n <= 3:
        raise ValueError("genus 1..3 only")
    nv, width = n + 1, _width(2**n, 0)
    coeffs = [{0: 1}] + [{} for _ in range(2**n)]
    _factor_loop(coeffs, [s for size in range(nv) for s in combinations(range(1, nv), size)], nv, width)
    return VSeries(2**n, [_unpack(c, nv, width) for c in coeffs])


def _antisymmetrize(terms, n: int, width: int, x0: int) -> dict:
    """Packed x0 sum_w sgn(w) w(A), w permuting x1..xn, for the terms (e, c)
    of A in x1..xn: each e_i shifted by width * (w^-1(i) + 2), shifts built
    once per call, summed onto x0's field, with the p-terms added times
    sgn(w).  Zeros may remain where terms cancel."""
    vterms = [([width * (w.index(i) + 2) for i in range(n)], sign) for w, sign in _vandermonde_terms(n)]
    out: dict = {}
    get = out.get
    for e, c in terms:
        items = c.terms.items()
        for shifts, sign in vterms:
            # the fields are disjoint: their sum is their OR
            x = sum(map(lshift, e, shifts), x0)
            for pe, f in items:
                out[x + pe] = get(x + pe, 0) + sign * f
    return out


def _v_times_numerator(groups: list, n: int, sizes) -> tuple[int, list[dict]]:
    """The field width and the packed coefficients v^0..v^N, one per group, of
    V sum_m x0^m A_m v^m times (1 - x0 x_S v) over the subsets S of {1..n}
    with |S| in sizes: A_m the alternant sum of group m (``_alternant_sums``)
    and V the Vandermonde in x1..xn.  No coefficient holds a zero.  The width
    fits x0^N and the sums' degrees plus one per factor holding x1 (or any x_i).
    A_m is antisymmetric, so it is written out once per term sgn(w) x^w(delta)
    of V, e in place of delta (``_antisymmetrize``), and no two terms meet."""
    subsets = [s for size in sizes for s in combinations(range(1, n + 1), size)]
    sums = _alternant_sums(groups, n)
    xdeg, pabs = _bounds(sums)
    width = _width(max(len(groups) - 1, xdeg + sum(1 in s for s in subsets)), pabs)
    coeffs = [_antisymmetrize(anti.terms.items(), n, width, m << width) for m, anti in enumerate(sums)]
    _factor_loop(coeffs, subsets, n + 1, width)
    return width, coeffs


def _numerator_classes(n: int) -> list:
    """The classes of P_n's sum over signatures lambda, one per set P of the
    gaps lambda_k - lambda_(k+1), k < n, that are positive, as the triples:
    the norm v_lambda(1/p), the exponent of y^P = prod_(k in P) y_k with
    y_k = x0 v x1...xk, and the subsets S of the class's factors
    (1 - x0 x_S v).  Writing lambda = sum_k a_k (1^k, 0^(n-k)), the class
    sums y^P / prod_(k in P and n) (1 - y_k), and each 1 - y_k is the factor
    of S = {1..k}, cancelled: the factors are the other nonempty S.  The
    norm and y^P are read at the class's least signature, a_k = 1 on P."""
    subsets = [s for size in range(1, n + 1) for s in combinations(range(1, n + 1), size)]
    classes = []
    for size in range(n):
        for gaps in combinations(range(1, n), size):
            lam = tuple(sum(k >= i for k in gaps) for i in range(1, n + 1))
            chain = [tuple(range(1, k + 1)) for k in (*gaps, n)]
            # y^P = (x0 v)^lambda_1 x^lambda
            classes.append((_multiplicity_norm(lam).terms, (lam[0],) + lam, [s for s in subsets if s not in chain]))
    return classes


def _v_times_p(n: int) -> tuple[int, list[dict]]:
    """The field width and the packed coefficients v^0.. of V P_n, V the
    Vandermonde in x1..xn, summed over the classes (``_numerator_classes``):
    V P_n = sum_P Antisym(D y^P prod (1 - x0 x_S v)) / v_P(1/p), D the
    deformed product.  v-degree is x0-degree.  Each class's list is sized from
    its own degree, |P| + its factor count + 1, so the factor loop truncates
    nothing.  Each coefficient is antisymmetrized and divided by the class
    norm, which ``_div_packed`` certifies; the class of distinct parts, of
    norm 1, is added as it is."""
    classes = _numerator_classes(n)
    # x-degrees: D's n - 1, then one per factor and per y_k; p-range: D's and a norm's, n(n - 1)/2 each
    width = _width(n - 1 + max(y[0] + len(factors) for _, y, factors in classes), n * (n - 1))
    d = _pack(_deformed_product(n), width)
    total: list[dict] = []
    for norm, y, factors in classes:
        coeffs = [{} for _ in range(y[0] + len(factors) + 1)]
        shift = _key(y, width)
        coeffs[y[0]] = {key + shift: c for key, c in d.items()}
        _factor_loop(coeffs, factors, n + 1, width)
        total += [{} for _ in range(len(coeffs) - len(total))]
        for k, coeff in enumerate(coeffs):
            terms = ((e[1:], c) for e, c in _unpack(coeff, n + 1, width).terms.items())
            anti = _antisymmetrize(terms, n, width, k << width)
            _add_into(total[k], anti if norm == {0: 1} else _div_packed(anti, norm, n + 1, width))
    return width, total


def _div_v(packed: dict, k: int, n: int, width: int) -> XPoly:
    """The packed coefficient of v^k divided by V, the Vandermonde in x1..xn, certified exact."""
    vdm = {_key((0, *(n - 1 - i for i in w)), width): sign for w, sign in _vandermonde_terms(n)}
    try:
        quot = _div_packed(packed, vdm, n + 1, width)
    except NotDivisible as exc:
        raise NotDivisible(f"coefficient of v^{k} is not V times a polynomial: {exc}") from exc
    return _unpack(quot, n + 1, width)


@lru_cache(maxsize=None)
def p_numerator(n: int, N: int) -> VSeries:
    """Numerator polynomial P_n = R_n Q_n, as a finite identity.

    R_n sums Antisym(x^lambda D) / (V v_lambda(1/p)) (x0 v)^lambda_1 / (1 - x0 v)
    over the signatures lambda (``r_series``).  Split by which gaps of lambda
    are positive, each class is a product of geometric series in the
    y_k = x0 v x1...xk, and each 1 - y_k, like 1 - x0 v, cancels a factor of
    Q_n, which is symmetric and passes through Antisym (``_v_times_p``).  So
    V P_n is a polynomial of v-degree 2^n - 2, at every order, by its degree
    count; a coefficient past v^(2^n - 2) raises NonVanishingTail.  V is not
    a zero divisor.  Each of v^0 .. v^(2^n - 2) is divided whole by V with
    the kernel's exact division, which raises NotDivisible unless the
    quotient is exact, and the quotient must be symmetric in x1..xn
    (``to_msym`` raises NotSymmetric otherwise).  Returns the
    degree-(2^n - 2) polynomial part; its value does not depend on N, which
    is checked against the margin and the bound of the truncated routes.
    """
    if not 1 <= n <= 3:
        raise ValueError("genus 1..3 only")
    if N < 2**n + 4:
        raise ValueError(f"need N >= {2**n + 4} for a meaningful vanishing margin")
    _check_size("series order", N, SERIES_ORDER_BOUND)
    index(N)  # TypeError unless the order is an integer, as on the truncated routes
    top = 2**n - 2
    width, coeffs = _v_times_p(n)
    for k in range(top + 1, len(coeffs)):
        if any(coeffs[k].values()):
            raise NonVanishingTail(
                f"coefficient of v^{k} is nonzero: V times it is {_unpack(coeffs[k], n + 1, width)}"
            )
    head = []
    for k in range(top + 1):
        p_k = _div_v(coeffs[k], k, n, width)
        to_msym(p_k)  # raises NotSymmetric unless the quotient is symmetric in x1..xn
        head.append(p_k)
    return VSeries(top, head)


def p3_closed_form(N: int) -> VSeries:
    """Independent closed form of the genus-3 numerator, truncated at v^N.

    The kernel sum over omega(t(1, p^a, p^b)) weighted by p^(2a+b) (x0 v)^b,
    multiplied by the six linear factors (1 - x0 x_S v) with |S| in {1, 2}.
    The weight p^(2a+b) cancels omega's prefactor p^(-(b+2a)), so V times
    the kernel's v^b coefficient is x0^b times the alternant sum of the
    group (b, a, 0), a <= b.  As in ``p_numerator``, each of v^0 .. v^N of
    V times the product is divided whole by V, which certifies it.
    """
    _check_size("series order", N, SERIES_ORDER_BOUND)
    groups = [[(b, a, 0) for a in range(b + 1)] for b in range(N + 1)]
    width, coeffs = _v_times_numerator(groups, 3, (1, 2))
    return VSeries(N, [_div_v(c, k, 3, width) for k, c in enumerate(coeffs)])


# -- indeterminate-coefficient solve ---------------------------------


def generator_monomials(x0_weight: int) -> list[tuple]:
    """Generator monomials (a,b,c,d) whose image has the given x0-weight.

    T(p) contributes x0-weight 1, the three quadratic generators weight 2.
    Ordered by degree then tuple.
    """
    out = [(x0_weight - 2 * m,) + bcd for m in range(x0_weight // 2 + 1) for bcd in _compositions(m, 3)]
    out.sort(key=lambda g: (sum(g), g))
    return out


# keeps its name: the benchmark's tracer wraps it by name for its solve span
def _solve_fraction_free(rows: list[list[PrimeLaurent]], ncols: int):
    """Solve A x = b given augmented rows over PrimeLaurent by back-substitution.

    An unknown's pivot is the last row where its column is nonzero (rows in
    ascending signature order: its leading signature).  From the last row
    up, a pivot row gives its unknown by exact division and any other row
    must reduce to zero.  Raises NonUniqueSolution for a zero column,
    NoSolution for a shared pivot row (not triangular) or an inconsistent
    row, and NotLaurent when an unknown is not Laurent in p.
    """
    rows = [[_laurent(c) for c in r] for r in rows]
    nonzero = [[j for j in range(ncols) if not r[j].is_zero()] for r in rows]
    last = {j: i for i, cols in enumerate(nonzero) for j in cols}
    pivot_col = {}
    for col in range(ncols):
        row = last.get(col)
        if row is None:
            raise NonUniqueSolution(f"unknown {col} has a zero column")
        if row in pivot_col:
            raise NoSolution(
                f"system is not triangular: unknowns {pivot_col[row]} and {col} pivot on row {row}"
            )
        pivot_col[row] = col
    sol = [None] * ncols
    for i in reversed(range(len(rows))):
        row, col = rows[i], pivot_col.get(i)
        # every other nonzero column of this row pivots further down: solved
        rem = row[ncols]
        for j in nonzero[i]:
            if j != col:
                rem = rem - sol[j] * row[j]
        if col is not None:
            try:
                sol[col] = rem.div_exact(row[col])
            except NotDivisible as exc:
                raise NotLaurent(f"unknown {col} is not Laurent in p") from exc
        elif not rem.is_zero():
            raise NoSolution("inconsistent linear system")
    return sol


@lru_cache(maxsize=None)
def _monomial_image(g: tuple) -> XPoly:
    """hecke_image of the generator monomial g, held on its terms at weakly
    decreasing exponents in x1..x3: that of g with one generator fewer times
    the generator's image.  The generator split off is the one of smallest
    image ([p]_3 has 1 term, T_2(p^2) 7, T(p) 8 and T_1(p^2) 19)."""
    present = [i for i in range(4) if g[i]]
    if not present:
        return XPoly.constant(4, 1)
    i = min(present, key=lambda j: len(_generator_image_power(j).terms))
    rest = g[:i] + (g[i] - 1,) + g[i + 1 :]
    return _dominant_product(_monomial_image(rest), _generator_image_power(i))


@lru_cache(maxsize=None)
def _generator_basis(x0_wt: int) -> tuple[tuple, tuple]:
    """The generator monomials of the x0-weight and, for each, the monomial
    basis decomposition of its image as (signature, coefficient) pairs,
    signatures descending, as ``to_msym`` gives it."""
    monomials = tuple(generator_monomials(x0_wt))
    images = (_monomial_image(g).terms for g in monomials)
    # one x0-weight per image: its exponents sort as their signatures do
    return monomials, tuple(tuple((e[1:], t[e]) for e in sorted(t, reverse=True)) for t in images)


def express_in_generators(target: XPoly, x0_wt: int) -> HeckeExpr:
    """Write a symmetric x0-homogeneous polynomial as a generator polynomial.

    Builds the linear system in the monomial symmetric basis over all
    generator monomials of matching x0-weight, whose images are decomposed
    once per weight on orbit representatives (``_monomial_image``), and
    solves it by back-substitution.  The system is triangular because the
    leads are unimodular: the generator images' (x0-weight, leading
    signature) vectors have determinant 1 and unit leading coefficients.
    The solution is certified Laurent in p and verified by substitution,
    which checks the decompositions independently.  The x0-weight must lie in
    0..GENERATOR_WEIGHT_BOUND and the target must be in x0..x3.
    """
    _check_size("x0-weight", x0_wt, GENERATOR_WEIGHT_BOUND)
    if target.nvars != 4:
        raise VarMismatch(f"target has nvars = {target.nvars}; the generators' images have 4")
    if target.terms and x0_weight(target) != x0_wt:
        raise NotSymmetric(f"target is not x0-homogeneous of weight {x0_wt}")
    monomials, decomps = _generator_basis(x0_wt)
    ncols = len(monomials)
    target_decomp = to_msym(target) if target.terms else {}
    rows = {sig: [PL_ZERO] * ncols + [c] for sig, c in target_decomp.items()}
    for col, decomp in enumerate(decomps):
        for sig, c in decomp:
            rows.setdefault(sig, [PL_ZERO] * (ncols + 1))[col] = c
    sol = _solve_fraction_free([rows[sig] for sig in sorted(rows)], ncols)
    result = HeckeExpr(dict(zip(monomials, sol)))
    if hecke_image(result) != target:
        raise NoSolution("solution failed the substitution check")
    return result


# -- theorems --------------------------------------------------------


@lru_cache(maxsize=None)
def p3_in_generators() -> tuple[HeckeExpr, ...]:
    """Coefficients (v^0..v^6) of the genus-3 numerator over the Hecke ring.

    Each is certified by the substitution check of ``express_in_generators``.
    Raises NonVanishingTail unless the v^1 and v^5 coefficients vanish and
    FunctionalEquationViolated unless the leading term is p^15 [p]_3^3.  A
    tuple, so the cached value cannot be changed in place.
    """
    num = p_numerator(3, DEFAULT_ORDER)
    coeffs = tuple(express_in_generators(num.coeffs[k], k) for k in range(num.order + 1))
    if not coeffs[1].is_zero() or not coeffs[5].is_zero():
        raise NonVanishingTail("numerator has unexpected v^1 or v^5 terms")
    expected_lead = HeckeExpr({(0, 0, 0, 3): PrimeLaurent.p_power(15)})
    if coeffs[6] != expected_lead:
        raise FunctionalEquationViolated(
            f"leading term {coeffs[6]} != p^15 [p]_3^3"
        )
    return coeffs


class QCoefficients:
    """The nine v-coefficients t_0..t_8 of the denominator over the Hecke ring.

    Immutable; equal, and hashed alike, when the coefficients are equal.
    """

    __slots__ = ("t",)

    def __init__(self, t: tuple):
        if len(t) != 9 or t[0] != HeckeExpr.const(1):
            raise ValueError("need t_0..t_8 with t_0 = 1")
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of QCoefficients")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.t == other.t

    def __hash__(self):
        return hash((self.t,))

    def __repr__(self):
        return f"QCoefficients(t={self.t!r})"

    def to_json(self) -> list:
        return [e.to_json() for e in self.t]

    @staticmethod
    def from_json(data) -> "QCoefficients":
        return QCoefficients(tuple(HeckeExpr.from_json(e) for e in data))


@lru_cache(maxsize=None)
def q3_in_generators() -> QCoefficients:
    """Reconstruct the denominator coefficients t_0..t_8 over the Hecke ring.

    t_0..t_4 come from the indeterminate-coefficient solve against the
    expanded denominator, which certifies them by substitution; t_5..t_8
    from the functional equation t_{8-i} = (p^6 [p]_3)^(4-i) t_i.  So the
    equation holds by construction, and its certificate is the image check
    of t_5..t_8, which no solve certified, against the expanded
    coefficients; it raises FunctionalEquationViolated at the first mismatch.
    """
    q = q_poly(3)
    t = [express_in_generators(q.coeffs[k], k) for k in range(5)]
    scale = P_BRACKET * PrimeLaurent.p_power(6)
    for k in (5, 6, 7, 8):
        t.append(scale ** (k - 4) * t[8 - k])
        if hecke_image(t[k]) != q.coeffs[k]:
            raise FunctionalEquationViolated(
                f"t_{k} does not reproduce the v^{k} coefficient of the denominator"
            )
    return QCoefficients(tuple(t))


def specialize_nu(s: VSeries) -> VSeries:
    """Degree homomorphism: x0 -> 1, x_i -> p^i, applied coefficient-wise."""
    if s.nvars != 4:
        raise ValueError("specialization is wired for nvars = 4")
    assignment = {0: 1, 1: PrimeLaurent.p_power(1), 2: PrimeLaurent.p_power(2), 3: PrimeLaurent.p_power(3)}
    return VSeries(s.order, [c.substitute(assignment) for c in s.coeffs])
