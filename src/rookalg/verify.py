"""Verification suites tying the two constructions together.

Each suite returns a VerificationReport: a machine-readable record of what
was checked, whether it passed, any warnings, and any counterexamples.
Every comparison is exact; there are no tolerances anywhere.

The central suite is the structure-constant crosscheck: the polynomial
table built by rewriting must reproduce, at nu = n, the multiplication of
generator images computed by brute-force convolution.  Agreement at n fixes
the constants at n only where the monomial images are linearly independent,
which they are from n = alpha on.  When the number of such checked points
exceeds the maximum polynomial degree, the table is the unique polynomial
family of that degree agreeing with the ground truth there, and the report
says so.

The relation suite reads each defining relation's right-hand side off the
rewriting engine's own first step, so the relations are stated once.

Suites do not stop at the first failure: they keep checking and collect up
to max_counterexamples of them (default 5) for diagnosis, with the full
failure count in the metrics.  One collector per run times it and builds
its report; a suite that checks several points refuses any past the
oracle's limit before other work, then checks each distinct one once and
adds every point's failures to that one collector.  The report's
canonical JSON leaves the timing out, so equal runs print equal bytes.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import factorial, prod
from typing import Iterable, Sequence

from .algebra import Monomial, _as_poly, _emit, _sites, basis_enumerate, word_to_state
from .capacity import ORACLE_DEGREE_LIMIT
from .combinatorics import (
    PartialInjection,
    Permutation,
    all_permutations,
    corner_map,
    fixed_space_dimensions,
    rook_count,
    rook_enumerate,
)
from .errors import CapacityError, ConsistencyError
from .nupoly import NuPoly
from .oracle import (
    BiinvariantElement,
    Context,
    coset_corank,
    coset_enumerate,
    coset_size,
    dc_multiply,
    gen_hole,
    gen_perm,
    project_biinvariant,
)
from .rational import format_rational
from .sparse import combine
from .tables import StructureTable, gram_matrix, scaled_limit_table, structure_table, trace_form


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    params: dict
    status: str
    warnings: tuple[str, ...] = ()
    counterexamples: tuple = ()
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "status": self.status,
            "warnings": list(self.warnings),
            "counterexamples": [dict(c) for c in self.counterexamples],
            "metrics": dict(self.metrics),
        }

    def canonical_json(self) -> str:
        """Sorted, indented JSON without the timing, so equal runs print equal bytes."""
        obj = self.to_json_obj()
        obj["metrics"].pop("elapsed_s", None)
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def summary_line(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.status.upper()} {self.suite} {bits}".rstrip()


class _Collector:
    """One run's report in the making: its clock, failures and warnings.

    Counts every failure, keeps only the first `cap` as counterexamples; a
    negative cap is refused.
    """

    def __init__(self, cap: int):
        if cap < 0:
            raise ValueError(f"max_counterexamples must be >= 0, got {cap}")
        self.t0 = time.perf_counter()
        self.cap = cap
        self.kept: list[dict] = []
        self.total = 0
        self.warnings: list[str] = []

    def add(self, kind: str, **info) -> None:
        self.total += 1
        if len(self.kept) < self.cap:
            self.kept.append({"kind": kind, **info})

    def report(self, suite: str, params: dict, **metrics) -> VerificationReport:
        return VerificationReport(
            suite=suite,
            params=params,
            status="pass" if self.total == 0 else "fail",
            warnings=tuple(self.warnings),
            counterexamples=tuple(self.kept),
            metrics={
                **metrics,
                "failure_count": self.total,
                "elapsed_s": round(time.perf_counter() - self.t0, 6),
            },
        )


def _contexts(alpha: int, ns: Sequence[int]) -> list[Context]:
    """One Context per distinct point of ns, in first-seen order; a point past ORACLE_DEGREE_LIMIT is refused."""
    ctxs = [Context(alpha, n) for n in dict.fromkeys(ns)]
    for ctx in ctxs:
        if ctx.degree > ORACLE_DEGREE_LIMIT:
            raise CapacityError(
                f"brute-force check at degree {ctx.degree} exceeds the limit {ORACLE_DEGREE_LIMIT}"
            )
    return ctxs


def _default_points(alpha: int, count: int) -> tuple[int, ...]:
    """The first `count` points n >= alpha with alpha + n <= ORACLE_DEGREE_LIMIT.

    Below n = alpha the monomial images are dependent.
    """
    return tuple(range(alpha, ORACLE_DEGREE_LIMIT - alpha + 1))[:count]


def _require_default_points(alpha: int) -> None:
    """Refuse a run whose default points would be none, before it builds anything."""
    if not _default_points(alpha, 1):
        raise CapacityError(
            f"no point n >= alpha={alpha} keeps alpha + n within ORACLE_DEGREE_LIMIT="
            f"{ORACLE_DEGREE_LIMIT}, so the default check would compare nothing; pass the points explicitly"
        )


def _pairs_obj(x: BiinvariantElement) -> list:
    return [[list(ser), val] for ser, val in x.to_pairs()]


def monomial_images(basis: Sequence[Monomial], ctx: Context) -> list[BiinvariantElement]:
    """Image of each basis monomial under the generator assignment."""
    return [reduce(dc_multiply, [gen_perm(m.perm, ctx)] + [gen_hole(i, ctx) for i in m.holes]) for m in basis]


def _unitriangular(m: Monomial, x: dict) -> bool:
    """Whether the image x, {key: coefficient}, has 1 at m's own rook and smaller corank at every other key."""
    own, r = m.to_rook(), m.hole_degree
    return x.get(own) == 1 and all(coset_corank(s) < r for s in x if s != own)


def rook_images(basis: Sequence[Monomial]) -> list[dict[PartialInjection, int]]:
    """Image of each basis monomial as {key: 1}, the same at every n once keys of corank > n are dropped.

    phi(A(g) T_i1 ... T_ik) = e_g theta_i1 ... theta_ik, and each hole i
    meets only keys sigma with sigma(i) defined, where counting partial
    permutations (Ivanov and Kerov, J. Math. Sci. 107, 2001) gives
    e_sigma theta_i = e_(sigma with i undefined) + sum_y e_(sigma with i -> y),
    y over the corner targets that sigma misses.  An image that is not
    unitriangular raises ConsistencyError naming its monomial.
    """
    out = []
    for m in basis:
        rows = [m.perm.images]
        for i in m.holes:
            rows = [
                row[: i - 1] + (y,) + row[i:]
                for row in rows
                for y in (None, *PartialInjection._trusted(row).missing())
            ]
        img = {PartialInjection._trusted(row): 1 for row in rows}
        if not _unitriangular(m, img):
            raise ConsistencyError(
                "monomial image is not unitriangular", {"g": list(m.perm.images), "I": list(m.holes)}
            )
        out.append(img)
    return out


def off_closed_form(M, imgs: Sequence[dict[PartialInjection, int]], partner) -> list[tuple[int, int]]:
    """The (p, q), in (p, q) order, where M[p][q] != sum_sigma Phi_p[sigma] Phi_q[partner(sigma)] (nu)_{r_sigma}.

    Phi is imgs, the images as rook_images returns them; the caller builds
    it once.  With partner the inverse the sum is the trace form's entry,
    with the identity the Gram matrix's.
    """
    holders: dict[PartialInjection, list[int]] = defaultdict(list)
    for iq, img in enumerate(imgs):
        for s in img:
            holders[s].append(iq)
    falling = [NuPoly.one()]
    for j in range(max(map(coset_corank, holders), default=0)):
        falling.append(falling[-1] * NuPoly((-j, 1)))
    off = []
    for ip, img in enumerate(imgs):
        closed = [NuPoly.zero()] * len(imgs)
        for s in img:
            for iq in holders.get(partner(s), ()):
                closed[iq] += falling[coset_corank(s)]
        off += [(ip, iq) for iq, c in enumerate(closed) if M[ip][iq] != c]
    return off


def gram_faults(G, imgs: Sequence[dict[PartialInjection, int]]) -> list[tuple[str, int, int]]:
    """Each fault of G as (kind, p, q): every asymmetry pair, p > q, then every gram-off-closed-form entry.

    The closed form Phi^T D Phi, Phi = imgs, is symmetric, so an asymmetric pair is off it too.
    """
    asymmetric = [("asymmetry", p, q) for p in range(len(G)) for q in range(p) if G[p][q] != G[q][p]]
    return asymmetric + [("gram-off-closed-form", p, q) for p, q in off_closed_form(G, imgs, lambda s: s)]


def gram_positive_definite(imgs: Sequence[dict[PartialInjection, int]], x) -> bool:
    """Whether G(x) is positive definite, for a G with no fault gram_faults lists against Phi = imgs.

    G = Phi^T D Phi with Phi unitriangular, so G(x) is positive definite exactly when
    every (x)_r = x (x - 1) ... (x - r + 1) > 0, r over the coranks of Phi's keys:
    at alpha = 0 that is (x)_0 = 1 alone, true at every x.
    """
    return all(prod(x - j for j in range(r)) > 0 for r in {coset_corank(s) for img in imgs for s in img})


def dimension_suite(
    alpha: int,
    ns: Iterable[int] | None = None,
    *,
    max_counterexamples: int = 5,
) -> VerificationReport:
    """Count everything three ways: closed form, enumeration, representation theory."""
    col = _Collector(max_counterexamples)
    ns = _default_points(alpha, 1) if ns is None else tuple(ns)
    ctxs = _contexts(alpha, ns)
    counted = rook_count(alpha)
    rooks = rook_enumerate(alpha)
    basis_len = len(basis_enumerate(alpha))
    if not counted == len(rooks) == basis_len:
        col.add("dimension-mismatch", closed_form=counted, enumerated=len(rooks), basis=basis_len)
    fsd = fixed_space_dimensions(alpha)
    if sum(d * d for d in fsd) != counted:
        col.add("square-sum-mismatch", dims=list(fsd), expected=counted)
    coset_counts: dict[str, int] = {}
    for ctx in ctxs:
        n = ctx.n
        sizes: dict[PartialInjection, int] = {}
        total = 0
        for u in all_permutations(ctx.degree):
            sigma = corner_map(u, alpha)
            sizes[sigma] = sizes.get(sigma, 0) + 1
            total += 1
        expected = sum(1 for s in rooks if coset_corank(s) <= n)
        if len(sizes) != expected:
            col.add("coset-count-mismatch", n=n, found=len(sizes), expected=expected)
        if total != factorial(ctx.degree):
            col.add("group-size-mismatch", n=n, found=total)
        for sigma, size in sizes.items():
            if size != coset_size(ctx, sigma):
                col.add("coset-size-mismatch", n=n, sigma=list(sigma.serialize()), found=size)
        coset_counts[str(n)] = len(sizes)
    return col.report(
        "dimensions",
        {"alpha": alpha, "ns": list(ns)},
        dimension=counted,
        fixed_space_dimensions=list(fsd),
        cosets_by_n=coset_counts,
    )


def relation_suite(alpha: int, n: int, *, max_counterexamples: int = 5) -> VerificationReport:
    """The engine's defining relations, and the cosets they rest on, against convolution at nu = n.

    Each relation is a word in word_to_state's tokens: A(g) A(h), T_i A(g), T_i T_i, T_u T_v (u > v)
    and A((uv)) T_v T_u (v < u).  The oracle product along the word must equal sum w(n) phi(child)
    over the engine's first rewriting step (_sites, _emit), or phi of the word's state when that is
    admissible, so a rule with a term changed fails as its relation.  Then the augmentation, the
    coset sizes and partition, and (at degree <= 6) biinvariance are checked.
    """
    col = _Collector(max_counterexamples)
    (ctx,) = _contexts(alpha, (n,))
    if n < 1:
        raise ValueError("relation checks need n >= 1 so hole generators exist")
    perms = tuple(all_permutations(alpha))
    holes = range(1, alpha + 1)
    a = {g: gen_perm(g, ctx) for g in perms}
    th = {i: gen_hole(i, ctx) for i in holes}

    def image(word) -> BiinvariantElement:
        return reduce(dc_multiply, [a[p] if kind == "perm" else th[p] for kind, p in word])

    words = [("perm-product", [("perm", g), ("perm", h)], {"g": list(g.images), "h": list(h.images)})
             for g in perms for h in perms]
    words += [("hole-slide", [("hole", i), ("perm", g)], {"g": list(g.images), "i": i})
              for g in perms for i in holes]
    words += [("hole-square", [("hole", i), ("hole", i)], {"i": i}) for i in holes]
    for v, u in combinations(holes, 2):
        tau = Permutation.transposition(alpha, u, v)
        words.append(("hole-exchange", [("hole", u), ("hole", v)], {"u": u, "v": v}))
        words.append(("hole-erase", [("perm", tau), ("hole", v), ("hole", u)], {"u": v, "v": u}))
    checks = len(words)
    for kind, word, info in words:
        state = word_to_state(alpha, word)
        sites = _sites(*state)
        # the engine's first rewriting step, or the state itself when it is admissible
        children = _emit(*sites[0], *state) if sites else [(1, *state)]
        rhs = [(_as_poly(w).evaluate(n), image([("perm", Permutation(g))] + [("hole", j) for j in js]).items())
               for w, g, js in children]
        if image(word) != BiinvariantElement._trusted(ctx, combine(rhs)):
            col.add(kind, **info)
    for g in perms:
        for i in range(1, alpha + 1):
            checks += 1
            prod = dc_multiply(a[g], th[i])
            if prod.augmentation() != a[g].augmentation() * th[i].augmentation():
                col.add("augmentation", g=list(g.images), i=i)

    total_size = 0
    printed_disagrees = False
    nf = factorial(n)
    for sigma in rook_enumerate(alpha):
        r = coset_corank(sigma)
        if r > n:
            continue
        checks += 1
        enumerated = len(coset_enumerate(sigma, ctx))
        total_size += enumerated
        if enumerated != coset_size(ctx, sigma):
            col.add("coset-size", sigma=list(sigma.serialize()), found=enumerated)
        if enumerated != nf * factorial(n - r):
            printed_disagrees = True
    if total_size != factorial(ctx.degree):
        col.add("coset-partition", found=total_size, expected=factorial(ctx.degree))
    if printed_disagrees:
        col.warnings.append(
            "printed-coset-size-formula n!*(n-r)! disagrees with the enumerated coset size "
            f"at alpha={alpha}, n={n}; the enumerated count matches (n!)^2/(n-r)!, "
            "which is authoritative and is what this library uses"
        )

    biinvariance_checked = 0
    if ctx.degree <= 6:
        for sigma in rook_enumerate(alpha):
            if coset_corank(sigma) > n:
                continue
            e = BiinvariantElement.basis(ctx, sigma).embed()
            biinvariance_checked += 1
            if project_biinvariant(e) != e:
                col.add("biinvariance", sigma=list(sigma.serialize()))

    return col.report(
        "relations",
        {"alpha": alpha, "n": n},
        checks=checks,
        biinvariance_checked=biinvariance_checked,
    )


def _check_point(col: _Collector, tbl: StructureTable, ctx: Context, **tag) -> tuple[list, int]:
    """Every pair at nu = ctx.n against convolution, failures tagged with `tag`.

    Returns the images at ctx.n and the number of pairs also checked by the convolve route.
    """
    imgs = monomial_images(tbl.basis, ctx)

    def table_side(row) -> BiinvariantElement:
        # the keys are the images' own, already valid in ctx
        terms = ((poly.evaluate(ctx.n), imgs[ir].items()) for ir, poly in row)
        return BiinvariantElement._trusted(ctx, combine((c, v) for c, v in terms if c))

    # one right-hand side per row, shared by the pairs that point at it
    rhs_of = tbl.map_rows(table_side)
    dim = tbl.dimension
    dual_limit = dim if dim <= 12 else 12
    dual_route = ctx.degree <= 6
    dual_checked = 0
    for ip in range(dim):
        for iq in range(dim):
            lhs = dc_multiply(imgs[ip], imgs[iq], via="fast")
            if dual_route and ip < dual_limit and iq < dual_limit:
                dual_checked += 1
                if dc_multiply(imgs[ip], imgs[iq], via="convolve") != lhs:
                    col.add("route-disagreement", p=ip, q=iq, **tag)
            rhs = rhs_of[ip][iq]
            if lhs != rhs:
                col.add(
                    "structure-mismatch",
                    p=ip,
                    q=iq,
                    convolution=_pairs_obj(lhs),
                    table=_pairs_obj(rhs),
                    **tag,
                )
    return imgs, dual_checked


def crosscheck_structure(alpha: int, n: int, *, max_counterexamples: int = 5) -> VerificationReport:
    """Structure constants at nu = n against brute-force convolution, all pairs."""
    col = _Collector(max_counterexamples)
    (ctx,) = _contexts(alpha, (n,))
    tbl = structure_table(alpha)
    _, dual_checked = _check_point(col, tbl, ctx)
    return col.report(
        "crosscheck",
        {"alpha": alpha, "n": n},
        dimension=tbl.dimension,
        pairs=tbl.dimension**2,
        dual_route_pairs=dual_checked,
        max_nu_degree=tbl.max_degree(),
    )


def crosscheck_multi(
    alpha: int,
    ns: Iterable[int] | None = None,
    *,
    max_counterexamples: int = 5,
) -> VerificationReport:
    """Crosscheck at several integer values; enough independent points pin the polynomials.

    Each distinct point is checked once, in first-seen order, its
    counterexamples tagged with n; params keeps ns as given.  A point n
    counts toward pinning only when the images the check used there are
    unitriangular, and so independent: below that, a wrong row plus a null
    vector of the images agrees with the oracle at n.  The default points
    are n = alpha, ..., ORACLE_DEGREE_LIMIT - alpha, at most max degree + 1
    of them, since the images are dependent below n = alpha; when there is
    none, the run is refused with CapacityError before the table is built.
    """
    col = _Collector(max_counterexamples)
    if ns is None:
        _require_default_points(alpha)
    else:
        ns = tuple(ns)
        ctxs = _contexts(alpha, ns)
    tbl = structure_table(alpha)
    max_deg = tbl.max_degree()
    if ns is None:
        ns = _default_points(alpha, max_deg + 1)
        ctxs = _contexts(alpha, ns)
    independent = set()
    for ctx in ctxs:
        imgs, _ = _check_point(col, tbl, ctx, n=ctx.n)
        if all(_unitriangular(m, dict(x.items())) for m, x in zip(tbl.basis, imgs)):
            independent.add(ctx.n)
    pinned = len(independent) >= max_deg + 1
    if not pinned:
        col.warnings.append(
            f"only {len(independent)} of the {len(ctxs)} distinct points checked have independent "
            f"monomial images, against polynomial degree {max_deg}; equality is verified at the "
            "points checked but the polynomials are not pinned by them"
        )
    return col.report(
        "crosscheck",
        {"alpha": alpha, "ns": list(ns)},
        dimension=tbl.dimension,
        points=len(ctxs),
        independent_points=sorted(independent),
        max_nu_degree=max_deg,
        degree_pinned=pinned,
    )


def limit_suite(alpha: int, *, max_counterexamples: int = 5) -> VerificationReport:
    """The rescaled limit of the table must be the partial-injection monoid algebra."""
    col = _Collector(max_counterexamples)
    tbl = structure_table(alpha)
    try:
        limits = scaled_limit_table(tbl)
    except ConsistencyError as exc:
        payload = exc.payload if isinstance(exc.payload, dict) else {}
        col.add("divergent-entry", **payload)
        return col.report("limit", {"alpha": alpha})
    rooks = [m.to_rook() for m in tbl.basis]
    index_of_rook = {sigma: i for i, sigma in enumerate(rooks)}
    for ip, limits_of_p in enumerate(limits):
        for iq, got in enumerate(limits_of_p):
            expected_ir = index_of_rook[rooks[ip] * rooks[iq]]
            if got != ((expected_ir, Fraction(1)),):
                col.add(
                    "limit-mismatch",
                    p=ip,
                    q=iq,
                    expected_r=expected_ir,
                    got=[[ir, format_rational(c)] for ir, c in got],
                )
    return col.report(
        "limit", {"alpha": alpha}, dimension=tbl.dimension, pairs=tbl.dimension**2
    )


def gram_suite(
    alpha: int,
    ns: Iterable[int] | None = None,
    *,
    max_counterexamples: int = 5,
) -> VerificationReport:
    """Symmetry, the closed form of the Gram matrix, and the images it rests on against the oracle.

    With e_tau* = e_tau^-1, n! trace(e_sigma e_tau*) is (n)_{r_sigma} when
    tau = sigma and 0 otherwise, so G = Phi^T D Phi with D = diag((nu)_{r_sigma})
    and Phi the images of rook_images, built once per run.  Each fault
    gram_faults lists is a counterexample of its kind.  At each distinct
    point n, rook_images less its keys of corank > n must equal
    monomial_images, the brute-force anchor, or the image fails as
    image-mismatch; then G(n) is the oracle's n! trace(phi_p phi_q*) on all
    agreement_pairs.  With no fault, first_positive_definite_integer is
    the smallest integer n >= 0 where gram_positive_definite holds, which
    is alpha, the largest corank; with a fault it is null.  A run with no
    default point (alpha + alpha > ORACLE_DEGREE_LIMIT) is refused with
    CapacityError before the Gram matrix is built.
    """
    col = _Collector(max_counterexamples)
    if ns is None:
        _require_default_points(alpha)
    ns = _default_points(alpha, 2) if ns is None else tuple(ns)
    ctxs = _contexts(alpha, ns)
    G = gram_matrix(alpha)
    dim = len(G)
    basis = basis_enumerate(alpha)
    rooks = rook_images(basis)
    faults = gram_faults(G, rooks)
    first_pd = None if faults else next(n for n in count() if gram_positive_definite(rooks, n))
    for kind, ip, iq in faults:
        col.add(kind, p=ip, q=iq)
    for ctx in ctxs:
        for ip, x in enumerate(monomial_images(basis, ctx)):
            if dict(x.items()) != {s: 1 for s in rooks[ip] if coset_corank(s) <= ctx.n}:
                col.add("image-mismatch", n=ctx.n, p=ip, convolution=_pairs_obj(x))
    return col.report(
        "gram",
        {"alpha": alpha, "ns": list(ns)},
        dimension=dim,
        agreement_pairs=len(ctxs) * dim * dim,
        first_positive_definite_integer=first_pd,
    )


def semisimplicity_probe(alpha: int, *, max_counterexamples: int = 5) -> VerificationReport:
    """The trace form B against its closed form, entry by entry, and so its determinant.

    trace(e_sigma e_tau) is (nu)_{r_sigma} when tau = sigma^-1 and 0
    otherwise, r_sigma holes, so B = Phi^T G0 Phi, with Phi the images of
    rook_images and G0 the permutation matrix of sigma -> sigma^-1 times
    diag((nu)_{r_sigma}).  Every entry off that sum fails as
    trace-form-off-closed-form.  Phi is unitriangular, so a pass proves
    det B = det G0 = (-1)^s prod_sigma (nu)_{r_sigma}
    = (-1)^s prod_{j < alpha} (nu - j)^{k_j}, with s half the number of
    sigma != sigma^-1 and k_j = #{sigma : r_sigma > j}: B is nonsingular at
    every x >= alpha.  A failed probe reports no determinant.
    """
    col = _Collector(max_counterexamples)
    tbl = structure_table(alpha)
    for ip, iq in off_closed_form(trace_form(tbl), rook_images(tbl.basis), PartialInjection.inverse):
        col.add("trace-form-off-closed-form", p=ip, q=iq)
    coranks = [m.hole_degree for m in tbl.basis]
    nullities = {j: sum(r > j for r in coranks) for j in range(alpha)}
    sign = (-1) ** (sum(s != s.inverse() for s in map(Monomial.to_rook, tbl.basis)) // 2)
    proved = col.total == 0
    return col.report(
        "semisimplicity",
        {"alpha": alpha},
        dimension=tbl.dimension,
        det_degree=sum(coranks) if proved else None,
        det_leading=format_rational(sign) if proved else None,
        rational_roots=[format_rational(j) for j, k in nullities.items() for _ in range(k)] if proved else None,
        root_multiplicities={format_rational(j): k for j, k in nullities.items()} if proved else None,
    )
