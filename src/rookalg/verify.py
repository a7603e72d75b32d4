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

Suites do not stop at the first failure: they keep checking and collect up
to max_counterexamples of them (default 5) for diagnosis, with the full
failure count in the metrics.  One collector per run times it and builds
its report; a suite that checks several points adds every point's failures
to that one collector.  The report's canonical JSON leaves the timing out,
so equal runs print equal bytes.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .algebra import Monomial, basis_enumerate
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
from .tables import (
    StructureTable,
    _det_factors,
    evaluate_matrix,
    gram_matrix,
    positive_definite,
    rank,
    scaled_limit_table,
    smallest_pd_nu,
    structure_table,
    trace_form,
)


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


def _require_oracle_degree(ctx: Context) -> None:
    if ctx.degree > ORACLE_DEGREE_LIMIT:
        raise CapacityError(
            f"brute-force check at degree {ctx.degree} exceeds the limit {ORACLE_DEGREE_LIMIT}"
        )


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
    out = []
    for m in basis:
        x = gen_perm(m.perm, ctx)
        for i in m.holes:
            x = dc_multiply(x, gen_hole(i, ctx), via="fast")
        out.append(x)
    return out


def dimension_suite(
    alpha: int,
    ns: Iterable[int] | None = None,
    *,
    max_counterexamples: int = 5,
) -> VerificationReport:
    """Count everything three ways: closed form, enumeration, representation theory."""
    col = _Collector(max_counterexamples)
    ns = _default_points(alpha, 1) if ns is None else tuple(ns)
    counted = rook_count(alpha)
    enumerated = len(rook_enumerate(alpha))
    basis_len = len(basis_enumerate(alpha))
    if not counted == enumerated == basis_len:
        col.add("dimension-mismatch", closed_form=counted, enumerated=enumerated, basis=basis_len)
    fsd = fixed_space_dimensions(alpha)
    if sum(d * d for d in fsd) != counted:
        col.add("square-sum-mismatch", dims=list(fsd), expected=counted)
    coset_counts: dict[str, int] = {}
    for n in ns:
        ctx = Context(alpha, n)
        _require_oracle_degree(ctx)
        sizes: dict[PartialInjection, int] = {}
        total = 0
        for u in all_permutations(ctx.degree):
            sigma = corner_map(u, alpha)
            sizes[sigma] = sizes.get(sigma, 0) + 1
            total += 1
        expected = sum(1 for s in rook_enumerate(alpha) if coset_corank(s) <= n)
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
    """Check that convolution of generator images satisfies the defining relations."""
    col = _Collector(max_counterexamples)
    ctx = Context(alpha, n)
    _require_oracle_degree(ctx)
    if n < 1:
        raise ValueError("relation checks need n >= 1 so hole generators exist")
    perms = tuple(all_permutations(alpha))
    a = {g: gen_perm(g, ctx) for g in perms}
    th = {i: gen_hole(i, ctx) for i in range(1, alpha + 1)}
    one = gen_perm(Permutation.identity(alpha), ctx)

    checks = 0
    for g in perms:
        for h in perms:
            checks += 1
            if dc_multiply(a[g], a[h]) != a[g * h]:
                col.add("perm-product", g=list(g.images), h=list(h.images))
    for g in perms:
        for i in range(1, alpha + 1):
            checks += 1
            if dc_multiply(th[i], a[g]) != dc_multiply(a[g], th[g.inverse()(i)]):
                col.add("hole-slide", g=list(g.images), i=i)
    for i in range(1, alpha + 1):
        checks += 1
        if dc_multiply(th[i], th[i]) != th[i].scale(n - 1) + one.scale(n):
            col.add("hole-square", i=i)
    for v in range(1, alpha + 1):
        for u in range(v + 1, alpha + 1):
            tau = Permutation.transposition(alpha, u, v)
            checks += 1
            lhs = dc_multiply(th[u], th[v])
            rhs = dc_multiply(th[v], th[u]) + dc_multiply(a[tau], th[u]) - dc_multiply(a[tau], th[v])
            if lhs != rhs:
                col.add("hole-exchange", u=u, v=v)
            checks += 1
            ascending = dc_multiply(th[v], th[u])
            if dc_multiply(a[tau], ascending) != ascending + th[v] - dc_multiply(a[tau], th[v]):
                col.add("hole-erase", u=v, v=u)
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
    ctx = Context(alpha, n)
    _require_oracle_degree(ctx)
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


def _image_rank(imgs: Sequence[BiinvariantElement]) -> int:
    """Rank over Q of the elements, as coefficient vectors over the coset keys they use."""
    keys = list(dict.fromkeys(k for x in imgs for k, _ in x.items()))
    return rank([[x.coefficient(k) for k in keys] for x in imgs])


def crosscheck_multi(
    alpha: int,
    ns: Iterable[int] | None = None,
    *,
    max_counterexamples: int = 5,
) -> VerificationReport:
    """Crosscheck at several integer values; enough independent points pin the polynomials.

    Each point is checked once, its counterexamples tagged with n.  A point
    n counts toward pinning only when the images the check used there have
    full rank: below that, a wrong row plus a null vector of the images
    agrees with the oracle at n.  The default points are n = alpha, ...,
    ORACLE_DEGREE_LIMIT - alpha, at most max degree + 1 of them, since the
    images are dependent below n = alpha; when there is none, the run is
    refused with CapacityError before the table is built.
    """
    col = _Collector(max_counterexamples)
    if ns is None:
        _require_default_points(alpha)
    tbl = structure_table(alpha)
    max_deg = tbl.max_degree()
    ns = _default_points(alpha, max_deg + 1) if ns is None else tuple(ns)
    independent = set()
    for n in ns:
        ctx = Context(alpha, n)
        _require_oracle_degree(ctx)
        imgs, _ = _check_point(col, tbl, ctx, n=n)
        if _image_rank(imgs) == tbl.dimension:
            independent.add(n)
    points = len(set(ns))
    pinned = len(independent) >= max_deg + 1
    if not pinned:
        col.warnings.append(
            f"only {len(independent)} of the {points} distinct points checked have independent "
            f"monomial images, against polynomial degree {max_deg}; equality is verified at the "
            "points checked but the polynomials are not pinned by them"
        )
    return col.report(
        "crosscheck",
        {"alpha": alpha, "ns": list(ns)},
        dimension=tbl.dimension,
        points=points,
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
    """Symmetry, positive definiteness at integers, and agreement with convolution.

    Positive definiteness is tested only on a symmetric G; an asymmetric
    one fails as asymmetry, reports first_positive_definite_integer null,
    and is still checked against convolution.  A run with no default point
    (alpha + alpha > ORACLE_DEGREE_LIMIT) is refused with CapacityError
    before the Gram matrix is built.
    """
    col = _Collector(max_counterexamples)
    if ns is None:
        _require_default_points(alpha)
    ns = _default_points(alpha, 2) if ns is None else tuple(ns)
    ctxs = [Context(alpha, n) for n in ns]
    for ctx in ctxs:
        _require_oracle_degree(ctx)
    G = gram_matrix(alpha)
    dim = len(G)
    basis = basis_enumerate(alpha)
    for ip in range(dim):
        for iq in range(ip):
            if G[ip][iq] != G[iq][ip]:
                col.add("asymmetry", p=ip, q=iq)
    # the Sylvester test reads only symmetric matrices
    symmetric = col.total == 0
    agreement_pairs = 0
    # n! times the trace: the coefficient of the identity coset
    one = PartialInjection.identity(alpha)
    for ctx in ctxs:
        n = ctx.n
        mat = evaluate_matrix(G, n)
        if symmetric and n >= alpha and not positive_definite(mat):
            col.add("not-positive-definite", n=n)
        imgs = monomial_images(basis, ctx)
        stars = [x.star() for x in imgs]
        for ip in range(dim):
            for iq in range(dim):
                agreement_pairs += 1
                oracle_val = dc_multiply(imgs[ip], stars[iq], via="fast").coefficient(one)
                if oracle_val != mat[ip][iq]:
                    col.add(
                        "gram-mismatch",
                        n=n,
                        p=ip,
                        q=iq,
                        convolution=format_rational(oracle_val),
                        table=format_rational(mat[ip][iq]),
                    )
    return col.report(
        "gram",
        {"alpha": alpha, "ns": list(ns)},
        dimension=dim,
        agreement_pairs=agreement_pairs,
        first_positive_definite_integer=smallest_pd_nu(G, stop=4 * alpha) if symmetric else None,
    )


def semisimplicity_probe(alpha: int, *, max_counterexamples: int = 5) -> VerificationReport:
    """Determinant of the trace form: a nonzero polynomial certifies semisimplicity
    away from its finitely many roots.

    B = Phi^T G Phi, with Phi the monomial images in the coset basis, which is
    unitriangular, and G[sigma][sigma^-1] = (nu)_{r_sigma}, r_sigma holes, the
    only nonzero entries of G.  So B has nullity #{sigma : r_sigma > j} at
    nu = j, and det B = (-1)^s prod_sigma (nu)_{r_sigma}, s half the number of
    sigma != sigma^-1.  The factors of _det_factors must be exactly these; any
    other nonzero determinant fails as determinant-off-closed-form, and a
    cofactor that is not constant is warned of, its roots unlisted.  The
    reported roots, the singular points with their nullities, are candidates
    for degeneration; the probe makes no claim that each one is degenerate.
    """
    col = _Collector(max_counterexamples)
    tbl = structure_table(alpha)
    nullities, cofactor = _det_factors(trace_form(tbl))
    probe_at = alpha + 1
    if not cofactor:
        col.add("degenerate-trace-form")
        nullities = {}
    else:
        if probe_at in nullities or cofactor.evaluate(probe_at) == 0:
            col.add("vanishing-just-past-alpha", at=probe_at)
        found = {str(x): k for x, k in nullities.items()}
        expected = {str(j): sum(m.hole_degree > j for m in tbl.basis) for j in range(alpha)}
        swapped = sum(s != s.inverse() for s in map(Monomial.to_rook, tbl.basis))
        if found != expected or cofactor != NuPoly.constant((-1) ** (swapped // 2)):
            col.add(
                "determinant-off-closed-form",
                nullities=found,
                expected_nullities=expected,
                cofactor=cofactor.to_strings(),
            )
        if cofactor.degree > 0:
            col.warnings.append(f"the cofactor has degree {cofactor.degree}; its roots are not listed")
    return col.report(
        "semisimplicity",
        {"alpha": alpha},
        dimension=tbl.dimension,
        det_degree=sum(nullities.values()) + cofactor.degree if cofactor else None,
        det_leading=format_rational(cofactor.leading) if cofactor else None,
        rational_roots=[format_rational(x) for x, k in nullities.items() for _ in range(k)],
        root_multiplicities={format_rational(x): k for x, k in nullities.items()},
    )
