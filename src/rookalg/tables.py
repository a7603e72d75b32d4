"""Structure tables of the interpolated algebra, and exact linear algebra on them.

A structure table records, for every ordered pair of admissible basis
monomials, the normal form of their product as polynomial-in-nu
coefficients.  The 43,681 pairs at alpha=4 fuse to only 3,928 distinct
states A(g) T_js, which give 3,928 distinct rows, so a table stores each
distinct row once, in `rows`, and for each pair only the index of its row,
in `row_of` (4 bytes a pair).  The rows share their terms too: the 74,525
(r, poly) terms of the alpha=4 rows are 3,838 distinct values, and each is
one tuple, which every row that holds it points at (`_shared_terms`).  A
build keys each pair's fused state A(g) T_js by one int made of the ids of
js and of g, with `fuse` run once per hole set and basis element and once
per distinct state, not once per pair; it reduces, indexes and checks each
distinct state once, with one rewriting engine.  The engine keys a normal
form by leaf ids, which a list that grows as new leaves appear turns into
basis indices, so rows sort on int keys.  A table read from outside goes
through `StructureTable.from_pairs`, which interns its terms and rows by
value, so a loaded table has the same layout as the built one and equals it.
Every read that turns each pair's row into a result (the JSON and CSV
exports, the trace form, the scaled limit and the oracle crosscheck's
right-hand sides) goes through `StructureTable.map_rows`, which maps each
row once and returns the dimension x dimension matrix of results, out[p][q],
so only `StructureTable` knows where a pair's row index sits in `row_of`.
`StructureTable.json_chunks` holds the one JSON layout and yields the text
in pieces, one per pair, so a writer never holds the whole export nor a
whole row of p (1.26 M chars at alpha=4); `canonical_json` joins them.
`csv_chunks` yields CSV in pieces too, one per basis element p: its largest
is 232 KB at alpha=4, and a piece per pair took a third longer to drain.
Both render each distinct term's text once per export, and a row's export is
a tuple of those shared texts (with JSON's separators), so at alpha=4 an
export holds 3,838 term texts, not one text per row.

Every bilinear form is a view of the table: the trace form is the identity
coefficient of each product, and the Gram matrix is the trace form applied
to the normal forms of the basis stars.  The suites and the CLI check both
against closed forms entry by entry and eliminate nothing.  One
rank-revealing Gaussian elimination over Fractions, `_pivots`, yields
(column, pivot, exchanged) for each pivot of a matrix of any shape, and it
has two readers: the Sylvester test of `positive_definite` and `_point_det`,
the determinant at one point, which `det_polynomial` interpolates.  No
module in the package calls them: the tests check the closed forms against
them, and bench/ traces the two public ones by name.
"""
from __future__ import annotations

import random
import time
from array import array
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence

from .algebra import Monomial, Normalizer, State, basis_enumerate, fuse, star_state
from .capacity import table_limit
from .combinatorics import Frozen, Permutation
from .errors import CapacityError, ConsistencyError
from .nupoly import NuPoly
from .rational import Rational, format_rational
from .sparse import combine

Term = tuple[int, NuPoly]
Row = tuple[Term, ...]


class StructureTable(Frozen):
    """Products of basis monomials: the product of pair (p, q) is rows[row_of[p * dimension + q]].

    rows holds each distinct row ((r, poly), ...) once, with r increasing, in
    the order of the first pair (p, q) that reaches it; row_of holds one row
    index per pair, in (p, q) order.  Equal terms (r, poly) are one tuple,
    shared by every row that holds them.

    Like every value class it is a slotted `Frozen`: no field can be reassigned, and it has
    no instance dict.  build_stats is the last slot and is left out of `_key`, so equality and
    the repr leave it out, and row_of, an array, makes a table unhashable.
    """

    __slots__ = ("alpha", "basis", "rows", "row_of", "build_stats")
    alpha: int
    basis: tuple[Monomial, ...]
    rows: tuple[Row, ...]
    row_of: array
    build_stats: dict

    def __init__(self, alpha: int, basis, rows, row_of: array, build_stats: dict | None = None) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_of", row_of)
        object.__setattr__(self, "build_stats", {} if build_stats is None else build_stats)

    def _key(self) -> tuple:
        # build_stats is left out: equal tables built at different times stay equal
        return (self.alpha, self.basis, self.rows, self.row_of)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index_of(self, m: Monomial) -> int:
        """The index of m in the basis; KeyError if m is not a basis monomial."""
        return {b: i for i, b in enumerate(self.basis)}[m]

    def product(self, ip: int, iq: int) -> Row:
        dim = len(self.basis)
        if not (0 <= ip < dim and 0 <= iq < dim):
            raise IndexError(f"pair ({ip}, {iq}) is outside range({dim})")
        return self.rows[self.row_of[ip * dim + iq]]

    @property
    def constants(self) -> dict[tuple[int, int], Row]:
        """{(p, q): row}, built on each read; kept because the benchmark tracer in bench/ reads it."""
        return {
            (ip, iq): row for ip, rows in enumerate(self.map_rows(lambda row: row)) for iq, row in enumerate(rows)
        }

    def max_degree(self) -> int:
        return max((int(c.degree) for row in self.rows for _, c in row if c), default=0)

    def map_rows(self, fn) -> list[list]:
        """The dimension x dimension matrix out with out[p][q] = fn(self.product(p, q)).

        fn is called once per row, and its results are spread over the pairs
        through row_of.
        """
        mapped = [fn(row) for row in self.rows]
        dim = self.dimension
        return [list(map(mapped.__getitem__, self.row_of[ip * dim : (ip + 1) * dim])) for ip in range(dim)]

    @staticmethod
    def _exported_terms(nu, render):
        """fn(row) -> (text, ...): the text of each exported term of a row.

        The text of a term (r, poly) is render(r, coefficients): without nu
        the coefficients are its polynomial's "p/q" strings; at a point they
        are the one value there, and a term that vanishes is dropped.  One fn
        renders each distinct term once, keyed by (r, poly.coeffs), and every
        row that holds the term shares that one text.
        """
        texts: dict[tuple, str | None] = {}

        def text(ir, poly) -> str | None:
            if nu is None:
                return render(ir, poly.to_strings())
            v = poly.evaluate(nu)
            return render(ir, [format_rational(v)]) if v else None

        def terms(row) -> tuple[str, ...]:
            out = []
            for ir, poly in row:
                key = (ir, poly.coeffs)
                if key not in texts:
                    texts[key] = text(ir, poly)
                if (t := texts[key]) is not None:
                    out.append(t)
            return tuple(out)

        return terms

    def json_chunks(self, nu=None) -> Iterator[str]:
        """The table as JSON in pieces, indented as json.dumps(indent=2) would, with a final newline.

        The first piece holds the header and the basis, then one piece per
        pair (p, q), in that order, holds its {"p", "q", "terms"} entry of
        "constants" (with the separator before it), and the last piece closes
        the text, so no piece grows with a whole row of p: at alpha=4 the
        largest is 30,646 chars, where one piece per p reached 1,258,577.  Each
        distinct term's text is rendered once, and each row once, as a tuple
        of pieces (the list's separators and the shared term texts) that each
        entry pointing at that row joins into its own piece; no row is joined
        into a text of its own.
        """
        nu_text = "null" if nu is None else f'"{format_rational(nu)}"'
        basis = [
            f'{{\n      "g": {_json_list(map(str, m.perm.images), 6)},'
            f'\n      "I": {_json_list(map(str, m.holes), 6)}\n    }}'
            for m in self.basis
        ]
        yield (
            f'{{\n  "alpha": {self.alpha},\n  "nu": {nu_text},'
            f'\n  "basis": {_json_list(basis, 2)},\n  "constants": '
        )

        def term(ir, texts) -> str:
            poly = _json_list((f'"{t}"' for t in texts), 10)
            return f'{{\n          "r": {ir},\n          "poly": {poly}\n        }}'

        terms_of = self._exported_terms(nu, term)
        opening, comma, closing = _json_separators(6)

        def pieces(row) -> tuple[str, ...]:
            texts = terms_of(row)
            if not texts:
                return ("[]",)
            out = [comma] * (2 * len(texts) + 1)
            out[0], out[1::2], out[-1] = opening, texts, closing
            return tuple(out)

        qs = [f'\n      "q": {iq},\n      "terms": ' for iq in range(self.dimension)]
        sep = "[\n    "
        for ip, pieces_of_p in enumerate(self.map_rows(pieces)):
            p = f'{{\n      "p": {ip},'
            for q, row_pieces in zip(qs, pieces_of_p):
                yield "".join((sep, p, q, *row_pieces, "\n    }"))
                sep = ",\n    "
        yield "\n  ]\n}\n" if self.dimension else "[]\n}\n"

    def canonical_json(self, nu=None) -> str:
        """The table as JSON: the pieces of json_chunks, joined; kept because bench/ reads it."""
        return "".join(self.json_chunks(nu))

    @classmethod
    def from_pairs(cls, alpha: int, basis: Sequence[Monomial], pairs) -> "StructureTable":
        """The table whose product of pair (p, q) is terms, for each ((p, q), terms) in pairs.

        The one checking constructor: a malformed table raises ValueError
        naming the entry.  Every basis monomial has degree alpha and appears
        once; every pair of basis indices appears exactly once, with indices
        in range, r values that increase strictly and coefficients that are
        nonzero NuPoly values.  Equal terms and then equal rows are interned by
        value in (p, q) order, as structure_table interns them, so the layout
        does not depend on which objects the pairs share, and a table built by
        structure_table comes back equal to itself, with its terms shared alike.
        """
        basis = tuple(basis)
        first: dict[Monomial, int] = {}
        for i, m in enumerate(basis):
            if m.alpha != alpha:
                raise ValueError(f"basis entry {i} has degree {m.alpha}, but alpha is {alpha}")
            if m in first:
                raise ValueError(f"basis entry {i} repeats basis entry {first[m]}")
            first[m] = i
        dim = len(basis)
        slots: list[Row | None] = [None] * (dim * dim)
        shared: dict[Term, Term] = {}
        for (ip, iq), terms in pairs:
            key = (ip, iq)
            terms = tuple(terms)
            rs = [ir for ir, _ in terms]
            bad = [i for i in (*key, *rs) if not 0 <= i < dim]
            if bad:
                raise ValueError(f"constants entry {key} has index {bad[0]} outside range({dim})")
            if any(a >= b for a, b in zip(rs, rs[1:])):
                raise ValueError(f"constants entry {key} has r values that do not increase strictly: {rs}")
            for ir, c in terms:
                if not isinstance(c, NuPoly) or not c:
                    raise ValueError(f"constants entry {key} has coefficient {c!r} at r={ir}, not a nonzero NuPoly")
            if slots[ip * dim + iq] is not None:
                raise ValueError(f"constants entry {key} repeats")
            slots[ip * dim + iq] = _shared_terms(terms, shared)
        if None in slots:
            raise ValueError(f"constants entry {divmod(slots.index(None), dim)} is missing")
        index: dict[Row, int] = {}
        row_of = array("I", [index.setdefault(row, len(index)) for row in slots])
        return cls(alpha, basis, tuple(index), row_of)

    @classmethod
    def from_json_obj(cls, obj) -> "StructureTable":
        """The table from json.loads of its canonical_json().

        A malformed one raises ValueError naming the entry, or the field
        that is missing or holds the wrong type.  Each coefficient must be a
        "p/q" string, so no float or other JSON value is read as a number,
        and each term's polynomial must be nonzero, as every export writes it.
        """
        if type(obj) is not dict:
            raise ValueError("the table is not an object")
        if obj.get("nu") is not None:
            raise ValueError(
                f'field "nu" is "{obj["nu"]}": a table exported at a point does not load as polynomials'
            )
        alpha = _field(obj, "alpha", "the table", "an integer")
        basis = []
        for i, e in enumerate(_field(obj, "basis", "the table", "a list")):
            g, holes = (tuple(_field(e, k, f"basis[{i}]", "a list of integers")) for k in ("g", "I"))
            basis.append(Monomial(Permutation(g), holes))

        def terms(i, e):
            for j, t in enumerate(_field(e, "terms", f"constants[{i}]", "a list")):
                where = f"constants[{i}].terms[{j}]"
                poly = _field(t, "poly", where)
                if not isinstance(poly, list):
                    raise ValueError(f"{where}.poly is not a list")
                for k, c in enumerate(poly):
                    if type(c) is not str:
                        raise ValueError(f"{where}.poly[{k}] is not a string")
                try:
                    value = NuPoly.from_strings(poly)
                except ValueError as e:
                    raise ValueError(f"{where}.poly: {e}") from None
                if not value:
                    raise ValueError(f"{where}.poly is zero")
                yield _field(t, "r", where, "an integer"), value

        def pair(i, e):
            return tuple(_field(e, k, f"constants[{i}]", "an integer") for k in ("p", "q"))

        pairs = ((pair(i, e), terms(i, e)) for i, e in enumerate(_field(obj, "constants", "the table", "a list")))
        return cls.from_pairs(alpha, basis, pairs)

    def csv_chunks(self, nu=None) -> Iterator[str]:
        """The table as CSV lines, in pieces: the header, then one piece per basis element p.

        Each distinct term's "r,poly" tail, newline included, is rendered once and shared by every
        line that ends in it; each pair's "p,q," prefix is one string that its lines share.
        """
        yield "p,q,r,poly\n"
        tails_of = self._exported_terms(nu, lambda ir, texts: f"{ir},{' '.join(texts)}\n")
        for ip, tails_of_p in enumerate(self.map_rows(tails_of)):
            prefixes = [f"{ip},{iq}," for iq in range(self.dimension)]
            yield "".join([s for pq, tails in zip(prefixes, tails_of_p) for tail in tails for s in (pq, tail)])


# what a loaded field may hold, under the name its ValueError gives it
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a list": lambda v: type(v) is list,
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
}


def _field(obj, name: str, where: str, kind: str | None = None):
    """obj[name], or a ValueError saying that `where` has no field `name`,
    or one that its field `name` is not of `kind`, a key of _KINDS."""
    try:
        value = obj[name]
    except (KeyError, TypeError):
        raise ValueError(f'{where} has no field "{name}"') from None
    if kind is not None and not _KINDS[kind](value):
        raise ValueError(f'{where} has a field "{name}" that is not {kind}')
    return value


def _json_separators(indent: int) -> tuple[str, str, str]:
    """What json.dumps(indent=2) writes before, between and after the items of a
    non-empty array whose opening bracket sits on a line indented by `indent`."""
    inner = "\n" + " " * (indent + 2)
    return f"[{inner}", "," + inner, f"\n{' ' * indent}]"


def _json_list(items, indent: int) -> str:
    """A JSON array of already-encoded items, laid out as json.dumps(indent=2) does
    for an array whose opening bracket sits on a line indented by `indent`."""
    opening, comma, closing = _json_separators(indent)
    body = comma.join(items)
    return f"{opening}{body}{closing}" if body else "[]"


def _shared_terms(terms, shared: dict[Term, Term]) -> Row:
    """terms as a row whose every (r, poly) is the first equal term in shared, which it extends.

    Equal terms are then one tuple, whichever row holds them: the 74,525
    terms of the alpha=4 rows are 3,838 tuples.
    """
    return tuple([shared.setdefault(term, term) for term in terms])


def _pair_keys(alpha: int, states: list[State]) -> Iterator[list[int]]:
    """For each state p = (g, I) of states, in order, the int key of each pair (p, q) of states.

    Two pairs have equal keys exactly when they fuse to equal states.
    A(g) T_I q = A(g) (A(1) T_I q) = (g h, js), where A(1) T_I q = (h, js), so
    each hole set I is fused with each q once (16 x 209 calls at alpha=4),
    and the key of (p, q) is js_id * alpha! + id(g h), with g h read from a
    table of the products in S_alpha, so states must hold every permutation
    of S_alpha, as the basis states do.  No state of a pair is made here.
    """
    perm_id: dict[tuple[int, ...], int] = {}
    # the id of each q's permutation h, which A(1) T_I q keeps
    hs = [perm_id.setdefault(h, len(perm_id)) for h, _ in states]
    perms = list(perm_id)
    compose = [[perm_id[fuse((g, ()), (h, ()))[0]] for h in perms] for g in perms]
    one = tuple(range(1, alpha + 1))
    js_id: dict[tuple[int, ...], int] = {}
    # hole set I -> js_id * alpha! of the js of each A(1) T_I q
    slid: dict[tuple[int, ...], list[int]] = {}
    for g, holes in states:
        if holes not in slid:
            slid[holes] = [js_id.setdefault(fuse((one, holes), q)[1], len(js_id)) * len(perms) for q in states]
        after_g = compose[perm_id[g]]
        yield [k + after_g[h] for k, h in zip(slid[holes], hs)]


_TABLE_CACHE: dict[int, StructureTable] = {}


def structure_table(alpha: int, *, use_cache: bool = True) -> StructureTable:
    """Build (or fetch) the full structure table for S_alpha.

    use_cache=False builds afresh, kept because bench/ counter tests read a fresh build's stats.

    The product of pair (p, q) is the state `fuse` of their basis states
    (images, js).  `_pair_keys` gives each pair an int key, equal exactly
    when the fused states are, without making the pairs' states; the 43,681
    alpha=4 pairs reach 3,928 keys, and only a new key's state is made, by
    `fuse(p, q)`.  The loop runs in (p, q) order.  A new state is
    reduced by the build's one Normalizer, whose memos keep each js's
    slide phase once and each erase state once (755 and 384 entries at
    alpha=4, not one per state visited), its leaf ids mapped to basis
    indices, sorted and checked to have integer coefficients, once, and its
    row is appended to rows; every pair records the index of its key's row
    in row_of.  Each term of a new row is
    interned by value, and a row equal to an earlier one is not stored
    again, as from_pairs interns terms and rows.  A constant that is not in
    Z[nu] raises ConsistencyError naming the first such pair in (p, q)
    order, which is the pair that reached its row first.

    build_stats holds the Normalizer's counters (the rule firings, states,
    memo hits and digit widenings), plus the dimension and the build time.
    """
    # the limit is checked before the cache, so a cached table is refused too
    limit = table_limit()
    if alpha > limit:
        raise CapacityError(
            f"structure table for alpha={alpha} exceeds the limit {limit}; "
            "raise the capacity explicitly to proceed"
        )
    if use_cache and alpha in _TABLE_CACHE:
        return _TABLE_CACHE[alpha]
    t0 = time.perf_counter()
    basis = basis_enumerate(alpha)
    index = {m: i for i, m in enumerate(basis)}
    nz = Normalizer()
    # the basis index of each leaf id of nz, extended as new leaves appear
    basis_of: list[int] = []
    shared: dict[Term, Term] = {}
    row_index: dict[Row, int] = {}
    row_of = array("I")
    states = [(m.perm.images, m.holes) for m in basis]
    key_row: dict[int, int] = {}
    for ip, keys in enumerate(_pair_keys(alpha, states)):
        p = states[ip]
        for iq, key in enumerate(keys):
            if key in key_row:
                continue
            nf = nz.reduce(*fuse(p, states[iq]))
            basis_of += map(index.__getitem__, nz.monomials[len(basis_of) :])
            row = _shared_terms(sorted([(basis_of[k], c) for k, c in nf.items()], key=itemgetter(0)), shared)
            # every rule coefficient lies in Z[nu], so every structure constant must too
            for ir, poly in row:
                for c in poly.coeffs:
                    if type(c) is not int:
                        raise ConsistencyError(
                            "non-integral structure constant",
                            {"p": ip, "q": iq, "r": ir, "coefficient": format_rational(c)},
                        )
            key_row[key] = row_index.setdefault(row, len(row_index))
        row_of.extend(map(key_row.__getitem__, keys))
    stats = dict(nz.stats, dimension=len(basis), elapsed_s=time.perf_counter() - t0)
    table = StructureTable(alpha, basis, tuple(row_index), row_of, stats)
    if use_cache:
        _TABLE_CACHE[alpha] = table
    return table


def check_associativity(
    table: StructureTable, *, samples: int | None = None, seed: int = 0
) -> list[tuple[int, int, int]]:
    """Failing triples of (basis[i] basis[j]) basis[k] != basis[i] (basis[j] basis[k])."""
    n = table.dimension
    if samples is None:
        triples = (
            (i, j, k) for i in range(n) for j in range(n) for k in range(n)
        )
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)
        )
    failures = []
    for i, j, k in triples:
        left = combine((c, table.product(r, k)) for r, c in table.product(i, j))
        right = combine((c, table.product(i, r)) for r, c in table.product(j, k))
        if left != right:
            failures.append((i, j, k))
    return failures


def gram_matrix(alpha: int) -> tuple[tuple[NuPoly, ...], ...]:
    """G[p][q] = trace(e_p e_q*), a symmetric matrix of polynomials in nu.

    Read off the structure table: with e_q* = sum_r s_qr e_r, the normal form
    of the star of basis monomial q, G[p][q] = sum_r s_qr B[p][r] for the
    trace form B.  Its only rewriting is one star per basis element.
    """
    table = structure_table(alpha)
    B = trace_form(table)
    index = {m: i for i, m in enumerate(table.basis)}
    nz = Normalizer()
    stars = [
        [(index[m], c) for m, c in nz.to_monomials(nz.reduce(*star_state(q))).items()]
        for q in table.basis
    ]
    zero = NuPoly.zero()
    return tuple(
        tuple(sum((c * row[ir] for ir, c in star if row[ir]), zero) for star in stars) for row in B
    )


def trace_form(table: StructureTable) -> tuple[tuple[NuPoly, ...], ...]:
    """B[p][q] = trace(e_p e_q), read straight off the structure table."""
    ident = table.index_of(Monomial.one(table.alpha))
    zero = NuPoly.zero()
    return tuple(map(tuple, table.map_rows(lambda row: next((poly for ir, poly in row if ir == ident), zero))))


def _pivots(a: list[list[Fraction]]):
    """Gaussian elimination over Fractions, in place: (column, pivot, exchanged) per pivot.

    a is any list of equally long rows of Fractions: callers convert int
    entries first, or `row[k] / piv` would make floats.  The pivot of a
    column is its first nonzero entry at or below the next pivot row, and
    exchanged says whether a row swap brought it there.  A column with no
    such entry is skipped, so the pivots yielded number the rank.  A row
    whose multiplier is zero is left alone; the trace forms are sparse, and
    eliminating every row (as Bareiss does) was 30 times slower.
    """
    m = len(a)
    r = 0
    for k in range(len(a[0]) if a else 0):
        if r == m:
            return
        piv_row = next((i for i in range(r, m) if a[i][k]), None)
        if piv_row is None:
            continue
        if piv_row != r:
            a[r], a[piv_row] = a[piv_row], a[r]
        top = a[r]
        piv = top[k]
        yield k, piv, piv_row != r
        for i in range(r + 1, m):
            row = a[i]
            f = row[k] / piv
            if not f:
                continue
            for j in range(k + 1, len(row)):
                row[j] -= f * top[j]
        r += 1


def positive_definite(mat: Sequence[Sequence[Fraction]]) -> bool:
    """Exact Sylvester test for a symmetric rational matrix.

    Without row exchanges or skipped columns the pivots are the ratios of
    successive leading principal minors, so the matrix is positive definite
    exactly when every column has a positive pivot that needed no exchange.
    The test stops at the first pivot that fails.  A skipped column fails
    too: the block left below and right of the earlier pivots is symmetric,
    so its zero column is also a zero row, and the next pivot needs an
    exchange; a skipped last column leaves fewer than n pivots.  The
    tests' reference for verify.gram_positive_definite; bench/ traces it.
    """
    n = len(mat)
    a = [list(map(Fraction, row)) for row in mat]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i):
            if row[j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    good = 0
    for _, piv, exchanged in _pivots(a):
        if piv <= 0 or exchanged:
            return False
        good += 1
    return good == n


def evaluate_matrix(mat: Sequence[Sequence[NuPoly]], value) -> list[list[Rational]]:
    """M(value), each entry in smallest form: ints at an integer value of an integer matrix."""
    return [[c.evaluate(value) for c in row] for row in mat]


def _point_det(mat: Sequence[Sequence[NuPoly]], x) -> Fraction:
    """det M(x): the product of the pivots, each exchange flipping its sign, and 0 when M(x) is singular."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    det, count = Fraction(1), 0
    # evaluate gives ints at an integer x, and _pivots needs Fractions
    for _, piv, exchanged in _pivots([list(map(Fraction, row)) for row in evaluate_matrix(mat, x)]):
        det *= -piv if exchanged else piv
        count += 1
    return det if count == n else Fraction(0)


def _degree_bound(mat: Sequence[Sequence[NuPoly]]) -> int:
    """The sum over rows of the largest entry degree, a zero row counting 0: deg det M is at most this."""
    return sum(max((int(c.degree) for c in row if c), default=0) for row in mat)


def det_polynomial(mat: Sequence[Sequence[NuPoly]]) -> NuPoly:
    """det M(nu), Newton-interpolated through x = 0, ..., _degree_bound(M).

    No caller in the package: the tests' reference for the closed
    determinants, and bench/ traces it.
    """
    coeffs = [_point_det(mat, x) for x in range(_degree_bound(mat) + 1)]
    # divided differences at the points 0, 1, ...: x_i - x_(i-j) = j
    for j in range(1, len(coeffs)):
        for i in range(len(coeffs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / j
    poly = NuPoly.zero()
    for i in reversed(range(len(coeffs))):
        poly = poly * NuPoly((-i, 1)) + NuPoly.constant(coeffs[i])
    return poly


def scaled_limit_table(table: StructureTable) -> list[list[tuple[tuple[int, Fraction], ...]]]:
    """The matrix out[p][q] = ((r, lim nu^(|I_r| - |I_p| - |I_q|) c^r_pq(nu)), ...), one list per p.

    Each row is read once, for the largest deg c^r + |I_r| over
    its terms and the leading coefficients of the terms that reach it;
    each pair then compares that with its own |I_p| + |I_q|.  A divergent
    entry is an error naming the first such pair in (p, q) order.
    """
    deg_of = [m.hole_degree for m in table.basis]

    def top(row) -> tuple[int, tuple[tuple[int, Fraction], ...]]:
        reach = [(int(poly.degree) + deg_of[ir], ir, poly) for ir, poly in row if poly]
        most = max((e for e, _, _ in reach), default=-1)
        return most, tuple(sorted(((ir, poly.leading) for e, ir, poly in reach if e == most), key=lambda t: t[0]))

    out = table.map_rows(top)
    for ip, tops_of_p in enumerate(out):
        for iq, (most, leading) in enumerate(tops_of_p):
            own = deg_of[ip] + deg_of[iq]
            if most > own:
                ir, poly = next(
                    (ir, poly) for ir, poly in table.product(ip, iq) if poly and int(poly.degree) + deg_of[ir] > own
                )
                raise ConsistencyError(
                    "structure constant outgrows the scaled limit",
                    {"p": ip, "q": iq, "r": ir, "degree": int(poly.degree)},
                )
            tops_of_p[iq] = leading if most == own else ()
    return out
