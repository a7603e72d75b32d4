"""Structure constants, serialization, Gram matrices, and scaled limits."""

import hashlib
import io
import json
import tracemalloc
from array import array
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import rookalg
from rookalg.algebra import Monomial, Normalizer, OElement, basis_enumerate, default_normalizer, fuse, multiply
from rookalg.capacity import override
from rookalg.cli import main
from rookalg.errors import CapacityError, ConsistencyError
from rookalg.nupoly import NuPoly
from rookalg import verify
from rookalg.tables import (
    StructureTable,
    _degree_bound,
    _pair_keys,
    _pivots,
    _point_det,
    check_associativity,
    det_polynomial,
    evaluate_matrix,
    gram_matrix,
    positive_definite,
    scaled_limit_table,
    structure_table,
    trace_form,
)
from rookalg.verify import crosscheck_structure

NU = NuPoly.nu()
ONE = NuPoly.one()


def state_of(m: Monomial):
    """The state (images, js) of a basis monomial, as `fuse` takes it."""
    return m.perm.images, m.holes


def test_table_alpha1_golden():
    t = structure_table(1)
    assert t.dimension == 2
    assert t.product(0, 0) == ((0, ONE),)
    assert t.product(0, 1) == ((1, ONE),)
    assert t.product(1, 0) == ((1, ONE),)
    assert dict(t.product(1, 1)) == {0: NU, 1: NuPoly((-1, 1))}
    for ip, iq in ((0, 2), (2, 0), (0, -1), (-1, 1)):
        with pytest.raises(IndexError, match=rf"pair \({ip}, {iq}\) is outside range\(2\)"):
            t.product(ip, iq)


def test_index_of():
    t = structure_table(2)
    basis = basis_enumerate(2)
    for i, m in enumerate(basis):
        assert t.index_of(m) == i
    with pytest.raises(KeyError):
        t.index_of(Monomial.one(3))


def test_max_degree():
    assert structure_table(1).max_degree() == 1
    assert structure_table(2).max_degree() == 2


def test_table_capacity_guard():
    with pytest.raises(CapacityError):
        structure_table(5)


def test_build_is_deterministic():
    a = structure_table(2, use_cache=False)
    b = structure_table(2, use_cache=False)
    assert a == b
    strip = lambda stats: {k: v for k, v in stats.items() if k != "elapsed_s"}
    assert strip(a.build_stats) == strip(b.build_stats)


def test_rewrite_counters_alpha3():
    # pinned counters of the build's one shared Normalizer: any change to the
    # rewriting engine or to how the build shares its memo shows up here
    t = structure_table(3, use_cache=False)
    counters = {k: t.build_stats[k] for k in ("square", "swap", "erase", "states")}
    assert counters == {"square": 33, "swap": 61, "erase": 14, "states": 150}


def test_rewrite_counters_alpha4():
    # the slide memo fires the square and swap rules once per js, on the identity
    # state (1, js): 755 slide and 384 erase states, where a memo of whole states
    # visited 10,295; the erase rule fires on the same 175 states as before
    t = structure_table(4, use_cache=False)
    counters = {k: t.build_stats[k] for k in ("square", "swap", "erase", "states", "cache_hits")}
    assert counters == {"square": 175, "swap": 564, "erase": 175, "states": 1139, "cache_hits": 93140}
    # every coefficient bound stays below 2^63, so the packed digits never widen
    assert t.build_stats["widenings"] == 0
    assert len(t.rows) == 3928


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_pair_keys_are_equal_exactly_when_fused_states_are(alpha):
    states = [state_of(m) for m in basis_enumerate(alpha)]
    keys = [key for keys_of_p in _pair_keys(alpha, states) for key in keys_of_p]
    fused = [fuse(p, q) for p in states for q in states]
    assert len(keys) == len(fused)
    assert len(set(keys)) == len(set(zip(keys, fused))) == len(set(fused))


@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 4])
def test_build_matches_a_loop_that_fuses_every_pair(alpha):
    # the build slides each hole set through each q once and keys a pair by two
    # ints; a loop that fuses every pair (p, q) in full must give the same table
    basis = basis_enumerate(alpha)
    index = {m: i for i, m in enumerate(basis)}
    nz = Normalizer()
    state_row, row_index, row_of = {}, {}, array("I")
    for p in basis:
        for q in basis:
            state = fuse(state_of(p), state_of(q))
            if state not in state_row:
                nf = nz.to_monomials(nz.reduce(*state))
                row = tuple(sorted((index[m], c) for m, c in nf.items()))
                state_row[state] = row_index.setdefault(row, len(row_index))
            row_of.append(state_row[state])
    t = structure_table(alpha)
    assert t.rows == tuple(row_index)
    assert t.row_of == row_of
    stats = {k: v for k, v in t.build_stats.items() if k != "elapsed_s"}
    assert stats == dict(nz.stats, dimension=len(basis))


def test_alpha3_exports_are_byte_identical():
    # digests of the full alpha=3 table as first released; the normal form
    # must not depend on how the rewriting memo is shared or filled
    t = structure_table(3, use_cache=False)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digest(t.canonical_json()) == "c16c0bdab61e3a3206422e9f80ffa23c4d29882bf467ac8e02dc1cb5eea69740"
    assert digest("".join(t.csv_chunks())) == "e1714074e7a221e9fda19c79a4f1076dd7e5992b17d2cddee183bda134c9af34"


def test_a_fresh_build_holds_one_object_per_distinct_polynomial():
    # the build's Normalizer interns every coefficient, so rows share objects by value
    polys = [c for row in structure_table(3, use_cache=False).rows for _, c in row]
    assert len({id(c) for c in polys}) == len(set(polys))


@pytest.mark.parametrize("alpha,distinct,slots", [(2, 26, 58), (3, 269, 1661), (4, 3838, 74525)])
def test_a_build_holds_one_object_per_distinct_term(alpha, distinct, slots):
    # each new row's (r, poly) terms are interned by value, so rows share them
    held = [term for row in structure_table(alpha).rows for term in row]
    assert len(held) == slots
    assert len({id(term) for term in held}) == len(set(held)) == distinct


def test_a_loaded_table_shares_its_terms_like_a_built_one():
    built = structure_table(3)
    loaded = StructureTable.from_json_obj(json.loads(built.canonical_json()))
    assert loaded == built
    held = [term for row in loaded.rows for term in row]
    assert len(held) == 1661
    assert len({id(term) for term in held}) == len(set(held)) == 269


@pytest.mark.parametrize(
    "export,bound_mb", [("json_chunks", 7), ("json_chunks", 3.5), ("csv_chunks", 5)]
)
def test_an_export_holds_each_distinct_term_text_once(export, bound_mb):
    # the alpha=4 rows hold 3,838 distinct terms; the exports render each
    # once and share its text among the rows, peaking near 2.6 MB (JSON, one
    # piece per pair) and 1.9 MB (CSV), where a joined text per distinct row
    # needs 10.7 and 7.0 MB; a JSON piece per p peaked near 4.5 MB, under
    # the first JSON bound but not under the second
    chunks = getattr(structure_table(4), export)
    tracemalloc.start()
    try:
        for _ in chunks():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_table_constants_are_integers():
    for alpha in (1, 2, 3):
        for row in structure_table(alpha).rows:
            for _, poly in row:
                assert all(type(c) is int for c in poly.coeffs)


def test_non_integral_constant_raises(monkeypatch):
    original = Normalizer.reduce

    def tampered(self, images, js):
        if js == (1, 1):  # the state of T1 T1
            # the leaf id of the identity monomial, with a non-integral coefficient
            (one,) = original(self, tuple(range(1, len(images) + 1)), ())
            return {one: NuPoly((Fraction(1, 2),))}
        return original(self, images, js)

    monkeypatch.setattr(Normalizer, "reduce", tampered)
    with pytest.raises(ConsistencyError) as excinfo:
        structure_table(1, use_cache=False)
    assert excinfo.value.payload == {"p": 1, "q": 1, "r": 0, "coefficient": "1/2"}

    # at alpha=2 several pairs fuse to the state T1 T1 and share its row;
    # the payload names the first of them in (p, q) order
    basis = basis_enumerate(2)
    state = ((1, 2), (1, 1))
    pairs = [(ip, iq) for ip, p in enumerate(basis) for iq, q in enumerate(basis) if fuse(state_of(p), state_of(q)) == state]
    assert len(pairs) > 1
    with pytest.raises(ConsistencyError) as excinfo:
        structure_table(2, use_cache=False)
    ip, iq = pairs[0]
    assert excinfo.value.payload == {"p": ip, "q": iq, "r": 0, "coefficient": "1/2"}


def test_map_rows_maps_each_distinct_row_once():
    built = structure_table(3, use_cache=False)
    # one row per distinct fused state, and one row index per pair
    states = {fuse(state_of(p), state_of(q)) for p in built.basis for q in built.basis}
    assert len(built.rows) == len(set(built.rows)) == len(states)
    assert len(built.row_of) == built.dimension**2
    # a loaded table, and the same entries given in reverse (p, q) order, intern
    # their rows by value into the built table's layout
    loaded = StructureTable.from_json_obj(json.loads(built.canonical_json()))
    reordered = StructureTable.from_pairs(3, built.basis, reversed(list(built.constants.items())))
    assert loaded == built == reordered
    dim = built.dimension
    for table in (built, loaded, reordered):
        seen = []
        out = table.map_rows(lambda row: seen.append(row) or len(seen) - 1)
        assert seen == list(table.rows)
        # the dim x dim matrix: out[p][q] is the result for pair (p, q)
        assert [len(out_of_p) for out_of_p in out] == [dim] * dim
        for ip, out_of_p in enumerate(out):
            for iq, k in enumerate(out_of_p):
                assert seen[k] is table.product(ip, iq)


def test_shared_rows_export_like_unshared_rows(monkeypatch):
    shared = structure_table(3, use_cache=False)
    # one row per distinct fused state, shared by the pairs that reach it
    states = {fuse(state_of(p), state_of(q)) for p in shared.basis for q in shared.basis}
    assert len(shared.rows) == len(states) < len(shared.row_of)
    # the same products with one row per pair, so that no row is shared
    n = shared.dimension**2
    unshared = StructureTable(
        shared.alpha, shared.basis, tuple(map(shared.rows.__getitem__, shared.row_of)), array("I", range(n))
    )
    assert len(unshared.rows) == n
    assert unshared.constants == shared.constants
    loaded = StructureTable.from_json_obj(json.loads(shared.canonical_json()))

    def crosscheck(table):
        monkeypatch.setattr(verify, "structure_table", lambda *a, **k: table)
        return crosscheck_structure(3, 3).canonical_json()

    for table in (unshared, loaded):
        for nu in (None, 0, 1, 4, Fraction(5, 2), -1):
            assert shared.canonical_json(nu) == table.canonical_json(nu)
            assert "".join(shared.csv_chunks(nu)) == "".join(table.csv_chunks(nu))
        assert trace_form(shared) == trace_form(table)
        assert crosscheck(shared) == crosscheck(table)


def _ratio_text(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("nu", [None, 0, 1, 2, Fraction(5, 2), -1])
def test_canonical_json_matches_json_dumps(alpha, nu):
    # the reference is read off product() and NuPoly, and laid out by the stdlib:
    # at a point each term carries its one value, and a term that vanishes is left out
    t = structure_table(alpha)

    def terms(row):
        if nu is None:
            return [{"r": ir, "poly": [_ratio_text(c) for c in poly.coeffs]} for ir, poly in row]
        return [{"r": ir, "poly": [_ratio_text(v)]} for ir, poly in row for v in (poly.evaluate(nu),) if v]

    expected = {
        "alpha": alpha,
        "nu": None if nu is None else _ratio_text(nu),
        "basis": [{"g": list(m.perm.images), "I": list(m.holes)} for m in t.basis],
        "constants": [
            {"p": ip, "q": iq, "terms": terms(t.product(ip, iq))}
            for ip in range(t.dimension)
            for iq in range(t.dimension)
        ],
    }
    text = t.canonical_json(nu)
    assert json.loads(text) == expected
    # the layout and the key order
    assert text == json.dumps(expected, indent=2) + "\n"
    # the header and basis, one piece per pair, and the closing text
    assert len(list(t.json_chunks(nu))) == t.dimension**2 + 2


@pytest.mark.parametrize("alpha", [0, 1, 3])
@pytest.mark.parametrize("nu", [None, 0])
def test_each_json_piece_after_the_header_holds_one_pair(alpha, nu):
    t = structure_table(alpha)
    header, *pairs, closing = t.json_chunks(nu)
    assert header.endswith('"constants": ')
    assert closing == "\n  ]\n}\n"
    expected = [(ip, iq) for ip in range(t.dimension) for iq in range(t.dimension)]
    assert len(pairs) == len(expected)
    for k, (piece, (ip, iq)) in enumerate(zip(pairs, expected)):
        # the list's opening bracket, or the comma after the previous entry
        assert piece.startswith("[\n    {" if k == 0 else ",\n    {")
        entry = json.loads(piece[1:])
        assert list(entry) == ["p", "q", "terms"]
        assert (entry["p"], entry["q"]) == (ip, iq)


def test_cli_table_json_same_bytes_to_file_and_stdout(tmp_path):
    target = tmp_path / "table.json"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["table", "--alpha", "3", "--format", "json"]) == 0
        assert main(["table", "--alpha", "3", "--format", "json", "--out", str(target)]) == 0
    assert target.read_bytes() == out.getvalue().encode()


def test_a_pair_with_no_terms_exports_an_empty_list():
    # no built row at alpha <= 3 vanishes, so the entry is loaded: (1, 1) of alpha=1 with no terms
    base = structure_table(1)
    t = StructureTable.from_pairs(1, base.basis, {**base.constants, (1, 1): ()}.items())
    text = t.canonical_json()
    obj = json.loads(text)
    assert obj["constants"][3] == {"p": 1, "q": 1, "terms": []}
    assert text == json.dumps(obj, indent=2) + "\n"
    assert "".join(t.csv_chunks()) == "p,q,r,poly\n0,0,0,1/1\n0,1,1,1/1\n1,0,1,1/1\n"
    assert StructureTable.from_json_obj(obj) == t


def test_json_roundtrip():
    for alpha in (1, 2, 3):
        t = structure_table(alpha)
        obj = json.loads(t.canonical_json())
        assert obj["alpha"] == alpha
        assert obj["nu"] is None
        restored = StructureTable.from_json_obj(obj)
        assert restored == t
    # canonical form is byte-stable
    assert t.canonical_json() == structure_table(3).canonical_json()


def _set(path, value):
    """An edit of the alpha=1 table's JSON: the item at path becomes value.

    Each edit returns the JSON to load; an empty path replaces all of it.
    """

    def edit(table):
        if not path:
            return value
        *keys, last = path
        obj = table
        for k in keys:
            obj = obj[k]
        obj[last] = value
        return table

    return edit


def _drop(path):
    """An edit of the alpha=1 table's JSON: the field at path is deleted."""

    def edit(table):
        *keys, last = path
        obj = table
        for k in keys:
            obj = obj[k]
        del obj[last]
        return table

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(["alpha"], 2), "basis entry 0 has degree 1, but alpha is 2"),
        (_set(["basis", 1], {"g": [1], "I": []}), "basis entry 1 repeats basis entry 0"),
        (_set(["constants", 0, "p"], 2), "constants entry (2, 0) has index 2 outside range(2)"),
        (_set(["constants", 0, "q"], -1), "constants entry (0, -1) has index -1 outside range(2)"),
        (_set(["constants", 0, "terms", 0, "r"], 7), "constants entry (0, 0) has index 7 outside range(2)"),
        (_set(["constants", 1, "q"], 0), "constants entry (0, 0) repeats"),
        (_drop(["constants", -1]), "constants entry (1, 1) is missing"),
        (_set(["constants", 3, "terms", 1, "r"], 0),
         "constants entry (1, 1) has r values that do not increase strictly: [0, 0]"),
        (_set(["nu"], "3/1"), 'field "nu" is "3/1": a table exported at a point does not load as polynomials'),
        (_drop(["alpha"]), 'the table has no field "alpha"'),
        (_drop(["basis"]), 'the table has no field "basis"'),
        (_drop(["basis", 1, "g"]), 'basis[1] has no field "g"'),
        (_drop(["constants", 3, "terms"]), 'constants[3] has no field "terms"'),
        (_set(["constants", 3, "terms", 1, "poly"], 1), "constants[3].terms[1].poly is not a list"),
        # a string would otherwise read as one coefficient per character
        (_set(["constants", 3, "terms", 1, "poly"], "12"), "constants[3].terms[1].poly is not a list"),
        # a present field of the wrong type names its entry too
        (_set(["alpha"], None), 'the table has a field "alpha" that is not an integer'),
        (_set(["basis", 1, "g"], 5), 'basis[1] has a field "g" that is not a list of integers'),
        (_set(["constants", 2, "p"], "x"), 'constants[2] has a field "p" that is not an integer'),
        # each coefficient is "p/q" text: no float, bool or null reads as a number
        (_set(["constants", 3, "terms", 1, "poly"], [0.1]), "constants[3].terms[1].poly[0] is not a string"),
        (_set(["constants", 3, "terms", 1, "poly"], [True]), "constants[3].terms[1].poly[0] is not a string"),
        (_set(["constants", 3, "terms", 1, "poly"], ["1/1", None]), "constants[3].terms[1].poly[1] is not a string"),
        (_set(["constants", 3, "terms", 1, "poly"], ["x"]),
         "constants[3].terms[1].poly: Invalid literal for Fraction: 'x'"),
        (_set(["constants", 3, "terms", 1, "poly"], ["0.1"]),
         "constants[3].terms[1].poly: Invalid literal for Fraction: '0.1'"),
        # no export writes a zero term
        (_set(["constants", 3, "terms", 1, "poly"], []), "constants[3].terms[1].poly is zero"),
        (_set(["constants", 3, "terms", 1, "poly"], ["0/1"]), "constants[3].terms[1].poly is zero"),
        (_set([], []), "the table is not an object"),
    ],
    ids=[
        "alpha", "basis-repeat", "p-range", "q-range", "r-range", "pair-repeat", "pair-missing", "r-order",
        "at-a-point", "alpha-missing", "basis-missing", "g-missing", "terms-missing", "poly-int", "poly-string",
        "alpha-null", "g-int", "p-string",
        "poly-float", "poly-bool", "poly-null", "poly-text", "poly-decimal", "zero-term", "zero-coefficient", "top-level-list",
    ],
)
def test_malformed_json_tables_are_refused(edit, message):
    obj = json.loads(structure_table(1).canonical_json())
    # T1 T1 = nu + (nu - 1) T1 is the last entry, and the one with two terms
    assert [t["r"] for t in obj["constants"][3]["terms"]] == [0, 1]
    obj = edit(obj)
    with pytest.raises(ValueError) as exc:
        StructureTable.from_json_obj(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "coefficient, shown",
    [(NuPoly.zero(), "NuPoly(0)"), (Fraction(1), "Fraction(1, 1)"), (1, "1"), ("1/1", "'1/1'")],
    ids=["zero", "fraction", "int", "string"],
)
def test_from_pairs_refuses_a_coefficient_that_is_not_a_nonzero_polynomial(coefficient, shown):
    # a zero term would export as the CSV line 0,0,1, and a JSON "poly": [] that
    # from_json_obj refuses, so the constructor refuses it first
    t = structure_table(1)
    terms = ((0, NuPoly.one()), (1, coefficient))
    with pytest.raises(ValueError) as exc:
        StructureTable.from_pairs(1, t.basis, {**t.constants, (0, 0): terms}.items())
    assert str(exc.value) == f"constants entry (0, 0) has coefficient {shown} at r=1, not a nonzero NuPoly"


def test_json_at_a_point():
    t = structure_table(1)
    obj = json.loads(t.canonical_json(nu=3))
    assert obj["nu"] == "3/1"
    flat = {
        (e["p"], e["q"], tuple(term["r"] for term in e["terms"])): [
            term["poly"] for term in e["terms"]
        ]
        for e in obj["constants"]
    }
    assert flat[(1, 1, (0, 1))] == [["3/1"], ["2/1"]]


def test_csv_golden():
    t = structure_table(1)
    assert "".join(t.csv_chunks()) == (
        "p,q,r,poly\n"
        "0,0,0,1/1\n"
        "0,1,1,1/1\n"
        "1,0,1,1/1\n"
        "1,1,0,0/1 1/1\n"
        "1,1,1,-1/1 1/1\n"
    )
    assert "".join(t.csv_chunks(3)).splitlines()[4] == "1,1,0,3/1"
    # the header, then one piece per p
    assert list(t.csv_chunks()) == [
        "p,q,r,poly\n",
        "0,0,0,1/1\n0,1,1,1/1\n",
        "1,0,1,1/1\n1,1,0,0/1 1/1\n1,1,1,-1/1 1/1\n",
    ]


def test_exports_at_a_point_evaluate_each_constant():
    t = structure_table(2)
    assert t.product(2, 2) == ((0, NU), (2, NuPoly((-1, 1))))
    # theta_1 * theta_1 at nu = 3: 3 over the unit, 2 over theta_1
    entry = json.loads(t.canonical_json(3))["constants"][2 * t.dimension + 2]
    assert entry == {"p": 2, "q": 2, "terms": [{"r": 0, "poly": ["3/1"]}, {"r": 2, "poly": ["2/1"]}]}
    assert [line for line in "".join(t.csv_chunks(3)).splitlines() if line.startswith("2,2,")] == ["2,2,0,3/1", "2,2,2,2/1"]


@pytest.mark.parametrize("alpha", [1, 2])
def test_associativity_exhaustive(alpha):
    assert check_associativity(structure_table(alpha)) == []


def test_associativity_sampled_is_reproducible():
    t = structure_table(3)
    assert check_associativity(t, samples=100, seed=7) == []
    # the sample plan is a pure function of the seed
    plan_a = check_associativity(t, samples=100, seed=11)
    plan_b = check_associativity(t, samples=100, seed=11)
    assert plan_a == plan_b == []


def test_associativity_names_the_triples_a_tampered_row_breaks():
    # A(12) A(12) = 1 at alpha=2, doubled to 2
    t = structure_table(2)
    bad = StructureTable.from_pairs(2, t.basis, {**t.constants, (1, 1): ((0, NuPoly.constant(2)),)}.items())
    assert check_associativity(bad) == [
        (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 6), (1, 2, 5), (1, 3, 2), (1, 4, 3),
        (1, 4, 6), (1, 5, 4), (1, 6, 2), (1, 6, 6), (2, 1, 1), (2, 5, 1), (3, 1, 1), (3, 2, 1),
        (4, 1, 1), (4, 3, 1), (4, 6, 1), (5, 1, 1), (5, 4, 1), (6, 1, 1), (6, 2, 1), (6, 6, 1),
    ]


# -------------------------------------------------------------------- forms


def test_trace_form_is_symmetric():
    for alpha in (1, 2):
        B = trace_form(structure_table(alpha))
        n = len(B)
        for i in range(n):
            for j in range(n):
                assert B[i][j] == B[j][i]


def _first_positive_definite(mat, stop):
    """The smallest integer n in [0, stop] where the Sylvester test passes mat(n), or None."""
    return next((n for n in range(stop + 1) if positive_definite(evaluate_matrix(mat, n))), None)


def test_gram_alpha1_golden():
    G = gram_matrix(1)
    assert G == ((ONE, NuPoly.zero()), (NuPoly.zero(), NU))
    assert _first_positive_definite(G, 4) == 1


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_gram_is_positive_definite_first_at_alpha(alpha):
    # what the closed form G = Phi^T diag((nu)_{r_sigma}) Phi gives the Gram
    # suite and `rookalg gram` without a scan, found by one
    assert _first_positive_definite(gram_matrix(alpha), 4 * alpha) == alpha


def test_gram_alpha2_entries():
    G = gram_matrix(2)
    # <T1 T2, T1 T2> = nu^2 and <T1, T2> = 0
    assert G[6][6] == NuPoly.monomial(2)
    assert G[2][4] == NuPoly.zero()
    for i in range(7):
        for j in range(7):
            assert G[i][j] == G[j][i]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_gram_matrix_is_the_trace_of_products_with_stars(alpha):
    # the definition, computed by rewriting each product e_p e_q* in full
    basis = basis_enumerate(alpha)
    elems = [OElement.from_monomial(m) for m in basis]
    stars = [e.star() for e in elems]
    ident = Monomial.one(alpha)
    expected = tuple(tuple(multiply(ep, sq).coefficient(ident) for sq in stars) for ep in elems)
    assert gram_matrix(alpha) == expected


def test_gram_matrix_refuses_above_the_table_limit():
    with pytest.raises(CapacityError, match="structure table for alpha=5"):
        gram_matrix(5)
    structure_table(3)
    with pytest.raises(CapacityError, match="structure table for alpha=3 exceeds the limit 2"):
        with override(2):
            gram_matrix(3)


def test_positive_definite():
    f = Fraction
    assert positive_definite([[f(2), f(1)], [f(1), f(2)]])
    assert not positive_definite([[f(1), f(2)], [f(2), f(1)]])
    assert not positive_definite([[f(0)]])
    with pytest.raises(ValueError):
        positive_definite([[f(1), f(2)], [f(0), f(1)]])
    # the first needs a row exchange at its first pivot; the second has no
    # pivot at all in its second column
    assert not positive_definite([[0, 1], [1, 0]])
    assert not positive_definite([[1, 1], [1, 1]])
    # a skipped column followed by a pivot in the next one
    assert not positive_definite([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert positive_definite([])


def test_rank():
    # the rank is the number of pivots _pivots finds
    def rank(mat):
        return sum(1 for _ in _pivots([list(map(Fraction, row)) for row in mat]))

    # column 1 is column 0 once row 0 is eliminated, so it has no pivot;
    # columns 2 and 3 still do, the first after a row exchange
    skipped = [[1, 1, 0, 2], [2, 2, 0, 0], [3, 3, 1, 5]]
    a = [[Fraction(x) for x in row] for row in skipped]
    assert [(k, exchanged) for k, _, exchanged in _pivots(a)] == [(0, False), (2, True), (3, False)]
    assert rank(skipped) == 3
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank([[1, 2], [3, 4], [5, 6]]) == 2
    assert rank([[0, 0, 1], [0, 0, 2], [1, 0, 0]]) == 2
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank([[0, 0]]) == 0
    assert rank([]) == 0


def test_evaluate_matrix():
    G = gram_matrix(1)
    assert evaluate_matrix(G, 3) == [[1, 0], [0, 3]]
    assert evaluate_matrix(G, Fraction(1, 2))[1][1] == Fraction(1, 2)


def test_det_polynomial():
    f = Fraction
    const = [[NuPoly((f(1),)), NuPoly((f(2),))], [NuPoly((f(2),)), NuPoly((f(1),))]]
    assert det_polynomial(const) == NuPoly((-3,))
    assert det_polynomial(gram_matrix(1)) == NU
    singular = [[NU, NU], [NU, NU]]
    assert det_polynomial(singular) == NuPoly.zero()
    # a row exchange flips the sign
    assert det_polynomial([[NuPoly.zero(), NU], [ONE, NuPoly.zero()]]) == -NU
    # the second column is nu times the first, so once the first column is
    # eliminated the second has no pivot left
    c = NuPoly.constant
    assert det_polynomial([[ONE, NU, ONE], [ONE, NU, c(2)], [ONE, NU, c(3)]]) == NuPoly.zero()


@pytest.mark.parametrize(
    "mat, expected",
    [
        # a root at 1/2, which no integer point sees
        ([[NuPoly((-1, 2)), NuPoly.zero()], [NuPoly.zero(), NU]], NuPoly((0, -1, 2))),
        # no rational root at all
        ([[NuPoly((1, 0, 1))]], NuPoly((1, 0, 1))),
        # a double root at 0 where the nullity is only 1
        ([[NuPoly((0, 0, 1))]], NuPoly((0, 0, 1))),
    ],
    ids=["rational-root", "irreducible-quadratic", "multiplicity-above-nullity"],
)
def test_det_polynomial_interpolates_the_cofactor(mat, expected, leibniz_det):
    assert det_polynomial(mat) == expected == leibniz_det(mat)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_trace_form_determinant_matches_full_interpolation(alpha):
    # the closed form (-1)^s prod_sigma (nu)_{r_sigma}, s half the number of
    # sigma != sigma^-1, against the determinant interpolated through every point
    t = structure_table(alpha)
    rooks = [m.to_rook() for m in t.basis]
    closed = NuPoly.constant((-1) ** (sum(s != s.inverse() for s in rooks) // 2))
    for m in t.basis:
        for j in range(m.hole_degree):
            closed = closed * NuPoly((-j, 1))
    assert det_polynomial(trace_form(t)) == closed


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_point_determinants_stay_exact(alpha):
    # evaluate gives ints at an integer point; _pivots must see them as
    # Fractions, or its divisions would make floats (-486.0 at alpha=2, x=3)
    B = trace_form(structure_table(alpha))
    for x in range(_degree_bound(B) + 1):
        assert type(_point_det(B, x)) is Fraction
    assert all(type(c) in (int, Fraction) for c in det_polynomial(B).coeffs)


@pytest.mark.parametrize(
    "mat",
    [[[ONE, NU, ONE]], [[ONE], [NU]], [[ONE, NU], [ONE]]],
    ids=["1x3", "2x1", "ragged"],
)
def test_det_polynomial_refuses_a_non_square_matrix(mat):
    with pytest.raises(ValueError, match="matrix must be square"):
        det_polynomial(mat)


def test_smallest_pd_nu_none_when_out_of_range():
    # the scan that replaced `smallest_pd_nu` finds nothing below alpha
    G = gram_matrix(1)
    assert _first_positive_definite(G, 0) is None


# -------------------------------------------------------------------- limits


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_scaled_limit_reproduces_rook_composition(alpha):
    t = structure_table(alpha)
    limits = scaled_limit_table(t)
    # one list per p, holding one entry per q
    assert isinstance(limits, list)
    assert [len(limits_of_p) for limits_of_p in limits] == [t.dimension] * t.dimension
    basis = t.basis
    for ip, limits_of_p in enumerate(limits):
        for iq, entries in enumerate(limits_of_p):
            assert len(entries) == 1
            ir, coeff = entries[0]
            assert coeff == Fraction(1)
            expected = basis[ip].to_rook() * basis[iq].to_rook()
            assert basis[ir].to_rook() == expected


def test_scaled_limit_reads_each_pairs_own_hole_count_on_a_shared_row():
    # nu A(1) scales to 1 against |I_0| + |I_1| = 1 and vanishes against
    # |I_1| + |I_1| = 2, though the two pairs point at one row
    t = structure_table(1)
    table = StructureTable.from_pairs(1, t.basis, {**t.constants, (0, 1): ((0, NU),), (1, 1): ((0, NU),)}.items())
    assert table.row_of[0 * 2 + 1] == table.row_of[1 * 2 + 1]
    limits = scaled_limit_table(table)
    assert [len(limits_of_p) for limits_of_p in limits] == [2, 2]
    assert limits[0][1] == ((0, Fraction(1)),)
    assert limits[1][1] == ()


def test_clear_caches_empties_every_module_level_cache():
    table = structure_table(2)
    assert structure_table(2) is table
    rookalg.element_from_word(2, [("hole", 1), ("hole", 1)])
    rookalg.coset_enumerate(rookalg.PartialInjection((1, 2)), rookalg.Context(2, 1))
    nz = default_normalizer()
    assert nz._erased and nz._slides and nz._polys and nz.monomials
    rookalg.clear_caches()
    fresh = structure_table(2)
    assert fresh is not table
    assert fresh == table
    assert not default_normalizer()._erased and not default_normalizer()._slides
    assert not default_normalizer()._polys
    assert not default_normalizer().monomials
    for cached in (rookalg.subgroup_elements, rookalg.canonical_completion, rookalg.coset_enumerate):
        assert cached.cache_info().currsize == 0
