"""Command-line front door: compute tables, run suites, export artifacts.

Word syntax for `normalize`: whitespace-separated tokens, where `Ti` is the
i-th hole generator and `A(...)` is a permutation in cycle notation with
single-digit entries, e.g. `A(12)` or `A(123)(45)`.  `A(1)` and `1` both
mean the identity.  Identical invocations produce byte-identical output;
verification reports printed here omit timing for that reason.

Exit codes: 0 all requested checks pass, 1 a check fails, 2 usage error,
3 capacity exceeded, 141 the reader closed the output pipe early.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable, Iterator

from . import capacity, verify
from .algebra import (
    OElement,
    basis_enumerate,
    element_from_word,
    format_element,
    format_monomial,
)
from .combinatorics import Permutation
from .errors import CapacityError, ConsistencyError
from .nupoly import NuPoly
from .rational import format_rational, parse_rational
from .tables import evaluate_matrix, gram_matrix, scaled_limit_table, structure_table
from .verify import (
    crosscheck_multi,
    crosscheck_structure,
    dimension_suite,
    gram_faults,
    gram_positive_definite,
    gram_suite,
    limit_suite,
    relation_suite,
    semisimplicity_probe,
)

_T_TOKEN = re.compile(r"^T(\d+)$")
_A_TOKEN = re.compile(r"^A((?:\(\d+\))+)$")
_CYCLE = re.compile(r"\((\d+)\)")


def parse_word(alpha: int, text: str) -> list[tuple[str, object]]:
    """Tokenize a generator word like "T2 A(12) T1"."""
    if alpha > 9:
        raise ValueError("word syntax uses single-digit entries; alpha > 9 is not supported here")
    tokens: list[tuple[str, object]] = []
    for raw in text.split():
        if raw == "1":
            tokens.append(("perm", Permutation.identity(alpha)))
            continue
        m = _T_TOKEN.match(raw)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= alpha:
                raise ValueError(f"hole index {i} outside 1..{alpha}")
            tokens.append(("hole", i))
            continue
        m = _A_TOKEN.match(raw)
        if m:
            cycles = [tuple(int(ch) for ch in grp) for grp in _CYCLE.findall(m.group(1))]
            tokens.append(("perm", Permutation.from_cycles(alpha, cycles)))
            continue
        raise ValueError(f"unrecognized token {raw!r}; expected Ti, A(...), or 1")
    return tokens


# argparse reads "--nu -1/2" as a second option, though "--nu -1" is a negative number
_NEGATIVE_NU = "write a negative fraction as --nu=-1/2"


_WRITE_CHARS = 1 << 16


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces, joined in order into texts of at least _WRITE_CHARS chars each, and the rest."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            yield "".join(batch)
            batch, size = [], 0
    if batch:
        yield "".join(batch)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, one str or an iterable of str pieces, to the file out or to stdout.

    The pieces go out in writes of about 64 Ki chars, so a table of tens of
    thousands of pieces is not a write call per piece.
    """
    batches = _batches((text,) if isinstance(text, str) else text)
    if out:
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
        with fh:
            fh.writelines(batches)
    else:
        sys.stdout.writelines(batches)


# suite -> (help, reads --n, call(alpha, n, max_counterexamples)); n is None
# when --n is not given, and the suite then picks its own default points
_SUITES = {
    "crosscheck": ("structure constants against brute-force convolution", True,
                   lambda a, n, k: crosscheck_multi(a, max_counterexamples=k) if n is None
                   else crosscheck_structure(a, n, max_counterexamples=k)),
    "relations": ("defining relations, read off the rewriting rules, against convolution", True,
                  lambda a, n, k: relation_suite(a, a if n is None else n, max_counterexamples=k)),
    "dims": ("dimension and coset counting", True,
             lambda a, n, k: dimension_suite(a, None if n is None else (n,), max_counterexamples=k)),
    "limit": ("scaled limit against the partial-injection monoid", False,
              lambda a, n, k: limit_suite(a, max_counterexamples=k)),
    "semisimple": ("trace-form determinant probe", False,
                   lambda a, n, k: semisimplicity_probe(a, max_counterexamples=k)),
    "gram": ("Gram matrix against its closed form, and its images against convolution", True,
             lambda a, n, k: gram_suite(a, None if n is None else (n,), max_counterexamples=k)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rookalg",
        description="Exact double-coset algebras and their polynomial interpolation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--alpha", type=int, required=True, help="corner size")
        sp.add_argument(
            "--capacity",
            type=int,
            default=None,
            help="override the built-in size limits (also via ROOKALG_CAPACITY)",
        )

    dims = sub.add_parser("dims", help="dimension counted by every available route")
    common(dims)
    dims.add_argument("--n", type=int, default=None, help="also count double cosets at this tail degree")

    basis = sub.add_parser("basis", help="list the admissible basis monomials")
    common(basis)
    basis.add_argument("--format", choices=("text", "json"), default="text")
    basis.add_argument("--out", default=None)

    norm = sub.add_parser("normalize", help="normal form of a generator word")
    common(norm)
    norm.add_argument("--word", required=True, help='e.g. "T2 T1" or "A(12) T1 T2"')
    norm.add_argument("--nu", default=None, help=f"evaluate the coefficients at this rational; {_NEGATIVE_NU}")

    table = sub.add_parser("table", help="build and export the structure table")
    common(table)
    table.add_argument("--nu", default=None, help=f"evaluate all constants at this rational; {_NEGATIVE_NU}")
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument("--out", default=None)

    gram = sub.add_parser("gram", help="Gram matrix of the trace inner product")
    common(gram)
    gram.add_argument("--nu", default=None, help=f"evaluate and test positive definiteness; {_NEGATIVE_NU}")
    gram.add_argument("--out", default=None)

    limit = sub.add_parser("limit", help="scaled large-nu limit of the structure table")
    common(limit)
    limit.add_argument("--format", choices=("text", "json"), default="text")
    limit.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a verification suite")
    vsub = ver.add_subparsers(dest="suite", required=True)
    for name, (helptext, reads_n, _) in _SUITES.items():
        sp = vsub.add_parser(name, help=helptext)
        common(sp)
        if reads_n:
            sp.add_argument("--n", type=int, default=None, help="tail degree (suite-dependent default)")
        sp.add_argument("--out", default=None)
        sp.add_argument("--max-counterexamples", type=int, default=5)
    return p


def _cmd_dims(args) -> int:
    alpha = args.alpha
    rep = dimension_suite(alpha, None if args.n is None else (args.n,))
    closed = rep.metrics["dimension"]
    # the suite records the enumerated counts only when they differ from the
    # closed form, and as its first check that failure is always kept
    counts = next(
        (c for c in rep.counterexamples if c["kind"] == "dimension-mismatch"),
        {"enumerated": closed, "basis": closed},
    )
    squares = sum(d * d for d in rep.metrics["fixed_space_dimensions"])
    lines = [
        f"alpha: {alpha}",
        f"dimension (closed form): {closed}",
        f"dimension (enumeration): {counts['enumerated']}",
        f"dimension (admissible basis): {counts['basis']}",
        f"dimension (sum of squared block dimensions): {squares}",
    ]
    for n, count in sorted(rep.metrics["cosets_by_n"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"double cosets (n={n}): {count}")
    lines.append(f"status: {rep.status}")
    print("\n".join(lines))
    if not rep.passed:
        print("FAIL dimensions", file=sys.stderr)
        return 1
    return 0


def _cmd_basis(args) -> int:
    ms = basis_enumerate(args.alpha)
    if args.format == "json":
        obj = {"alpha": args.alpha, "basis": [{"g": list(m.perm.images), "I": list(m.holes)} for m in ms]}
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{i}\t{format_monomial(m)}\n" for i, m in enumerate(ms)), args.out)
    return 0


def _cmd_normalize(args) -> int:
    tokens = parse_word(args.alpha, args.word)
    try:
        elem = element_from_word(args.alpha, tokens)
    except RecursionError:
        raise CapacityError(
            f"the {len(tokens)}-letter word needs a rewriting recursion deeper than "
            f"the interpreter's limit of {sys.getrecursionlimit()} frames"
        ) from None
    if args.nu_value is not None:
        elem = OElement(args.alpha, {m: NuPoly.constant(v) for m, v in elem.evaluate(args.nu_value).items()})
    print(format_element(elem))
    return 0


def _cmd_table(args) -> int:
    tbl = structure_table(args.alpha)
    # in pieces, one per basis element: the whole alpha=4 JSON text is 36.8 MB
    _emit(tbl.csv_chunks(args.nu_value) if args.format == "csv" else tbl.json_chunks(args.nu_value), args.out)
    return 0


def _cmd_gram(args) -> int:
    G = gram_matrix(args.alpha)
    imgs = verify.rook_images(basis_enumerate(args.alpha))
    # a fault is in the build, not in the arguments, so the first one gram_faults lists fails the run
    faults = gram_faults(G, imgs)
    if faults:
        kind, p, q = faults[0]
        what = "not symmetric" if kind == "asymmetry" else "off its closed form"
        raise ConsistencyError(f"the Gram matrix is {what}", {"p": p, "q": q})
    value = args.nu_value
    if value is None:
        lines = ["[" + ", ".join(entry.pretty() for entry in row) + "]" for row in G]
        top = 4 * args.alpha
        first = next(n for n in range(top + 1) if gram_positive_definite(imgs, n))
        lines.append(f"smallest positive definite integer in [0, {top}]: {first}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    pd = gram_positive_definite(imgs, value)
    lines = [" ".join(format_rational(entry) for entry in row) for row in evaluate_matrix(G, value)]
    lines.append(f"positive_definite: {'true' if pd else 'false'}")
    _emit("\n".join(lines) + "\n", args.out)
    if not pd:
        print(f"FAIL gram: not positive definite at nu={args.nu}", file=sys.stderr)
        return 1
    return 0


def _cmd_limit(args) -> int:
    tbl = structure_table(args.alpha)
    limits = scaled_limit_table(tbl)
    if args.format == "json":
        entries = [
            {"p": ip, "q": iq, "terms": [[ir, format_rational(c)] for ir, c in got]}
            for ip, limits_of_p in enumerate(limits)
            for iq, got in enumerate(limits_of_p)
        ]
        _emit(json.dumps({"alpha": tbl.alpha, "entries": entries}, indent=2) + "\n", args.out)
    else:
        lines = []
        for ip, limits_of_p in enumerate(limits):
            for iq, got in enumerate(limits_of_p):
                terms = " + ".join(f"{format_rational(c)} [{ir}]" for ir, c in got)
                lines.append(f"[{ip}] [{iq}] -> {terms}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    _, _, call = _SUITES[args.suite]
    rep = call(args.alpha, getattr(args, "n", None), args.max_counterexamples)
    _emit(rep.canonical_json(), args.out)
    if not rep.passed:
        print(f"FAIL {rep.suite}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "dims": _cmd_dims,
    "basis": _cmd_basis,
    "normalize": _cmd_normalize,
    "table": _cmd_table,
    "gram": _cmd_gram,
    "limit": _cmd_limit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {args.alpha}")
        # --nu, for the commands that read it, is parsed before any work; args.nu keeps its text
        args.nu_value = None if getattr(args, "nu", None) is None else parse_rational(args.nu)
        with capacity.override(args.capacity):
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early, as `head` does; point stdout at devnull so the
        # flush at exit cannot fail again, and exit as a writer killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"FAIL consistency: {exc}", file=sys.stderr)
        if exc.payload is not None:
            # the offending data, so the failure can be reproduced
            print(json.dumps(exc.payload, sort_keys=True), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
