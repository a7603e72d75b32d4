"""The workloads: their inputs, the timed job, and the output checks.

Each workload is a class built in set-up (inputs only), whose `run` is the
timed job and whose `check` runs afterwards, untimed, and returns the
number of operations attempted and failed.  Both workloads have fixed
inputs, so they take no seed.  Library calls go through the
`rookalg` package attributes at call time, so the tracer's wrappers see
them.  The "tiny" scale exists for the benchmark's own tests.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import rookalg
import rookalg.cli

SCALES = {
    "full": {
        "build_alpha": 4,
        "certify_alpha": 3,
        "crosscheck_points": ((2, 4), (3, 3), (3, 4), (3, 5)),
    },
    "tiny": {
        "build_alpha": 2,
        "certify_alpha": 2,
        "crosscheck_points": ((1, 2), (2, 2)),
    },
}

# sha256 of `rookalg table --alpha A --format json`, as the seed commit writes it
TABLE_JSON_SHA256 = {
    2: "14f607728cdfc3456248074a1297dcd52e5b94f90343b8a84f6fa3fee245ef72",
    4: "259fe9eddc3e52588fd9c026d89ba65ae66ea1c1cae2cfef6f0d0c29a0f79ba1",
}


class Build:
    """`rookalg table --alpha 4 --format json --out FILE`, cold, in-process."""

    def __init__(self, scale: dict, workdir: Path):
        self.alpha = scale["build_alpha"]
        self.out_path = workdir / f"table-alpha{self.alpha}.json"
        self.argv = ["table", "--alpha", str(self.alpha), "--format", "json", "--out", str(self.out_path)]
        self.exit_code: int | None = None

    def run(self) -> None:
        self.exit_code = rookalg.cli.main(self.argv)

    def check(self) -> tuple[int, int, list[str]]:
        if self.exit_code != 0:
            return 1, 1, [f"exit code {self.exit_code}"]
        digest = hashlib.sha256(self.out_path.read_bytes()).hexdigest()
        self.out_path.unlink()
        if digest != TABLE_JSON_SHA256[self.alpha]:
            return 1, 1, [f"table JSON sha256 {digest}"]
        return 1, 0, []


class Certify:
    """A cold certification pass against the oracle at alpha <= 3."""

    def __init__(self, scale: dict, workdir: Path):
        a = scale["certify_alpha"]
        self.calls = [("crosscheck_structure", (alpha, n)) for alpha, n in scale["crosscheck_points"]]
        self.calls += [
            ("relation_suite", (a, a)),
            ("limit_suite", (a,)),
            ("semisimplicity_probe", (a,)),
            ("gram_suite", (a,)),
        ]
        self.reports: list = []

    def run(self) -> None:
        for name, args in self.calls:
            try:
                rep = getattr(rookalg, name)(*args)
            except Exception as exc:  # a raising suite is a failed operation, not a crash
                rep = exc
            self.reports.append(rep)

    def check(self) -> tuple[int, int, list[str]]:
        notes = []
        for (name, args), rep in zip(self.calls, self.reports):
            if isinstance(rep, Exception):
                notes.append(f"{name}{args} raised {type(rep).__name__}: {rep}")
            elif rep.status != "pass" or rep.metrics.get("failure_count", 0) > 0:
                notes.append(f"{name}{args} status {rep.status}, failures {rep.metrics.get('failure_count')}")
        return len(self.calls), len(notes), notes


WORKLOADS = {"build4": Build, "certify3": Certify}
