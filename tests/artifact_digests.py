"""Digests of the benchmark workloads' artifacts, to check that a change keeps their bytes.

    python tests/artifact_digests.py TREE OUT.json
    python tests/artifact_digests.py --compare A.json B.json

The first form runs the four `bench/workloads.py` plans of the checkout TREE
at seeds 0, 7 and 87, each into its own temporary directory, and writes
OUT.json: the SHA-256 of every artifact, named `<workload>/s<seed>/<file>`,
and the status of every run, "ok" or the fields of the `Diverged` it raised.
A JSON artifact is digested without its `version` and `out_dir` keys, at any
depth, and otherwise as written: `version` hashes the package's sources and
`out_dir` names the temporary directory, so both differ between any two
checkouts. The script imports only TREE's `bench/` modules, which put TREE's
`src/` first on the import path, and writes nothing into TREE.

The second form prints every name whose digest or status differs between
two such files, or that only one of them has, and exits 1 when there is one.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ in the checkout under test

SEEDS = (0, 7, 87)
DROPPED_KEYS = ("version", "out_dir")
DIVERGED_FIELDS = ("algorithm", "iteration", "node", "quantity", "lane")


def _without_dropped(value):
    if isinstance(value, dict):
        return {key: _without_dropped(item) for key, item in value.items() if key not in DROPPED_KEYS}
    if isinstance(value, list):
        return [_without_dropped(item) for item in value]
    return value


def digest(path: Path) -> str:
    """SHA-256 of an artifact; a JSON one is rewritten as the runner writes it, less `DROPPED_KEYS`."""
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = _without_dropped(json.loads(data))
        data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def record(tree: Path) -> dict:
    """Run every workload of `tree` at `SEEDS`; the digests of its artifacts and the status of each run."""
    sys.path.insert(0, str(tree / "bench"))
    import bootstrap

    bootstrap.prepare()
    import workloads

    digests, runs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                label = f"{name}/s{seed}"
                out_dir = Path(tmp) / name / f"s{seed}"
                plan = workload.plan(seed, str(out_dir))
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # ball exits and a diverging run's overflows
                        plan.call()
                except ValueError as exc:
                    if type(exc).__name__ != "Diverged":
                        raise
                    runs[label] = {"Diverged": {field: getattr(exc, field) for field in DIVERGED_FIELDS}}
                else:
                    runs[label] = "ok"
                for path in sorted(out_dir.rglob("*")):
                    if path.is_file():
                        digests[f"{label}/{path.relative_to(out_dir).as_posix()}"] = digest(path)
    return {"digests": digests, "runs": runs}


def compare(a: dict, b: dict) -> list:
    """The digest and run names whose entries differ between two records, or that only one has."""
    differ = []
    for key in ("digests", "runs"):
        for name in sorted(a[key].keys() | b[key].keys()):
            if a[key].get(name) != b[key].get(name):
                differ.append(name)
    return differ


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:])
        differ = compare(a, b)
        for name in differ:
            print(name)
        total = sum(len(a[key].keys() | b[key].keys()) for key in ("digests", "runs"))
        print(f"{len(differ)} of {total} artifacts and runs differ")
        return 1 if differ else 0
    if len(argv) == 2 and not argv[0].startswith("-"):
        result = record(Path(argv[0]).resolve())
        Path(argv[1]).write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"{len(result['digests'])} artifacts of {len(result['runs'])} runs")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
