"""sha256 of every CLI data file of the benchmark workloads, for checking
that a change leaves the lab's outputs byte-identical.

    python3 tests/datafile_hashes.py OUT.json [--seeds 0 1] [--root DIR]
                                     [--work DIR]
    python3 tests/datafile_hashes.py --diff BEFORE.json AFTER.json

The first form runs every experiment of every input variant of every
workload in `perfbench/workloads.py` at its full size, at each seed, through
`emergence_lab.cli.main` in this process, and writes one JSON object that
maps "<workload>/<seed>/<label>/<file>" to the sha256 of that data file
(manifests, which hold times and versions, are left out).  `--root` takes
`src/` and `perfbench/workloads.py` from another checkout, e.g. the parent
commit unpacked with `git archive`, so both sides run the same script;
`--work` keeps the CLI outputs there instead of in a temporary directory.
The second form prints the keys whose hashes differ or that only one side
has, and exits 1 if there are any.

The file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def hashes(root, seeds, work):
    """{key: sha256} of the data files of every workload, variant and seed,
    each experiment run through the CLI of `root`/src into `work`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from emergence_lab import cli

    out = {}
    for name in workloads.NAMES:
        for seed in seeds:
            for _, label, sub, cfg, threads in workloads.inputs(name, seed):
                run = work / name / str(seed) / label
                run.mkdir(parents=True)
                cfg = {**cfg, "output_dir": str(run / "out")}
                path = run / "config.json"
                path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
                try:
                    cli.main([sub, "--config", str(path), "--threads",
                              str(threads)], standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code
                if code != 0:
                    raise RuntimeError(f"{name}/{seed}/{label}: CLI exit {code}")
                for f in sorted((run / "out").iterdir()):
                    if f.name != "manifest.json" and not f.name.startswith("."):
                        out[f"{name}/{seed}/{label}/{f.name}"] = \
                            hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ to run")
    ap.add_argument("--work", type=Path, default=None,
                    help="keep the CLI outputs in this new directory")
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.diff:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8"))
                         ["files"] for p in args.diff)
        keys = sorted(k for k in before.keys() | after.keys()
                      if before.get(k) != after.get(k))
        print("\n".join(keys + [f"{len(keys)} of "
                                f"{len(before.keys() | after.keys())} "
                                "data files differ"]))
        return 1 if keys else 0
    if not args.out:
        ap.error("give OUT.json or --diff BEFORE AFTER")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        files = hashes(args.root.resolve(), args.seeds, work)
    Path(args.out).write_text(json.dumps(
        {"seeds": args.seeds, "files": files}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(f"{len(files)} data files hashed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
