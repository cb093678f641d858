"""sha256 of every CLI data file of the benchmark workloads, for checking
that a change leaves the lab's outputs byte-identical.

    python3 tests/datafile_hashes.py OUT.json [--seeds 0 1] [--root DIR]
                                     [--work DIR]
    python3 tests/datafile_hashes.py --diff BEFORE.json AFTER.json

The first form runs every experiment of every input variant of every
workload in `perfbench/workloads.py` at its full size, at each seed, through
`emergence_lab.cli.main` in this process, and writes one JSON object that
maps "<workload>/<seed>/<label>/<file>" to the sha256 of that data file
(manifests, which hold times and versions, are left out).  It also runs the
experiments that no workload runs, `entropy`, `pressure`, `bowen` and
`conditions`, on the full 2-shift, the golden mean and the full 3-shift at
windows 1-3 with tables drawn from the seed, plus one pressure on the full
3-shift at window 6, whose transfer matrix has 243 states (`cli_only`);
their keys start with "cli-only/".  `--root` takes `src/` and
`perfbench/workloads.py` from another checkout, e.g. the parent commit
unpacked with `git archive`, so both sides run the same script; `--work`
keeps the CLI outputs there instead of in a temporary directory.  The
second form prints the keys whose hashes differ or that only one side has,
then how many differ among the workloads' files and among the "cli-only"
ones, and exits 1 if any differ.

The file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


CLI_ONLY = "cli-only"
SPACES = {"full2": {"m": 2, "beta": 2.0, "transition": [[1, 1], [1, 1]]},
          "gm": {"m": 2, "beta": 2.0, "transition": [[1, 1], [1, 0]]},
          "full3": {"m": 3, "beta": 2.0, "transition": [[1] * 3] * 3}}


def cli_only(seed):
    """[(label, subcommand, config dict)] of the entropy, pressure, bowen
    and conditions runs at one seed: each space's entropy, and on each
    space at windows 1-3 a pressure and a conditions run on a table in
    [-1, 1] and a bowen run on a table in [0.2, 1.2], drawn from the seed;
    then the pressure of a window-6 table on the full 3-shift."""
    from emergence_lab.sofic import ShiftSpace, admissible_words

    def table(space, window, lo, hi, rng):
        words = admissible_words(ShiftSpace(
            space["m"], space["transition"], space["beta"]), window)
        return {",".join(map(str, w)): rng.uniform(lo, hi) for w in words}

    out = []
    for name, space in SPACES.items():
        out.append((f"entropy-{name}", "entropy", space, {}))
        for window in (1, 2, 3):
            rng = random.Random(f"{CLI_ONLY}:{seed}:{name}:{window}")
            phi = table(space, window, -1.0, 1.0, rng)
            out += [
                (f"pressure-{name}-w{window}", "pressure", space,
                 {"window": window, "table": phi, "lengths": [4, 8, 12]}),
                (f"bowen-{name}-w{window}", "bowen", space,
                 {"window": window,
                  "table": table(space, window, 0.2, 1.2, rng)}),
                (f"conditions-{name}-w{window}", "conditions", space,
                 {"kind": "pressure", "window": window, "table": phi,
                  "depth": 4, "t_grid": [0.25, 0.5, 1.0]})]
    rng = random.Random(f"{CLI_ONLY}:{seed}:full3:6")
    out.append(("pressure-full3-w6", "pressure", SPACES["full3"],
                {"window": 6, "lengths": [4, 8],
                 "table": table(SPACES["full3"], 6, -1.0, 1.0, rng)}))
    return [(label, sub, {"space": space, "experiment": sub,
                          "parameters": params, "seed": seed})
            for label, sub, space, params in out]


def hashes(root, seeds, work):
    """{key: sha256} of the data files of every workload, variant and seed,
    and of the `cli_only` runs at each seed, each experiment run through
    the CLI of `root`/src into `work`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from emergence_lab import cli

    runs = [(name, seed, label, sub, cfg, threads)
            for name in workloads.NAMES for seed in seeds
            for _, label, sub, cfg, threads in workloads.inputs(name, seed)]
    runs += [(CLI_ONLY, seed, label, sub, cfg, 1)
             for seed in seeds for label, sub, cfg in cli_only(seed)]
    out = {}
    for name, seed, label, sub, cfg, threads in runs:
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
        every = before.keys() | after.keys()
        keys = sorted(k for k in every if before.get(k) != after.get(k))
        extra = {k for k in every if k.startswith(CLI_ONLY + "/")}
        for line in keys + [f"{len(pool.intersection(keys))} of {len(pool)} "
                            f"{group} data files differ" for group, pool in
                            (("workload", every - extra), (CLI_ONLY, extra))]:
            print(line)
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
