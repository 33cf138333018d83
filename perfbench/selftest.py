"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, in order:

1. every workload and metric name matches ``[A-Za-z0-9_.-]+``, and the
   metric names ``run.py`` and ``layers.py`` emit are exactly those of
   ``BENCHMARK.json``;
2. the same seed gives the same request-stream digest and another seed a
   different one, for every workload;
3. installing and removing the traced run's shims leaves every wrapped
   function and method identical (the very same object) to before;
4. a planted wrong answer in each workload is caught (``correct`` false),
   while the same short run without it is correct;
5. in a directory holding only ``BENCHMARK.json`` and the benchmark's
   files the benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def names() -> None:
    import layers
    import run
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    every = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in every if not NAME.fullmatch(n)]
    check(not bad, f"names match [A-Za-z0-9_.-]+ (bad: {bad})")
    check(len(every) == len(set(every)), "names are used once")
    check([m["name"] for m in spec["end_to_end"]]
          == list(run.END_TO_END_UNITS), "end-to-end metrics match run.py")
    check([m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER),
          "per-layer metrics match layers.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads match run.py")


def digests() -> None:
    import run
    for workload in run.WORKLOADS:
        module = __import__(workload)
        same = module.stream_digest(7) == module.stream_digest(7)
        differs = module.stream_digest(7) != module.stream_digest(8)
        check(same and differs, f"{workload}: stream digest is a function "
                                f"of the seed")


def shims() -> None:
    from spans import Recorder, Shims, TARGETS
    common.import_program()
    shim = Shims(Recorder()).install()
    patched = list(shim.patched)
    owners = {(type(o).__name__ if isinstance(o, type) else o.__name__,
               name) for o, name, _orig in patched}
    replaced = all(getattr(o, n) is not orig for o, n, orig in patched)
    shim.uninstall()
    restored = all(o.__dict__[n] is orig for o, n, orig in patched)
    check(len(patched) >= len(TARGETS) and replaced,
          f"shims replace all {len(TARGETS)} targets "
          f"({len(owners)} call sites)")
    check(restored, "shims restore every wrapped object identically")


def run_once(workload: str, *extra: str, cwd: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


def planted() -> None:
    import run
    for workload in run.WORKLOADS:
        results = []
        for extra in ((), ("--plant",)):
            done = run_once(workload, *extra)
            last = done.stdout.strip().splitlines()[-1:] or ["{}"]
            results.append(json.loads(last[0]).get("correct"))
        check(results == [True, False],
              f"{workload}: clean run correct, planted wrong answer caught "
              f"(got {results})")


def bare_directory() -> None:
    bare = common.out_dir("selftest-bare")
    shutil.rmtree(bare)
    bare.mkdir()
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_once("cel_mix", cwd=bare)
    printed_result = any(line.startswith("{")
                         for line in done.stdout.splitlines())
    check(done.returncode != 0 and not printed_result,
          f"no program: exit {done.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    common.scrub_environment()
    names()
    digests()
    shims()
    bare_directory()
    planted()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
