"""The repository benchmark: three closed-loop workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload query_urban --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``index_urban``   — serial catalog -> index -> save of the Urban catalog;
* ``query_urban``   — serial per-pair queries against the saved Urban index;
* ``update_cluster`` — incremental update steps on the NYC-Open-like corpus,
  on a 2-host localhost cluster.

Inputs are generated from ``--seed`` before any timing.  Set-up is measured
in ``SETUP_REPS`` fresh child processes and reported as the median; the
closed loop runs for ``--seconds`` in the last of them.  Outputs are checked
against references computed outside the timing; every failed check counts as
a failed operation.  With ``--trace 1`` a further child repeats a fixed
amount of the work with the layer wrappers of ``layers.py`` installed and
the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is the JSON result; a readable table of
every metric goes to standard error, and the full record (provenance, input
sizes, sample counts, spans) to ``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("index_urban", "query_urban", "update_cluster")

#: Environment variables that turn on tracing, profiling, metrics export,
#: fault injection or an external cluster inside the program.
FORBIDDEN_ENV = (
    "REPRO_TRACE",
    "REPRO_PROFILE",
    "REPRO_METRICS_PORT",
    "REPRO_FAULT_PLAN",
    "REPRO_CLUSTER",
)
#: Fresh child processes that each measure one set-up.
SETUP_REPS = 3
#: Operations every untimed run completes at least, and that the traced
#: run repeats.
TRACE_OPS = {"index_urban": 2, "query_urban": 72, "update_cluster": 2}
#: Pairs per query seed whose decisions are checked against exact mode.
EXACT_PAIRS = 2
CHILD_TIMEOUT_S = 170.0

#: Result-line metrics.  ``op_p50_cal`` and ``work_per_cal`` measure time in
#: units of the reference computation run alongside (``workloads.calibrate``),
#: so that they move far less with the host's CPU speed; the same figures in
#: ms and 1/s are in the table and the record.
END_TO_END = {
    "setup_s": "s",
    "op_p50_cal": "cal",
    "work_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _p95(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _traced_cal(child: dict, n: int) -> float:
    """Set-up work plus the first ``n`` operations of a child, in cal.

    Set-up is divided by the calibration taken right after it.
    """
    return child["setup_work_s"] / child["cal_samples_s"][0] + sum(
        op["seconds"] / op["cal_s"] for op in child["ops"][:n]
    )


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")}
    except OSError:
        return set()


class Bench:
    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.root = root
        self.src = root / "src"
        self.work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.results = HERE / ".results"
        self.tmp = self.work / "tmp"
        self.n_children = 0
        self.failures: list[str] = []
        #: Wall seconds of each phase of the run (inputs, children, checks).
        self.phase_s: dict[str, float] = {}

    # -- children -------------------------------------------------------------

    def child(self, mode: str, **extra) -> dict:
        self.n_children += 1
        name = f"child-{self.n_children}-{mode}"
        workdir = self.work / name
        workdir.mkdir(parents=True)
        spec = {
            "workload": self.args.workload,
            "mode": mode,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "min_ops": TRACE_OPS[self.args.workload],
            "serial": False,
            "src": str(self.src),
            "workdir": str(workdir),
            "result": str(workdir / "result.json"),
            "spans": str(workdir / "spans.json"),
            **self.inputs,
            **extra,
        }
        if self.args.workload == "update_cluster" and mode != "setup":
            # The loop rewrites the catalog: give it its own copy.
            shutil.copytree(self.inputs["catalog"], workdir / "catalog")
            spec["catalog"] = str(workdir / "catalog")
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, TMPDIR=str(self.tmp))
        start = time.perf_counter()
        # A session of its own, so that a timeout also stops the child's
        # workers.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), str(spec_path)],
            env=env,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{name} timed out after {CHILD_TIMEOUT_S:.0f}s") from None
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        self.phase_s[name] = time.perf_counter() - start
        result = json.loads(Path(spec["result"]).read_text())
        result["workdir"] = str(workdir)
        result["catalog"] = spec.get("catalog")
        if result["live_children"]:
            self.failures.append(f"{name}: child processes still running: {result['live_children']}")
        return result

    # -- inputs and references ------------------------------------------------

    def make_inputs(self) -> None:
        import inputs

        seed = self.args.seed
        start = time.perf_counter()
        self.inputs = {"qseeds": inputs.query_seeds(seed)}
        if self.args.workload == "update_cluster":
            catalog, pool = self.work / "open", self.work / "open-pool"
            self.sizes = inputs.write_open(seed, catalog, pool)
            self.inputs.update(catalog=str(catalog), pool=str(pool))
        else:
            from repro.data.catalog import save_catalog
            from repro.mapreduce.engine import LocalEngine

            datasets, city = inputs.urban_collection(seed)
            if self.args.workload == "index_urban":
                catalog = self.work / "urban"
                save_catalog(catalog, datasets, city)
                self.sizes = inputs.catalog_sizes(datasets, catalog)
                self.inputs["catalog"] = str(catalog)
            else:
                self.sizes = inputs.catalog_sizes(datasets)
                out = self.work / "urban-index"
                index = inputs.index_datasets(datasets, city, out, LocalEngine())
                self.sizes["partitions"] = len(index.partition_fingerprints)
                self.sizes["functions"] = index.stats.n_scalar_functions
                self.inputs["input_index"] = str(out)
        self.phase_s["inputs"] = time.perf_counter() - start

    def check_index_ops(self, ops: list[dict], reference: str) -> None:
        for i, op in enumerate(ops):
            if op["kind"] == "index" and op["digest"] != reference:
                self.failures.append(f"index op {i}: saved index differs from the reference")

    def check_queries(self, records: list[dict]) -> None:
        """Rounds agree; decisions match exact mode on a seeded pair sample."""
        import numpy as np

        import inputs
        from repro.core.corpus import CorpusIndex
        from repro.mapreduce.engine import LocalEngine

        engine = LocalEngine()
        index = CorpusIndex.load(self.inputs["input_index"], engine=engine)
        names = list(index.datasets)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        qseeds = self.inputs["qseeds"]

        def run(pair, k, mode):
            a, b = pairs[pair]
            return inputs.query_digest(
                index.query(
                    [a],
                    [b],
                    n_permutations=inputs.N_PERMUTATIONS,
                    seed=qseeds[k],
                    engine=engine,
                    significance_mode=mode,
                )
            )

        first: dict[tuple[int, int], str] = {}
        decisions: dict[tuple[int, int], list[str]] = {}
        for record in records:
            key = (record["pair"], record["qseed"])
            if "decisions" in record:
                decisions[key] = record["decisions"]
            if key not in first:
                first[key] = record["digest"]
            elif record["digest"] != first[key]:
                self.failures.append(f"query {key}: differs from an earlier round")

        rng = np.random.default_rng([self.args.seed, 3])
        for k in range(len(qseeds)):
            observed = sorted(p for p, kk in decisions if kk == k)
            if not observed:
                continue
            sample = rng.choice(observed, min(EXACT_PAIRS, len(observed)), replace=False)
            for pair in sorted(int(p) for p in sample):
                if run(pair, k, "exact")[1] != decisions[(pair, k)]:
                    self.failures.append(f"query {(pair, k)}: decisions differ from exact mode")

    def check_update(self, result: dict) -> None:
        """The updated index equals a fresh serial build of the final catalog."""
        import inputs
        from repro.mapreduce.engine import LocalEngine

        out = self.work / "fresh-index"
        index = inputs.build_index(
            Path(result["catalog"]), out, LocalEngine(), spatial=inputs.OPEN_SPATIAL
        )
        self.sizes["final_partitions"] = len(index.partition_fingerprints)
        self.sizes["final_functions"] = index.stats.n_scalar_functions
        updated = Path(result["workdir"]) / "index"
        if inputs.index_digest(updated) != inputs.index_digest(out):
            self.failures.append("updated index differs from a fresh build of the final catalog")
        shutil.rmtree(out)

    def check(self, result: dict) -> None:
        workload = self.args.workload
        ops = result["ops"]
        if workload == "index_urban":
            self.check_index_ops(ops, ops[0]["digest"])
        elif workload == "query_urban":
            self.check_queries(result["warmup"] + ops)
        else:
            self.check_update(result)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, setups: list[float], result: dict) -> tuple[dict, dict]:
        """(metrics of the result line, readable metrics with sample counts)."""
        ops = result["ops"]
        index_ops = [op for op in ops if op["kind"] == "index"]
        query_ops = [op for op in ops if op["kind"] == "query"]
        index_s = [op["seconds"] for op in index_ops]
        query_ms = [op["seconds"] * 1e3 for op in query_ops]
        update_s = [op["seconds"] for op in ops if op["kind"] == "update"]
        evaluated = sum(op["evaluated"] for op in query_ops)
        query_wall = sum(op["seconds"] for op in query_ops)
        rss_main = result["rss_main_mb"]
        rss_worker = result["rss_worker_mb"] if self.args.workload == "update_cluster" else 0.0

        readable = {
            "setup_s": (_median(setups), "s", len(setups)),
            "index_s": (_median(index_s), "s", len(index_s)),
            "update_s": (_median(update_s), "s", len(update_s)),
            "query_p50_ms": (_median(query_ms), "ms", len(query_ms)),
            "query_p95_ms": (_p95(query_ms), "ms", len(query_ms)),
            "evals_per_s": (evaluated / query_wall if query_wall else 0.0, "1/s", len(query_ms)),
            "peak_rss_mb": (rss_main, "MB", 1),
            "worker_peak_rss_mb": (rss_worker, "MB", 1),
            "fail_frac": (len(self.failures) / max(1, len(ops)), "ratio", len(ops)),
        }
        # (seconds, calibration seconds) of each timed operation, and the
        # work done in (seconds, calibration seconds) of work time.
        workload = self.args.workload
        if workload == "index_urban":
            timed = [(op["seconds"], op["cal_s"]) for op in index_ops]
            work = sum(op["functions"] for op in index_ops)
            work_time = timed
        elif workload == "update_cluster":
            timed = [(op["seconds"], op["cal_s"]) for op in ops]
            work = sum(op["rebuilt"] for op in ops)
            work_time = timed
        else:
            # One operation is a round over every pair (complete rounds only),
            # taken per query: the median of single queries would move with
            # which pairs a seed's data puts in the middle of the ranking.
            n = 1 + max(op["pair"] for op in query_ops)
            rounds = [query_ops[i : i + n] for i in range(0, len(query_ops) - n + 1, n)]
            timed = [(sum(op["seconds"] for op in r) / n, r[0]["cal_s"]) for r in rounds]
            work = evaluated
            work_time = [(op["seconds"], op["cal_s"]) for op in query_ops]
        cals_ms = [c * 1e3 for c in result["cal_samples_s"]]
        readable["op_p50_ms"] = (_median([t * 1e3 for t, _ in timed]), "ms", len(timed))
        readable["work_per_s"] = (work / sum(t for t, _ in work_time), "1/s", len(work_time))
        readable["calibration_ms"] = (_median(cals_ms), "ms", len(cals_ms))
        metrics = {
            "setup_s": _median(setups),
            "op_p50_cal": _median([t / c for t, c in timed]),
            "work_per_cal": work / sum(t / c for t, c in work_time),
            "peak_rss_mb": rss_main + rss_worker,
        }
        return metrics, readable

    def per_layer(self, untraced: dict, traced: dict, replay: dict | None) -> dict:
        import layers

        n = TRACE_OPS[self.args.workload]
        layer = dict((replay or traced)["layers"])
        if replay is not None:
            for name in layers.PARALLEL_METRICS + ("trace.attributed_frac",):
                layer[name] = traced["layers"][name]
        layer["trace.overhead_frac"] = _traced_cal(traced, n) / _traced_cal(untraced, n) - 1.0
        return layer

    # -- provenance -------------------------------------------------------------

    def provenance(self) -> dict:
        import numpy

        host = None
        host_file = self.root / "benchmarks" / "_host.py"
        if host_file.is_file():
            spec = importlib.util.spec_from_file_location("_bench_host", host_file)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            host = module.host_info()
        commit = None
        if (self.root / ".git").exists():
            try:
                commit = subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    cwd=self.root,
                    env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(self.root.parent)),
                    capture_output=True,
                    text=True,
                    timeout=10,
                ).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                pass
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(path.read_bytes())
        return {
            "host": host,
            "numpy": numpy.__version__,
            "git_commit": commit,
            "source_sha256": digest.hexdigest(),
            "seed": self.args.seed,
            "query_seeds": self.inputs["qseeds"],
        }

    # -- the run ------------------------------------------------------------------

    def run(self) -> dict:
        args = self.args
        self.tmp.mkdir(parents=True)
        shm_before = _shm_segments()
        self.make_inputs()

        setups = [self.child("setup")["setup_s"] for _ in range(SETUP_REPS - 1)]
        result = self.child("run")
        setups.append(result["setup_s"])
        start = time.perf_counter()
        self.check(result)
        self.phase_s["checks"] = time.perf_counter() - start

        traced = replay = None
        if args.trace:
            n = TRACE_OPS[args.workload]
            traced = self.child("traced", n_ops=n)
            if args.workload == "update_cluster":
                replay = self.child("traced", n_ops=n, serial=True)

        leaked = _shm_segments() - shm_before
        if leaked:
            self.failures.append(f"shared-memory segments left behind: {sorted(leaked)}")
        left = [p.name for p in self.tmp.iterdir()]
        if left:
            self.failures.append(f"temporary files left behind (spool directories): {left}")

        metrics, readable = self.end_to_end(setups, result)
        ops = result["ops"]
        sizes = dict(self.sizes)
        for key in ("functions", "partitions"):
            if key in ops[0]:
                sizes.setdefault(key, ops[0][key])
        if args.workload == "query_urban":
            n = sizes["datasets"]
            sizes["pairs"] = n * (n - 1) // 2
        sizes["evaluations"] = sum(op.get("evaluated", 0) for op in ops)
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": self.provenance(),
            "input_sizes": sizes,
            "phase_s": self.phase_s,
            "setup_samples_s": setups,
            "op_samples": [
                {k: v for k, v in op.items() if k not in ("digest", "decisions")}
                for op in ops
            ],
            "attempted": len(ops),
            "failures": self.failures,
            "metrics": metrics,
            "readable": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in readable.items()},
        }
        if traced is not None:
            record["layers"] = self.per_layer(result, traced, replay)
            self.results.mkdir(exist_ok=True)
            for label, child in (("", traced), ("-replay", replay)):
                if child is not None:
                    shutil.copyfile(
                        Path(child["workdir"]) / "spans.json",
                        self.results / f"{args.workload}-seed{args.seed}-spans{label}.json",
                    )
        return record


def _print_table(record: dict) -> None:
    out = sys.stderr
    print(f"== {record['workload']} (seed {record['provenance']['seed']}, "
          f"{record['seconds']}s loop)", file=out)
    print(f"   inputs: {record['input_sizes']}", file=out)
    phases = ", ".join(f"{k} {v:.1f}s" for k, v in record["phase_s"].items())
    print(f"   phases: {phases}", file=out)
    for name, entry in record["readable"].items():
        if entry["n"]:
            print(f"   {name:<20} {entry['value']:>14.4f} {entry['unit']:<6} n={entry['n']}", file=out)
    for name, value in record.get("layers", {}).items():
        print(f"   {name:<30} {value:>16.6f}", file=out)
    for failure in record["failures"]:
        print(f"   FAILED: {failure}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    forbidden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if forbidden:
        print(
            f"perfbench: refusing to run with {', '.join(forbidden)} set; these "
            "change what the program does and would distort the measurement",
            file=sys.stderr,
        )
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    bench = Bench(args, root)
    try:
        record = bench.run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    bench.results.mkdir(exist_ok=True)
    path = bench.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2))
    _print_table(record)
    if args.trace:
        import layers

        metrics = {
            n: {"value": v, "unit": layers.unit_of(n)} for n, v in record["layers"].items()
        }
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in record["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": not record["failures"],
                "attempted": record["attempted"],
                "failed": len(record["failures"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
