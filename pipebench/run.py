"""Pipeline benchmark for encore: seeded corpus, real CLI commands, output
checks, per-command throughput and peak RSS, and a traced per-layer run.

    python3 pipebench/run.py --workload {prep,eval} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the benchmark imports ``src/``
and runs each command as ``python3 -m encore.cli`` in its own child
process, one at a time, timing it from spawn to exit and taking that
child's own peak RSS from ``os.wait4`` (see ``spawner.py``). With
``--trace 0`` it repeats the full command round (workers 1 and 2) until S
seconds have passed, and at least twice, and prints the median of every
end-to-end metric. Times are scaled to a reference machine speed by a
probe run between commands (see ``PROBE``). With ``--trace 1`` it runs
one untraced round at workers 1, then traced rounds of the same commands
through ``traced_child.py`` until S seconds have passed, and prints the
per-layer metrics, whose span times are not scaled. Workloads and
predictions are in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment the numbers came from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spawner import Child, Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"
CHILD_TIMEOUT = 150.0
SETUP_REPEATS = 3
# the median of two rounds halves the weight of a slow spell within a run
MIN_ROUNDS = 2
# Every time reported is a wall time scaled to a reference machine speed.
# The probe is a fixed program that never touches encore (interpreter start,
# the numpy import, a little pure-Python and numpy work, as at the start of
# every command); it runs before the first command of a round and after each
# one, and a command's wall time is multiplied by PROBE_REFERENCE_S over the
# mean of the probes on either side of it. On a shared 2-CPU machine the
# speed of the probe and of the commands drifts together by a third within
# an hour (`encore --version` between 1.26 s and 1.87 s within five
# minutes). Over batches of ten seeds the spread (IQR over median) of the
# rates was 0.11-0.36 on raw wall times and 0.05-0.23 when scaled; a
# lighter probe (mostly interpreter start) over-corrected, so the probe
# does pure-Python work as the commands do.
# PROBE_REFERENCE_S is the probe's time on that machine when it is quiet.
PROBE = ("import numpy\n"
         "sorted(range(200_000), key=lambda i: i * 7919 % 200_003)\n"
         "numpy.fft.rfft(numpy.ones((256, 4096)), axis=1)\n")
PROBE_REFERENCE_S = 0.3
SYMBOLIC = ("tokenize", "tokenize_w2", "augment_mistakes", "augment_speed", "manifest")
STEPS = (*SYMBOLIC, "synth", "evaluate", "evaluate_w2", "frechet")


class Bench:
    def __init__(self, workload, seed: int, work: Path, spawner: Spawner):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spawner = spawner
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.checks = checks.Checks()
        self.reference: dict[str, dict[str, str]] = {}  # step -> first round's digest
        self.probes: list[float] = []

    # -- corpus ------------------------------------------------------------

    def build(self) -> None:
        sym_seq, audio_seq, reg_seq = np.random.SeedSequence(self.seed).spawn(3)
        w = self.workload
        self.scores = corpus.write_scores(
            np.random.default_rng(sym_seq), w.symbolic_seconds, self.work / "scores", "s")
        audio_rng = np.random.default_rng(audio_seq)
        audio_scores = [corpus.make_score(audio_rng, s, f"a{i:03d}")
                        for i, s in enumerate((*w.pair_seconds, w.identity_seconds))]
        self.registry = corpus.write_registry(
            np.random.default_rng(reg_seq), self.scores, self.work)
        self.eval_set = corpus.write_eval_set(
            audio_rng, audio_scores[:-1], audio_scores[-1], self.work / "eval")
        self.score_seconds = float(sum(s.seconds for s in self.scores))

    # -- commands ----------------------------------------------------------

    def steps(self, out: Path, workers2: bool) -> dict[str, list[str]]:
        """One ``encore`` invocation per step, writing under ``out / step``.
        ``evaluate`` reads the same output/reference columns for every
        metric, so Fréchet on embedding files needs its own invocation; it
        runs once per round and counts towards both evaluate rates."""
        mids = [str(self.work / "scores" / f"{s.name}.mid") for s in self.scores]
        seed = str(self.seed)
        steps = {
            "tokenize": ["tokenize", *mids, "--workers", "1"],
            "tokenize_w2": ["tokenize", *mids, "--workers", "2"],
            "augment_mistakes": ["augment", *mids, "--mode", "mistakes", "--seed", seed,
                                 "--workers", "1"],
            "augment_speed": ["augment", *mids, "--mode", "speed", "--seed", seed,
                              "--workers", "1"],
            "manifest": ["manifest", "--registry", self.registry, "--stage", "merged",
                         "--seed", seed],
            "synth": ["synth", *self.eval_set.midi, "--workers", "1"],
        }
        for key in steps:
            steps[key] += ["--out", out / key]
        for key, workers in (("evaluate", "1"), ("evaluate_w2", "2")):
            steps[key] = ["evaluate", "--pairs", out / "pairs.csv", "--metrics", "chroma,tempo",
                          "--workers", workers, "--out", out / key / "results.csv"]
        steps["frechet"] = ["evaluate", "--pairs", self.eval_set.embedding_csv,
                            "--metrics", "frechet", "--out", out / "frechet" / "results.csv"]
        if not workers2:
            del steps["tokenize_w2"], steps["evaluate_w2"]
        return {k: [str(a) for a in argv] for k, argv in steps.items()}

    def run_round(self, out: Path, workers2: bool, traced: bool = False) -> dict[str, Child]:
        """Run every step once; with ``traced`` each invocation goes through
        ``traced_child.py`` and leaves its spans in ``out / "spans"``."""
        out.mkdir(parents=True)
        if traced:
            (out / "spans").mkdir()
        # evaluate finds the WAVs relative to the pairs file: next to synth/
        shutil.copyfile(self.eval_set.pairs_csv, out / "pairs.csv")
        result = {}
        before = self.probe()
        for key, argv in self.steps(out, workers2).items():
            if traced:
                prefix = [sys.executable, str(HERE / "traced_child.py"),
                          str(out / "spans" / f"{key}.json")]
            else:
                prefix = [sys.executable, "-m", "encore.cli"]
            child = self.spawner.run(prefix + argv, self.logs / f"{key}.log", CHILD_TIMEOUT)
            self.checks.expect(child.code == 0, f"{key}: exit code {child.code}")
            after = self.probe()
            child.seconds *= PROBE_REFERENCE_S / ((before + after) / 2)
            result[key] = child
            before = after
        return result

    def probe(self) -> float:
        child = self.spawner.run([sys.executable, "-c", PROBE], self.logs / "probe.log",
                                 CHILD_TIMEOUT)
        self.checks.expect(child.code == 0, f"probe: exit code {child.code}")
        self.probes.append(child.seconds)
        return child.seconds

    # -- checks ------------------------------------------------------------

    def _guard(self, what: str, fn, *args):
        try:
            return fn(self.checks, *args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.checks.expect(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check_first_round(self, out: Path) -> None:
        """Full output checks; remember each step's output digest; the
        workers-2 outputs must equal the workers-1 ones byte for byte."""
        self._guard("tokenize", checks.tokenize, out / "tokenize", self.scores)
        self._guard("augment mistakes", checks.mistakes, out / "augment_mistakes", self.scores)
        self._guard("augment speed", checks.speed, out / "augment_speed", self.scores)
        self._guard("manifest", checks.manifest, out / "manifest", self.scores)
        lengths = self._guard("synth", checks.synth, out / "synth", self.eval_set.midi) or {}
        self._guard("evaluate", checks.evaluate, out / "evaluate" / "results.csv",
                    out / "frechet" / "results.csv", self.eval_set)
        self.rendered_seconds = sum(lengths.values()) / ANALYSIS_RATE
        self.pair_seconds = sum(
            lengths.get(out_wav, 0) + lengths.get(ref_wav, 0)
            for out_wav, ref_wav in self.eval_set.rows
        ) / ANALYSIS_RATE
        for key in STEPS:
            if key.endswith("_w2"):
                if (out / key).exists():
                    self._guard(key, checks.same_tree, out / key.removesuffix("_w2"),
                                out / key, f"{key} vs workers 1")
            elif (out / key).exists():
                self.reference[key] = checks.tree_digest(out / key)

    def check_repeat(self, out: Path) -> None:
        """Later rounds must reproduce the first round's outputs byte for byte."""
        for key in STEPS:
            want = self.reference.get(key.removesuffix("_w2"))
            if (out / key).exists() and want is not None:
                self.checks.expect(checks.tree_digest(out / key) == want,
                                   f"{key}: output differs from the first round")
        shutil.rmtree(out, ignore_errors=True)

    # -- metrics -------------------------------------------------------------

    def round_metrics(self, r: dict[str, Child]) -> dict[str, float]:
        s = self.score_seconds
        return {
            "tokenize_rate": s / r["tokenize"].seconds,
            "tokenize_w2_rate": s / r["tokenize_w2"].seconds,
            "augment_rate": 2 * s / (r["augment_mistakes"].seconds + r["augment_speed"].seconds),
            "manifest_rate": s / r["manifest"].seconds,
            "prep_rss_mb": max(r[k].rss_mb for k in SYMBOLIC),
            "synth_rate": self.rendered_seconds / r["synth"].seconds,
            "synth_rss_mb": r["synth"].rss_mb,
            "evaluate_rate": self.pair_seconds / (r["evaluate"].seconds + r["frechet"].seconds),
            "evaluate_w2_rate":
                self.pair_seconds / (r["evaluate_w2"].seconds + r["frechet"].seconds),
            "evaluate_rss_mb": max(r["evaluate"].rss_mb, r["frechet"].rss_mb),
        }

    def setup_seconds(self) -> float:
        """Median fresh-process ``encore --version``. This process has
        already imported ``encore.cli`` from the same sources, so bytecode is
        compiled and the files are cached, as after an install."""
        argv = [sys.executable, "-m", "encore.cli", "--version"]
        times = []
        before = self.probe()
        for _ in range(SETUP_REPEATS):
            child = self.spawner.run(argv, self.logs / "setup.log", CHILD_TIMEOUT)
            self.checks.expect(child.code == 0, f"--version: exit code {child.code}")
            after = self.probe()
            times.append(child.seconds * PROBE_REFERENCE_S / ((before + after) / 2))
            before = after
        return statistics.median(times)

    def untraced(self, seconds: float) -> tuple[dict[str, float], int]:
        setup = self.setup_seconds()
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            out = self.work / f"round{len(rounds)}"
            rounds.append(self.run_round(out, True))
            if len(rounds) == 1:
                self.check_first_round(out)
            else:
                self.check_repeat(out)
        per_round = [self.round_metrics(r) for r in rounds]
        metrics = {k: statistics.median([m[k] for m in per_round]) for k in per_round[0]}
        metrics["setup_s"] = setup
        return metrics, len(rounds)

    def traced(self, seconds: float) -> tuple[dict[str, float], int]:
        """One untraced round at workers 1 for the baseline and the output
        checks, then traced rounds of the same commands."""
        start = time.perf_counter()
        base = self.run_round(self.work / "untraced", False)
        self.check_first_round(self.work / "untraced")
        per_round = []
        while not per_round or time.perf_counter() - start < seconds:
            out = self.work / f"traced{len(per_round)}"
            children = self.run_round(out, False, traced=True)
            overhead = (sum(c.seconds for c in children.values())
                        / sum(base[k].seconds for k in children))
            span_list = []
            for dump in sorted((out / "spans").glob("*.json")):
                span_list += spans.from_json(json.loads(dump.read_text()), len(span_list))
            self.check_repeat(out)
            per_round.append(layer_metrics(spans.aggregate(span_list), self.eval_set, overhead))
        metrics = {k: statistics.median([m[k] for m in per_round]) for k in per_round[0]}
        return metrics, len(per_round)


def layer_metrics(agg: dict, eval_set, overhead: float) -> dict[str, float]:
    """The per-layer metrics of ``workloads.LAYERS`` from aggregated spans."""

    def get(span, key="s"):
        return float(agg.get(span, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    mb = 1024.0 * 1024.0
    pairs = eval_set.pairs
    wavs = eval_set.distinct_wavs()
    values = {
        "cli.tokenize.self_s": get("cli.tokenize", "self_s"),
        "cli.evaluate.self_s": get("cli.evaluate", "self_s"),
        "notes.segment.us_per_window":
            1e6 * ratio(get("notes.segment"), get("notes.segment", "windows")),
        "prompts.render_prompt.calls": get("prompts.render_prompt", "calls"),
        "curriculum.build_manifest.self_s": get("curriculum.build_manifest", "self_s"),
        "synth.render.ns_per_sample":
            1e9 * ratio(get("synth.render"), get("synth.render", "samples")),
        "audio_io.read_wav.per_pair": ratio(get("audio_io.read_wav", "calls"), pairs),
        "audio_io.read_wav.useful_ratio":
            ratio(eval_set.useful_reads(), get("audio_io.read_wav", "calls")),
        "metrics.chroma_similarity.self_s": get("metrics.chroma_similarity", "self_s"),
        "metrics.dtw_from_costs.ns_per_cell":
            1e9 * ratio(get("metrics.dtw_from_costs"), get("metrics.dtw_from_costs", "cells")),
        "metrics.tempo_estimate.per_pair": ratio(get("metrics.tempo_estimate", "calls"), pairs),
        "metrics.tempo_estimate.calls_per_wav":
            ratio(get("metrics.tempo_estimate", "calls"), wavs),
        "trace.overhead": overhead,
    }
    ordered = {}
    for layer in workloads.LAYERS:
        span, _, quantity = layer.name.rpartition(".")
        if layer.name in values:
            ordered[layer.name] = values[layer.name]
        elif quantity == "peak_mb":
            ordered[layer.name] = get(span, "peak_bytes") / mb
        else:
            ordered[layer.name] = get(span, quantity)
    return ordered


def environment(seed: int, workload: str, rounds: int, trace: bool, probes) -> dict:
    import scipy

    from encore import _kernels

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": "numba" if getattr(_kernels, "NUMBA_ENABLED", False) else "numpy",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "trace": trace,
        "probe_median_s": statistics.median(probes),
        "probe_reference_s": PROBE_REFERENCE_S,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    env = {k: v for k, v in os.environ.items() if k != "ENCORE_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    try:
        with Spawner(env, str(ROOT)) as spawner:
            bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work, spawner)
            bench.build()
            run = bench.traced if args.trace else bench.untraced
            metrics, rounds = run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    units = {m.name: m.unit for m in (*workloads.END_TO_END, *workloads.LAYERS)}
    notes = {m.name: m.why for m in workloads.END_TO_END}
    notes.update({m.name: f"moves {m.moves}" for m in workloads.LAYERS})
    checks_ = bench.checks
    failed = min(len(checks_.failures), checks_.attempted)
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - failed / max(checks_.attempted, 1)
    for failure in checks_.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{args.workload:<6} {name:<38} {value:>14.6g} {units[name]:<10} {notes[name]}")
    print(json.dumps({"environment": environment(
        args.seed, args.workload, rounds, bool(args.trace), bench.probes)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks_.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # the checkout's own sources, never an installed copy; without them
    # (a directory holding only the benchmark) the imports fail and it exits 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np

        import encore.cli  # noqa: F401  (compiles its bytecode before setup_s is timed)
        from encore.audio_io import ANALYSIS_RATE

        import checks
        import corpus
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: {exc}; run from the root of an encore source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
