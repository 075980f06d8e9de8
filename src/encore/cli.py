"""Command-line front end.

Each option is set one way, by its flag; its default is declared with it.
Commands that draw random numbers take one --seed; items derive their
own streams from it plus their identity, so adding files to a run never
changes what an existing file gets. Inputs whose outputs would share a
name are refused. The batch commands (tokenize, augment, manifest,
evaluate, synth) run on one runner: a bad item becomes a failed row, not
an aborted run, and --workers N (default 1) never changes the outputs.
manifest renders prompts with a fixed 50% field dropout and synth renders
at gain 0.5. Each run writes a run_record.json next to its outputs.
Reports go to stdout and log lines to stderr, both in UTF-8; a reader
that closes stdout early loses only the rest of the report. Exit codes:
0 success, 1 any per-item failure under --strict, 2 configuration error.

--workers N is the one level of parallelism: before any command loads numpy,
main caps the native BLAS and OpenMP pools at one thread unless the caller set
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS or loaded numpy
first. Workers take the largest items first. No output depends on N or on
the CPU count.

Each command imports only what it runs. The symbolic commands (--version,
tokenize, augment, prompt, manifest, schedule-preview) load no numpy: they
draw from seeds.Rng. Only evaluate and synth load numpy and the audio
modules (audio_io, metrics, synth), and only evaluate on a WAV not at
44.1 kHz loads scipy. Only prompt loads prompts, only manifest and
schedule-preview load curriculum (and prompts through it), only evaluate
loads csv, only a batch run of more than one worker and item loads
concurrent.futures, and only a command that writes JSON loads json.
logging loads once the arguments parse, so --version, --help and a usage
error never load it. parse_midi, write_midi, segment, encode, corrupt and
sample_speed_augmentation stay bound here at import: the benchmark's
tracer (pipebench/spans.py) wraps them where this module binds them.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .atomic import atomic_write
from .augment import (SPEED_TIERS, TIER_BY_NAME, MistakeConfig, corrupt, draw_tier,
                      sample_speed_augmentation)
from .notes import segment
from .seeds import derive_seed
from .smf import parse_midi, write_midi
from .tokenizer import encode

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2

METRICS = ("chroma", "tempo", "frechet")

class ConfigError(Exception):
    pass


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_run_record(out_dir: Path, args, failed: list[str | None]) -> None:
    """failed holds, per item, None or the class name of the error it failed with.
    versions names numpy and scipy only if the run loaded them."""
    record = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "counts": {"ok": failed.count(None), "failed": Counter(filter(None, failed))},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "versions": {
            "encore": __version__,
            "python": sys.version.split()[0],
            **{name: module.__version__ for name in ("numpy", "scipy")
               if (module := sys.modules.get(name)) is not None},  # None: import blocked
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    atomic_write(out_dir / "run_record.json", _json_text(record))


def _json_lines(rows):
    import json

    return map(json.dumps, rows)


def _print_lines(lines) -> None:
    """Print lines to stdout as they come. A reader that closes stdout
    loses the rest of them, not the run: stdout then goes to the null
    device, so the command still writes its outputs and exits as it would
    have, and the flush at exit meets no closed pipe."""
    try:
        for line in lines:
            print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _failed_lines(rows, key="file") -> list[str]:
    return [f"FAILED {row[key]}: {row['error']}" for row in rows if row["status"] != "ok"]


def _index(path: Path, text=_json_text):
    """The write hook of a batch command whose output is one index file."""
    return lambda rows: atomic_write(path, text(rows))


def _bytes(path) -> int:
    """path's size in bytes, or 0 when it cannot be stat'ed."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return 0


def _run_batch(args, items, work, out: Path, write, *, key="file", report=_json_lines,
               size=lambda item: 0) -> int:
    """Run work over (name, item) pairs into one row each, in input order.

    A row is {key: name, "status": "ok", **work(item)}, or an error row if
    work raises OSError, ValueError (MetricError included) or MemoryError (an
    item too large for this machine fails alone). Prints report(rows),
    passes the rows to write, which stores the command's outputs, writes
    the run record into out, and returns the --strict exit code.  The run
    record alone counts the failures by error class.  Workers take the items
    largest first by size(item), ties in input order.
    """

    import logging

    log = logging.getLogger("encore.cli")  # not __name__: that is __main__ under python -m

    def one(named) -> tuple[dict, str | None]:
        name, item = named
        try:
            return {key: name, "status": "ok", **work(item)}, None
        except (OSError, ValueError, MemoryError) as exc:
            error = str(exc) or type(exc).__name__
            log.error("%s: %s", name, error)
            return {key: name, "status": "error", "error": error}, type(exc).__name__

    if args.workers == 1 or len(items) <= 1:
        done = [one(item) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor

        order = sorted(range(len(items)), key=lambda i: -size(items[i][1]))
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            started = {i: pool.submit(one, items[i]) for i in order}
        done = [started[i].result() for i in range(len(items))]
    rows = [row for row, _ in done]
    _print_lines(report(rows))
    write(rows)
    failed = [kind for _, kind in done]
    _write_run_record(out, args, failed)
    return EXIT_FAILURES if any(failed) and args.strict else EXIT_OK


def _inputs(args) -> list[tuple[str, Path]]:
    """(name, path) per input; outputs are named by stem, so stems must differ."""
    by_stem: dict[str, Path] = {}
    for path in map(Path, args.inputs):
        if by_stem.setdefault(path.stem, path) is not path:
            raise ConfigError(f"inputs {by_stem[path.stem]} and {path} would write the"
                              f" same outputs (stem {path.stem!r})")
    return [(str(path), path) for path in by_stem.values()]


def _out_dir(path) -> Path:
    """path as a directory, made if missing, or ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# tokenize


def cmd_tokenize(args) -> int:
    items = _inputs(args)
    out = _out_dir(args.out)

    def work(path: Path) -> dict:
        seq = parse_midi(path.read_bytes(), source_id=path.name)
        windows = segment(seq)
        counts = []
        for k, window in enumerate(windows):
            stream = encode(window)
            (out / f"{path.stem}_w{k:04d}.tok").write_bytes(stream.to_bytes())
            counts.append(len(stream.tokens))
        return {
            "windows": len(windows),
            "tokens_min": min(counts, default=0),
            "tokens_mean": round(sum(counts) / len(counts), 1) if counts else 0.0,
            "tokens_max": max(counts, default=0),
        }

    return _run_batch(args, items, work, out, _index(out / "index.json"))


# ---------------------------------------------------------------------------
# augment


def cmd_augment(args) -> int:
    if args.tier is not None and args.mode != "speed":
        raise ConfigError("--tier fixes a speed tier; it needs --mode speed")
    items = _inputs(args)
    out = _out_dir(args.out)

    def work(path: Path) -> dict:
        seq = parse_midi(path.read_bytes(), source_id=path.name)
        item_seed = derive_seed(args.seed, "augment", path.name)
        if args.mode == "speed":
            tier = TIER_BY_NAME[args.tier] if args.tier is not None else draw_tier(item_seed)
            augmented, ratio, keyword = sample_speed_augmentation(
                seq, tier, derive_seed(args.seed, "speed", path.name)
            )
            detail = {"tier": tier.name, "ratio": ratio, "keyword": keyword}
        else:
            augmented, report = corrupt(seq, MistakeConfig(seed=item_seed))
            detail = asdict(report)
        (out / f"{path.stem}_{args.mode}.mid").write_bytes(write_midi(augmented))
        return detail

    return _run_batch(args, items, work, out, _index(out / "report.json"))


# ---------------------------------------------------------------------------
# prompt


def cmd_prompt(args) -> int:
    from .prompts import PromptSpec, render_prompt

    try:
        spec = PromptSpec(
            sonification=args.sonification,
            stage=args.stage,
            speed_keyword=args.speed_keyword,
            title=args.title,
            composer=args.composer,
            instrumentation=args.instrumentation,
            mistake=True if args.mistake else None,
            performer=args.performer,
            expression_label=args.expression,
        )
        text = render_prompt(spec, dropout=args.dropout, rng_seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _print_lines([text])
    return EXIT_OK


# ---------------------------------------------------------------------------
# manifest


def cmd_manifest(args) -> int:
    from .curriculum import build_manifest, load_registry, window_records, write_manifest

    stage = None if args.stage == "merged" else int(args.stage)
    try:
        entries = [e for e in load_registry(args.registry) if stage in (None, e.stage)]
        items = [(f"{e.name}/{p.midi}", (e, p)) for e in entries for p in e.pairs]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"registry: {exc}") from exc
    if not entries:
        raise ConfigError(f"registry has no datasets for stage {stage}")
    out = _out_dir(args.out)
    path = out / ("merged.jsonl" if stage is None else f"stage{stage}.jsonl")

    def work(item) -> dict:
        return {"records": window_records(*item, args.seed, out)}

    def write(rows: list[dict]) -> None:
        pools = {entry: [] for entry in entries}
        for (_, (entry, _)), row in zip(items, rows):
            pools[entry] += row.get("records", ())
        try:
            manifest = build_manifest(stage, args.seed, pools)
        except ValueError as exc:  # no usable windows, or a weight above its pool cap
            raise ConfigError(f"{args.registry}: {exc}") from exc
        failed = {row["file"]: row["error"] for row in rows if row["status"] != "ok"}
        write_manifest(manifest, path, failed)
        _print_lines([f"{path}: {len(manifest.records)} records, budget {manifest.step_budget}"])

    return _run_batch(args, items, work, out, write, report=_failed_lines)


def cmd_schedule_preview(args) -> int:
    from .curriculum import read_manifest, schedule

    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    try:
        manifests = [read_manifest(p) for p in args.manifests]
        shown = itertools.islice(schedule(manifests, seed=args.seed), args.steps)
        _print_lines(f"step {step:>6}  stage {record.stage}  {record.window_ref}"
                     for step, record in shown)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _print_lines([f"total steps: {sum(m.step_budget for m in manifests)}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _number(row: dict, column: str, default):
    """row's column as a float, or default when it is empty or absent."""
    text = row.get(column)
    try:
        return float(text) if text else default
    except ValueError:
        raise ValueError(f"{column} {text!r} is not a number") from None


def _evaluate_pair(row: dict, names: list[str], base: Path) -> list[dict]:
    """One result row per metric in names for one pair."""
    from . import audio_io, metrics  # loaded by the first pair; then a lookup, no lock

    pair_id = row["pair_id"]
    for column in ("output", "reference"):
        if not row[column]:
            raise ValueError(f"no {column} path")
    out_path = base / row["output"]
    ref_path = base / row["reference"]
    wav = functools.cache(audio_io.WavReader)  # check each WAV once; metrics stream its samples
    tempo = functools.cache(lambda path: metrics.tempo_estimate(wav(path)))
    values = {}
    if "chroma" in names:
        values["chroma"] = metrics.chroma_similarity(wav(out_path), wav(ref_path)).score
    if "tempo" in names:
        ratio = _number(row, "ratio", 1.0)
        estimated = tempo(out_path)
        score_tempo = _number(row, "score_bpm", None)
        if score_tempo is None:  # the reference audio stands in for the score
            score_tempo = tempo(ref_path)
        values["tempo"] = metrics.deviation_from_expected(estimated, score_tempo, ratio)
    if "frechet" in names:
        values["frechet"] = metrics.frechet_distance(
            metrics.read_embeddings(out_path), metrics.read_embeddings(ref_path)
        )
    return [{"pair_id": pair_id, "metric": m, "value": v} for m, v in values.items()]


def _results_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["pair_id", "metric", "value"])
    writer.writeheader()
    for row in rows:
        writer.writerows(row.get("results", ()))
    return buf.getvalue()


def cmd_evaluate(args) -> int:
    import csv

    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not names:
        raise ConfigError("no metrics selected")
    unknown = set(names) - set(METRICS)
    if unknown:
        raise ConfigError(f"unknown metrics {sorted(unknown)}")
    pairs_path = Path(args.pairs)
    try:
        with open(pairs_path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            pair_rows = list(reader)
            columns = reader.fieldnames or ()  # None for an empty file; read while it is open
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"{pairs_path}: {exc}") from exc
    missing = [c for c in ("pair_id", "output", "reference") if c not in columns]
    if missing:
        raise ConfigError(f"{pairs_path}: missing column {', '.join(missing)}")
    if not pair_rows:
        raise ConfigError(f"{pairs_path}: no pairs")
    by_id: dict[str, dict] = {}
    for row in pair_rows:  # results rows are told apart by pair_id alone
        if by_id.setdefault(row["pair_id"], row) is not row:
            raise ConfigError(f"{pairs_path}: pair_id {row['pair_id']!r} appears twice")
    out_path = Path(args.out)
    if out_path.is_dir():
        raise ConfigError(f"--out {out_path} is a directory")
    _out_dir(out_path.parent)

    def report(rows: list[dict]) -> list[str]:
        written = sum(len(r.get("results", ())) for r in rows)
        return [*_failed_lines(rows, "pair_id"), f"{out_path}: {written} rows"]

    return _run_batch(
        args,
        list(by_id.items()),
        lambda row: {"results": _evaluate_pair(row, names, pairs_path.parent)},
        out_path.parent,
        _index(out_path, _results_csv),
        key="pair_id",
        report=report,
        size=lambda row: sum(_bytes(pairs_path.parent / row[c])
                             for c in ("output", "reference") if row[c]),
    )


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    from . import synth

    if (args.clicks is None) == (not args.inputs):
        raise ConfigError("need MIDI inputs or --clicks, not both")
    if args.clicks is None:
        if args.duration is not None:
            raise ConfigError("--duration sets a click track's length; it needs --clicks")
    else:
        if args.duration is None:
            args.duration = 10.0  # so the run record shows the length rendered
        try:
            clicks = synth.click_chunks(args.clicks, args.duration)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    items = _inputs(args)
    out = _out_dir(args.out)
    if args.clicks is not None:  # the click track is the run's one item
        wav = out / f"clicks_{args.clicks:g}bpm.wav"
        items = [(str(wav), wav)]

    def work(path: Path) -> dict:
        if args.clicks is not None:
            return {"samples": synth.write_rendering(path, clicks)}
        chunks = synth.note_chunks(parse_midi(path.read_bytes(), source_id=path.name))
        return {"samples": synth.write_rendering(out / f"{path.stem}.wav", chunks)}

    return _run_batch(args, items, work, out, _index(out / "index.json"), size=_bytes)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, func, *, seed=True, out=None, batch=False):
    """The command's handler and shared options; out is the default output path."""
    sub.set_defaults(func=func)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if out:
        sub.add_argument("--out", default=out, help="output directory")
    if batch:
        sub.add_argument("--strict", action="store_true")
        sub.add_argument("--workers", type=int, default=1, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="encore")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tokenize", help="cut MIDI files into 10 s windows and tokenize them")
    p.add_argument("inputs", nargs="+")
    _add_common(p, cmd_tokenize, seed=False, out="tokens", batch=True)

    p = subs.add_parser("augment", help="speed or mistake augmentation")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", choices=["speed", "mistakes"], required=True)
    p.add_argument("--tier", choices=[t.name for t in SPEED_TIERS], default=None,
                   help="fixed speed tier name")
    _add_common(p, cmd_augment, out="augmented", batch=True)

    p = subs.add_parser("prompt", help="render one prompt")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--sonification", choices=["synthesis", "performance"], default="synthesis")
    for text in ("speed-keyword", "title", "composer", "instrumentation", "performer",
                 "expression"):
        p.add_argument(f"--{text}")
    p.add_argument("--mistake", action="store_true")
    p.add_argument("--dropout", type=float, default=0.5)
    _add_common(p, cmd_prompt)

    p = subs.add_parser("manifest", help="build a stage manifest from a registry")
    p.add_argument("--registry", required=True)
    p.add_argument("--stage", choices=["0", "1", "2", "3", "4", "merged"], required=True,
                   help="0..4 or 'merged'")
    _add_common(p, cmd_manifest, out="manifest", batch=True)

    p = subs.add_parser("schedule-preview", help="show the first steps of a schedule")
    p.add_argument("manifests", nargs="+", help="manifest .jsonl files, stage order")
    p.add_argument("--steps", type=int, default=10)
    _add_common(p, cmd_schedule_preview)

    p = subs.add_parser("evaluate", help="batch metrics over file pairs")
    p.add_argument("--pairs", required=True, help="CSV: pair_id,output,reference[,ratio,score_bpm]")
    p.add_argument("--metrics", default="chroma,tempo", help="comma list: " + ",".join(METRICS))
    _add_common(p, cmd_evaluate, seed=False, batch=True)
    p.add_argument("--out", default="results.csv", help="output CSV path")

    p = subs.add_parser("synth", help="render MIDI (or a click track) to WAV")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--clicks", type=float, default=None, help="render a click track at BPM")
    p.add_argument("--duration", type=float, default=None,
                   help="click track length in seconds (default 10)")
    _add_common(p, cmd_synth, seed=False, out="audio", batch=True)

    return parser


def main(argv=None) -> int:
    # read when numpy loads its BLAS: one thread each, so --workers owns the CPUs
    pools = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if "numpy" not in sys.modules and not any(v in os.environ for v in pools):
        os.environ.update(dict.fromkeys(pools, "1"))
    if sys.stdout is not None:  # None when started with stdout closed
        # UTF-8 like every text file written; surrogateescape gives back the
        # bytes of an argument that the locale could not decode
        sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    if sys.stderr is not None:  # log lines in UTF-8 too, with stderr's usual errors
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    import logging

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
