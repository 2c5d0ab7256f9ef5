"""Command-line pipeline: score -> classify -> report.

Subcommands: evaluate (full calibration report), score (per-record JSONL),
sweep (threshold operating points), synth (generate a synthetic dump).
Exit codes: 0 success, 1 usage error, 2 data error, 3 adapter error.

evaluate, score and sweep share one scoring loop (_score) that streams the
dump: the adapter is launched, the gold file, if any, is read into a
compact index (one str per question id: selqa.io.pack_gold, each distinct
raw answer normalized once), and then the dump lines are parsed and
checked, a batch of parsed lines accepted at a time with the records and
errors of one line at a time, and each record goes through one scoring
step and is joined in turn; the join marks the entries it matches rather
than keeping a set of every id. The step reads the dump a window of
_WINDOW records ahead. It plans each record as it is read: the record's
trigger decision, its normalized greedy text, and its scores or the
answers and weights avg-similarity needs (scoring.plan_scores). The
similarity's prefetch draws each record's pairs as it is planned; only an
adapter sends them, to its scorer at once, and reads the window's replies
as one exchange. The window's records are then scored in file order
(scoring.finish_scores, with the method names resolved once for the run);
the loop decides the verdict, with any classifier, once the join has
passed the record. Under --methods likelihood alone the loader builds no
samples, as no method reads them.
The process holds the gold index, one batch of parsed lines, one window of
planned records and the scored records as columns (selqa._columns: ids,
flag bytes and a float array per method), never the whole dump and no
object per scored record or gold entry; the report, curves and sweep read
one ranking per method of those columns (metrics.rank_methods), and each
curve and the score JSONL are written line by line into one buffer, which
goes to stdout as its bytes. score without --gold joins nothing,
so ids may repeat. A record the loader accepts but a scoring
method cannot score (no greedy logprobs, no samples, sample probabilities
summing above 1) is a data error naming the file, the line and the
question id; an adapter failure while a record is scored, or a repeated
id, names them too.

Errors are reported in that order. A gold error comes first. After it, the
first failing dump line wins, whether it fails to parse, repeats an id,
cannot be scored (exit 2) or breaks the adapter (exit 3), so lines before
it have already been scored, adapter requests included. The step keeps a
record's scoring error for the loop to raise once the join has passed the
record, so a line that repeats an id is scored before it is rejected (its
verdict is never decided), and the duplicate is reported even when the
line cannot be scored. On an adapter run, later lines of the failing
line's window may already have had their pairs sent. A reply surplus
names the window's lines, and bytes the scorer writes after the run's last
reply fail the run when the scorer is closed, before any output. The join
summary is printed once the last line is read.

Outputs are written only after the last line is read, all or none (each
staged under its own name in a temp directory beside its target, through
any symlink, then all renamed; a FIFO or device target is written after
the renames, as stdout is), and are byte-identical across runs.

With more than one CPU, a dump that is a regular file of at least two
shards' minimum bytes is cut at line starts, and one forked worker per
shard (selqa._shards) runs the loop's scoring step before the gold file is
read, so the process reads the gold file while the workers score. Each
worker gets the gold ids once the index is built, and from then on skips
the records the gold lacks. The ids and the items travel in one framing,
each message one marshal dump behind its length, the items as plain
tuples 64 to a frame. The items join the loop in file order, so
the gold error, the join summary, the first error, the outputs and the
exit code are those of a serial run. A run stays serial, and reads the
gold file first, with an adapter, on a pipe or FIFO, on a small dump and
while another thread runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
import tempfile
import threading
from itertools import chain
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from . import io as selqa_io
from . import metrics, scoring
from ._columns import Columns, Scored
from .correctness import CorrectnessClassifier
from .errors import AdapterError, DataError, UsageError
from .similarity import BleuSimilarity, SimilarityFn, proper_answers
from .records import PredictionRecord, check_scored
from .textnorm import normalize_answer

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_ADAPTER = 3

_CLASSIFIER_CHOICES = ("em", "bleu-threshold", "adapter-threshold")
#: Fewest dump bytes worth a shard: a smaller dump, or one below two of
#: these, is scored serially, as forking would cost more than it saves.
_SHARD_MIN_BYTES = 1 << 18
#: Dump records the scoring step reads ahead: an adapter sends their pairs
#: to the scorer as each is read, and reads their replies as one exchange.
_WINDOW = 64

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="full calibration report from a dump + gold")
    _add_input_flags(evaluate, gold_required=True)
    _add_scoring_flags(evaluate)
    _add_classifier_flags(evaluate)
    evaluate.add_argument("--acc-targets", default="60,70,80",
                          help="comma-separated accuracy targets in (0, 100]")
    evaluate.add_argument("--bins", type=int, default=10, help="calibration-error bins")
    evaluate.add_argument("--format", choices=("markdown", "json", "csv"),
                          default="markdown")
    evaluate.add_argument("--out", help="report path (default: stdout)")
    evaluate.add_argument("--curves-out",
                          help="directory for per-method risk-coverage CSVs")
    evaluate.set_defaults(func=cmd_evaluate)

    score = sub.add_parser("score", help="per-record scores as JSONL")
    _add_input_flags(score, gold_required=False)
    _add_scoring_flags(score)
    _add_classifier_flags(score)
    score.add_argument("--out", help="output path (default: stdout)")
    score.set_defaults(func=cmd_score)

    sweep = sub.add_parser("sweep", help="threshold sweep: tau, coverage, accuracy")
    _add_input_flags(sweep, gold_required=True)
    _add_scoring_flags(sweep)
    _add_classifier_flags(sweep)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    synth_cmd = sub.add_parser("synth", help="generate a synthetic dump with known calibration")
    synth_cmd.add_argument("--out", required=True,
                           help="output directory (predictions.jsonl + gold.json)")
    synth_cmd.add_argument("--n", type=int, required=True, help="number of questions")
    synth_cmd.add_argument("--seed", type=int, default=0)
    synth_cmd.add_argument("--miscalibration", type=float, default=0.0,
                           help="shift between confidence and correctness rate, in [-1, 1]")
    synth_cmd.add_argument("--cluster-rate", type=float, default=0.0,
                           help="fraction of records whose agreeing samples are paraphrases")
    synth_cmd.add_argument("--abstain-rate", type=float, default=0.0)
    synth_cmd.add_argument("--samples-per-q", type=int, default=10)
    synth_cmd.set_defaults(func=cmd_synth)

    return parser


def _add_input_flags(parser: argparse.ArgumentParser, gold_required: bool) -> None:
    parser.add_argument("--predictions", required=True, help="prediction dump (JSONL)")
    parser.add_argument("--gold", required=gold_required, help="gold annotations (JSON)")


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--methods", default=",".join(scoring.BUILTIN_METHODS),
                        help="comma-separated scoring methods")
    parser.add_argument("--sim-mode", choices=("word", "char"), default="word",
                        help="token granularity for the built-in similarity")
    parser.add_argument("--adapter-cmd",
                        help="launch command for an external similarity adapter")
    parser.add_argument("--adapter-name", default="adapter",
                        help="name for the external similarity (labels avg-<name>)")


def _add_classifier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classifier", choices=_CLASSIFIER_CHOICES, default="em")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="similarity threshold for non-em classifiers")


def _parse_methods(args: argparse.Namespace) -> list[str]:
    # avg-<name> is a cell of the csv and markdown tables.
    if any(ch in ',"|' or not ch.isprintable() for ch in args.adapter_name):
        raise UsageError(f"--adapter-name {args.adapter_name!r}: a name may not hold "
                         "',', '\"', '|' or a non-printable character")
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    sim_name = args.adapter_name if args.adapter_cmd else "bleu"
    # Validates names before any file is opened.
    try:
        return scoring.resolve_method_names(requested, sim_name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_targets(raw: str) -> list[float]:
    try:
        targets = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --acc-targets: {raw!r}") from exc
    if not targets or any(not 0.0 < t <= 100.0 for t in targets):
        raise UsageError("--acc-targets values must lie in (0, 100]")
    # A repeat collapses into one column; distinct targets need distinct labels.
    labels: dict[str, float] = {}
    for t in targets:
        label = selqa_io.target_label(t)
        if labels.setdefault(label, t) != t:
            raise UsageError(f"--acc-targets {labels[label]!r} and {t!r} share the label "
                             f"{label!r}")
    return targets


def _build_similarity(args: argparse.Namespace) -> SimilarityFn:
    if args.adapter_cmd is not None:
        from .adapter import ExternalSimilarity

        try:
            return ExternalSimilarity(args.adapter_cmd, name=args.adapter_name)
        except ValueError as exc:
            raise UsageError(f"--adapter-cmd {args.adapter_cmd!r}: {exc}") from exc
    return BleuSimilarity(mode=args.sim_mode)


def _check_classifier_flags(args: argparse.Namespace) -> None:
    """Refuse bad classifier flags, with or without --gold, before any file is read."""
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError("--threshold must lie in [0, 1]")
    if args.classifier == "adapter-threshold" and args.adapter_cmd is None:
        raise UsageError("--classifier adapter-threshold requires --adapter-cmd")


def _build_classifier(args: argparse.Namespace, fn: SimilarityFn) -> CorrectnessClassifier:
    if args.classifier == "em":
        return CorrectnessClassifier.exact_match()
    if args.classifier == "bleu-threshold":
        return CorrectnessClassifier.bleu_threshold(args.threshold, mode=args.sim_mode)
    return CorrectnessClassifier.adapter_threshold(fn, args.threshold)


def _locate(
    predictions_path: str, item: Scored, exc: ValueError | AdapterError
) -> DataError | AdapterError:
    """exc as the item's located error: an adapter error, or else a data error."""
    kind = AdapterError if isinstance(exc, AdapterError) else DataError
    return kind(f"{predictions_path}: line {item.line}: question_id {item.question_id!r}: {exc}")


def _lines(window: Sequence[tuple]) -> str:
    """The span of dump lines a window's items came from."""
    return f"lines {window[0][1]}-{window[-1][1]}"


def _write_outputs(
    outputs: Sequence[tuple[bytes | bytearray, str | None]], new_dir: str | None = None
) -> None:
    """Write every output, or none: each staged under its own name, then all renamed.

    A symlinked path is followed to its target. Each file is staged under
    its target's name in a temp directory beside the target, so a name the
    file system cannot take fails before anything is renamed, as does a
    target that is a directory. new_dir, if given, is made first, with its
    parents; if a write fails, the directories this run made are removed
    again. An error names the requested path, never a temp one, and leaves
    nothing behind. Once the files are in place, an output without a path
    goes to stdout, and one whose target is neither a file nor a directory
    (a FIFO or a device) is written to it, in order.
    """
    made: list[str] = []
    stages: dict[str, str] = {}  # target directory -> its temp directory
    staged: list[tuple[str, str, str]] = []  # (temp file, target, requested path)
    streams: set[str] = set()  # the requested paths written as stdout is
    try:
        if new_dir is not None:
            made = _missing_dirs(new_dir)
            Path(new_dir).mkdir(parents=True, exist_ok=True)
        for data, out in outputs:
            if out is None:
                continue
            target = os.path.realpath(out)
            if _is_stream(target):
                streams.add(out)
                continue
            directory, name = os.path.split(target)
            try:
                if directory not in stages:
                    stages[directory] = tempfile.mkdtemp(prefix=".selqa-", dir=directory)
                tmp = os.path.join(stages[directory], name)
                with open(tmp, "xb") as f:
                    staged.append((tmp, target, out))
                    f.write(data)
            except OSError as exc:
                raise _naming(exc, out) from exc
        # Refused as its rename would refuse it, but before any rename.
        for _, target, out in reversed(staged):
            if os.path.isdir(target):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        while staged:
            tmp, target, out = staged[-1]
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise _naming(exc, out) from exc
            staged.pop()
        made = []
    finally:
        for tmp, _, _ in staged:
            os.unlink(tmp)
        for stage in stages.values():
            os.rmdir(stage)
        for directory in made:
            with contextlib.suppress(OSError):  # not made, or no longer empty
                os.rmdir(directory)
    for data, out in outputs:
        if out is None:
            # the bytes as they are, whatever the encoding of the text stream
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
        elif out in streams:
            try:
                with open(out, "wb") as f:
                    f.write(data)
            except OSError as exc:
                raise _naming(exc, out) from exc


def _is_stream(path: str) -> bool:
    """Whether path names a node that is neither a regular file nor a directory."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False  # missing, or staging reports it
    return not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


def _missing_dirs(path: str) -> list[str]:
    """path and each of its parents that does not exist yet, innermost first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _naming(exc: OSError, path: str) -> OSError:
    """exc's error, reported against path."""
    return OSError(exc.errno, exc.strerror, path)


def _score(
    args: argparse.Namespace, methods: Sequence[str]
) -> tuple[Columns, CorrectnessClassifier | None, str]:
    """Score each dump record as the dump is read, joined to the gold index if any.

    Returns the scored records as a column table, the classifier (None
    without --gold, when no record is correct and ids may repeat) and the
    similarity's name. Every record goes through one scoring step (windows),
    which makes ScoredPrediction's check on its scores without building one,
    and the loop decides each verdict once the join has passed the record. When
    _shard_cuts cuts the dump, one forked worker per shard (selqa._shards)
    runs that step while this process reads the gold file, and their items
    join the loop in file order; a serial run reads the gold file first.
    """
    _check_classifier_flags(args)
    # likelihood reads only the greedy answer; every other method reads the samples
    samples = any(method != "likelihood" for method in methods)
    with _build_similarity(args) as fn:
        classifier = _build_classifier(args, fn) if args.gold else None

        def windows(
            records: Iterable[PredictionRecord], gold: Container[str] | None
        ) -> Iterator[Scored]:
            """The scoring step: records to their items, one window of records at a time.

            Each record is planned as it is read (scoring.plan_scores), and
            its avg-similarity pairs, then its adapter-threshold verdict row,
            are drawn at once by fn.prefetch, which an adapter sends to its
            scorer. Once _WINDOW records are read, an adapter tables the
            window's replies, and the window's items are scored in file
            order, so a record's error still names it. A record whose id
            gold lacks is passed on unscored. A dump line that cannot be
            read ends its window, and its error is raised after the window's
            records and after the window's reply surplus, if any, which
            names the window's lines.
            """
            records = iter(records)
            failure: list[DataError | OSError] = []  # the error reading the dump raised
            # Verdict rows read gold entries. A shard worker's gold holds ids
            # only, but only an adapter run, never sharded, plans verdicts.
            verdicts = classifier is not None and classifier.similarity is fn

            def requests(window: list, record: PredictionRecord) -> Iterator[list]:
                """Plan record and the ones after it into window; yield each one's matrices."""
                ids: set[str] = set()  # the window's ids the gold holds
                while True:
                    qid, matrices = record.question_id, []
                    if gold is None or qid in gold:
                        triggered = scoring.trigger_decision(record.greedy)
                        parts, error = scoring.plan_scores(record, methods)
                        for part in parts:
                            if type(part) is tuple:  # the avg method's answers and weights
                                keys = proper_answers(part[0])
                                matrices.append((keys, keys))
                        # what the verdict reads, once the join has passed the record
                        text = (normalize_answer(record.greedy.text)
                                if triggered and classifier else None)
                        # the verdict row of a record the join will pass
                        if (verdicts and text is not None and error is None and qid not in ids
                                and not selqa_io.gold_joined(gold[qid])):
                            golds = selqa_io.gold_answers(gold[qid])
                            matrices.append((proper_answers([text]), proper_answers(golds)))
                        ids.add(qid)
                        window.append((qid, record.line, triggered, text, parts, error))
                    else:
                        window.append(Scored(qid, record.line, None, None))
                    yield matrices
                    if len(window) == _WINDOW:
                        return
                    try:
                        record = next(records)
                    except StopIteration:
                        return
                    except (DataError, OSError) as exc:
                        failure.append(exc)
                        return

            def decided(
                qid: str, line: int, triggered: bool, text: str | None,
                parts: list, error: ValueError | None,
            ) -> Scored:
                """A planned record's item: its similarity calls, its plan's error, then checks."""
                item = Scored(qid, line, None, None)
                try:
                    scores = scoring.finish_scores(parts, fn)
                    if error is not None:
                        raise error
                    check_scored(zip(methods, scores))
                except (ValueError, AdapterError) as exc:
                    return item._replace(error=_locate(args.predictions, item, exc))
                return item._replace(result=(triggered, text, scores))

            for record in records:
                window: list = []
                try:
                    surplus = fn.prefetch(requests(window, record))
                except AdapterError as exc:
                    raise AdapterError(f"{args.predictions}: {_lines(window)}: {exc}") from exc
                for planned in window:
                    yield planned if type(planned) is Scored else decided(*planned)
                if surplus is not None:
                    raise AdapterError(f"{args.predictions}: {_lines(window)}: {surplus}")
                if failure:
                    raise failure[0]

        cuts = _shard_cuts(args)
        workers = []
        if cuts is not None:
            from . import _shards

            workers = _shards.fork_workers(args.predictions, cuts, windows, samples)
        records = None
        summary = selqa_io.JoinSummary()
        try:
            # a gold error comes first, also while the workers score
            gold = selqa_io.load_gold_index(args.gold) if args.gold else None
            if workers:
                _shards.send_ids(workers, gold)
                items = chain.from_iterable(workers)
            else:
                records = selqa_io.iter_predictions(args.predictions, samples=samples)
                items = windows(records, gold)
            if gold is not None:
                items = selqa_io.join_stream(items, gold, summary, args.predictions)
            table = Columns(methods)
            for item in items:
                if item.error is not None:
                    raise item.error
                triggered, text, scores = item.result
                correct = answerable = False
                if gold is not None:
                    # the entry the join has marked still holds its flag and answers
                    entry = gold[item.question_id]
                    answerable = selqa_io.gold_answerable(entry)
                    if triggered:
                        correct = _verdict(args, classifier, item, text, entry)
                table.append(item.question_id, (triggered, correct, answerable, scores))
        finally:
            if records is not None:
                records.close()
            for worker in workers:
                worker.stop()
        try:
            fn.close()  # a scorer's bytes past the last reply read fail the run
        except AdapterError as exc:
            raise AdapterError(f"{args.predictions}: {exc}") from exc
    if not summary.clean:
        print(f"join: {summary.describe()}", file=sys.stderr)
    if gold is not None and not table:
        raise DataError("no overlapping question ids between predictions and gold")
    return table, classifier, fn.name


def _verdict(
    args: argparse.Namespace, classifier: CorrectnessClassifier, item: Scored, text: str,
    entry: str,
) -> bool:
    """The classifier's verdict on a triggered record's normalized greedy text, located."""
    try:
        return classifier._verdict(text, entry)
    except (ValueError, AdapterError) as exc:
        raise _locate(args.predictions, item, exc) from exc


def _shard_cuts(args: argparse.Namespace) -> list[int] | None:
    """Where to cut the dump into shards: line starts from 0 to its size, or None.

    One shard per CPU this process may run on, each at least
    _SHARD_MIN_BYTES long, cut at the first line start at or after an equal
    split. None keeps the run serial: with an adapter (one scorer and one
    pair table are what lets no pair be sent twice), on a dump that is not
    a regular file, on one too small for two shards, while another thread
    runs (fork copies only the calling thread), or where fork is missing.
    """
    if (args.adapter_cmd is not None or threading.active_count() > 1
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")):
        return None
    try:
        info = os.stat(args.predictions)
    except OSError:
        return None  # the serial read reports it
    size = info.st_size
    n = min(len(os.sched_getaffinity(0)), size // _SHARD_MIN_BYTES)
    if not stat.S_ISREG(info.st_mode) or n < 2:
        return None
    cuts = [0]
    try:
        with open(args.predictions, "rb") as f:
            for k in range(1, n):
                # From the byte before the split, so a line starting there is not skipped.
                f.seek(max(size * k // n - 1, cuts[-1]))
                f.readline()
                if cuts[-1] < f.tell() < size:
                    cuts.append(f.tell())
    except OSError:
        return None  # the serial read reports it, after any gold error
    return cuts + [size] if len(cuts) > 1 else None


def cmd_evaluate(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    targets = _parse_targets(args.acc_targets)
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    table, classifier, sim_name = _score(args, methods)
    meta = {"classifier": classifier.name, "bins": str(args.bins), "similarity": sim_name}
    if classifier.name != "em":
        meta["threshold"] = repr(classifier.threshold)
    # One ranking per method serves both the report and its curves.
    rankings = metrics.rank_methods(table)
    report = metrics.report_from_rankings(table, rankings, targets, args.bins, meta)
    outputs: list[tuple[bytes, str | None]] = [
        (selqa_io.emit_report(report, args.format), args.out)
    ]
    if args.curves_out:
        curve_dir = Path(args.curves_out)
        for method, ranking in rankings.items():
            outputs.append((
                selqa_io.format_curve(metrics.curve_pairs(ranking)),
                str(curve_dir / f"{_safe_name(method)}.csv"),
            ))
    # Everything computed before anything is written: no partial artifacts.
    _write_outputs(outputs, args.curves_out)
    return 0


def _safe_name(method: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in method)


def cmd_score(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    table, classifier, _ = _score(args, methods)
    out = bytearray()  # each line is written into it, so the output is held once
    for question_id, triggered, correct, answerable, scores in table.records():
        # the keys of a ScoredPrediction, in its field order
        row = {"question_id": question_id, "triggered": triggered, "scores": scores}
        if classifier is not None:
            row["correct"] = {classifier.name: correct} if triggered else {}
            row["answerable"] = answerable
        out += json.dumps(row, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        out += b"\n"
    _write_outputs([(out, args.out)])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    table, _, _ = _score(args, methods)
    if not table.n_triggered:
        raise DataError("nothing triggered; no operating points to sweep")
    sweeps = {
        method: metrics.ranked_sweep(ranking)
        for method, ranking in metrics.rank_methods(table).items()
    }
    _write_outputs([(selqa_io.emit_sweep(sweeps, args.format), args.out)])
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Only synth needs numpy, so the other subcommands start without it.
    from . import synth

    try:
        config = synth.SynthConfig(
            n=args.n,
            seed=args.seed,
            miscalibration_shift=args.miscalibration,
            paraphrase_cluster_rate=args.cluster_rate,
            abstain_rate=args.abstain_rate,
            samples_per_q=args.samples_per_q,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions, gold = synth.generate(config)
    selqa_io.dump_predictions(predictions, str(out_dir / "predictions.jsonl"))
    selqa_io.dump_gold(gold, str(out_dir / "gold.json"))
    echo = {
        "n": config.n,
        "seed": config.seed,
        "miscalibration_shift": config.miscalibration_shift,
        "paraphrase_cluster_rate": config.paraphrase_cluster_rate,
        "abstain_rate": config.abstain_rate,
        "samples_per_q": config.samples_per_q,
        "rng": "pcg64",
        "out": str(out_dir),
    }
    print(json.dumps(echo, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except AdapterError as exc:
        print(f"adapter error: {exc}", file=sys.stderr)
        return _EXIT_ADAPTER
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
