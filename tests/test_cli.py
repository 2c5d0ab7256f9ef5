import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selqa import EvalPoint, build_report, score_all
from selqa.cli import main
from selqa.io import emit_report, join, load_gold, load_predictions

from conftest import DATA_DIR, adapter_cmd


def run(*argv) -> int:
    return main(list(argv))


GOLDEN_PRED = str(DATA_DIR / "golden_predictions.jsonl")
GOLDEN_GOLD = str(DATA_DIR / "golden_gold.json")


class TestEvaluate:
    def test_golden_report(self, tmp_path):
        out = tmp_path / "report.md"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_report.md").read_bytes()

    def test_golden_report_matches_library_composition(self, tmp_path):
        # rebuild the exact report through the library API
        pairs, _ = join(load_predictions(GOLDEN_PRED), load_gold(GOLDEN_GOLD))
        scored = [score_all(p, g) for p, g in pairs]
        report = build_report(
            scored,
            methods=["likelihood", "repetition", "diversity", "avg-bleu"],
            acc_targets=[60.0, 70.0, 80.0],
            meta={"classifier": "em", "bins": "10", "similarity": "bleu"},
        )
        assert emit_report(report, "markdown") == (DATA_DIR / "golden_report.md").read_bytes()
        assert emit_report(report, "json") == (DATA_DIR / "golden_report.json").read_bytes()

    def test_two_runs_identical_output(self, tmp_path):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"report-{attempt}.json"
            curves = tmp_path / f"curves-{attempt}"
            assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                       "--format", "json", "--out", str(out),
                       "--curves-out", str(curves)) == 0
            curve_bytes = {p.name: p.read_bytes() for p in sorted(curves.iterdir())}
            outputs.append((out.read_bytes(), curve_bytes))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (DATA_DIR / "golden_report.json").read_bytes()

    def test_single_method_projection(self, tmp_path, capsys):
        assert run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood", "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 2 and lines[1].startswith("likelihood,")

    def test_missing_gold_file_is_data_error(self, tmp_path, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold",
                   str(tmp_path / "nope.json"))
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_method_rejected_before_io(self, tmp_path, capsys):
        # the predictions path does not even exist: validation must come first
        code = run("evaluate", "--predictions", str(tmp_path / "ghost.jsonl"),
                   "--gold", GOLDEN_GOLD, "--methods", "entropy")
        assert code == 1
        assert "unknown scoring method" in capsys.readouterr().err

    def test_bad_targets_rejected(self, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--acc-targets", "0,60")
        assert code == 1

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question_id":"a","greedy":{"text":"x","logprobs":[0.5]},"samples":[]}\n')
        out = tmp_path / "report.md"
        code = run("evaluate", "--predictions", str(bad), "--gold", GOLDEN_GOLD,
                   "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".selqa-*"))

    def test_adapter_backed_methods(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("jaccard")),
                   "--adapter-name", "jaccard",
                   "--methods", "likelihood,avg-bleu",
                   "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["methods"]) == {"likelihood", "avg-jaccard"}

    def test_adapter_failure_exit_code(self, capsys):
        code = run("evaluate", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--adapter-cmd", " ".join(adapter_cmd("error")),
                   "--methods", "avg-bleu")
        assert code == 3
        assert "adapter" in capsys.readouterr().err


class TestScore:
    def test_scores_without_gold(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", GOLDEN_PRED, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        source = load_predictions(GOLDEN_PRED)
        assert len(lines) == len(source)
        first = json.loads(lines[0])
        assert set(first) == {"question_id", "triggered", "scores"}
        # deterministic ordering = input order
        assert [json.loads(l)["question_id"] for l in lines] == [r.question_id for r in source]

    def test_scores_with_gold_include_verdicts(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--out", str(out)) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        for row in rows:
            assert set(row) == {"question_id", "triggered", "scores", "correct", "answerable"}
            if row["triggered"]:
                assert "em" in row["correct"]
            else:
                assert row["correct"] == {}

    def test_abstainer_line(self, tmp_path):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--predictions", str(DATA_DIR / "trigger_predictions.jsonl"),
                   "--out", str(out)) == 0
        rows = {json.loads(l)["question_id"]: json.loads(l) for l in out.read_text().splitlines()}
        assert rows["t01"]["triggered"] is False
        assert set(rows["t01"]["scores"]) == {"likelihood", "repetition", "diversity", "avg-bleu"}

    def test_unanimous_samples_repetition_one(self, tmp_path):
        pred = tmp_path / "p.jsonl"
        samples = ",".join(['{"text":"yes","logprobs":[-0.1]}'] * 10)
        pred.write_text(
            '{"question_id":"q","greedy":{"text":"yes","logprobs":[-0.1]},"samples":[%s]}\n' % samples
        )
        out = tmp_path / "s.jsonl"
        assert run("score", "--predictions", str(pred), "--out", str(out)) == 0
        row = json.loads(out.read_text())
        assert row["scores"]["repetition"] == 1.0


class TestSweep:
    def test_rows_per_method(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood,diversity", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,tau,coverage,accuracy"
        methods = {l.split(",")[0] for l in lines[1:]}
        assert methods == {"likelihood", "diversity"}

    def test_sweep_consistent_with_report_coverage(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--methods", "likelihood", "--format", "json", "--out", str(out)) == 0
        sweep = json.loads(out.read_text())["likelihood"]
        # every row must be a point of the risk-coverage curve
        pairs, _ = join(load_predictions(GOLDEN_PRED), load_gold(GOLDEN_GOLD))
        scored = [score_all(p, g, methods=("likelihood",)) for p, g in pairs]
        from selqa import risk_coverage_curve

        points = [
            EvalPoint(s.scores["likelihood"], s.correct["em"], s.question_id)
            for s in scored
            if s.triggered
        ]
        curve = {(p.coverage, p.accuracy) for p in risk_coverage_curve(points)}
        assert all((row["coverage"], row["accuracy"]) in curve for row in sweep)


# Records the loader accepts but a scoring method cannot score.
UNSCORABLE = {
    "empty-greedy": '{"question_id":"q-empty","greedy":{"text":"","logprobs":[]},'
                    '"samples":[{"text":"yes","logprobs":[-0.1]}]}',
    "no-samples": '{"question_id":"q-nosamples","greedy":{"text":"yes","logprobs":[-0.1]},'
                  '"samples":[]}',
}


class TestUnscorableRecords:
    @pytest.mark.parametrize("command,with_gold", [
        ("evaluate", True), ("score", True), ("sweep", True), ("score", False),
    ])
    @pytest.mark.parametrize("case", sorted(UNSCORABLE))
    def test_data_error_names_question(self, tmp_path, capsys, case, command, with_gold):
        line = UNSCORABLE[case]
        qid = json.loads(line)["question_id"]
        pred = tmp_path / "p.jsonl"
        pred.write_text(line + "\n")
        gold = tmp_path / "g.json"
        gold.write_text(json.dumps([{"question_id": qid, "answers": [{"answer": "yes"}]}]))
        out = tmp_path / "out"
        argv = [command, "--predictions", str(pred), "--out", str(out)]
        if with_gold:
            argv += ["--gold", str(gold)]
        assert load_predictions(str(pred))  # the loader accepts it
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and qid in err and str(pred) in err
        assert not out.exists()


_texts = st.sampled_from(["", "yes", "Yes.", "no", "red apple", "unanswerable"])


@st.composite
def _answers(draw):
    text = draw(_texts)
    n_tokens = draw(st.integers(1, 3)) if text else 0
    logprobs = draw(st.lists(st.floats(-5.0, 0.0), min_size=n_tokens, max_size=n_tokens))
    return {"text": text, "logprobs": logprobs}


@st.composite
def _dumps(draw):
    n = draw(st.integers(1, 4))
    return [
        {"question_id": f"q{i}", "greedy": draw(_answers()),
         "samples": draw(st.lists(_answers(), max_size=3))}
        for i in range(n)
    ]


@settings(max_examples=25, deadline=None)
@given(_dumps(), st.sampled_from(["likelihood", "repetition,diversity", "avg-bleu",
                                  "likelihood,repetition,diversity,avg-bleu"]))
def test_accepted_dumps_score_or_fail_as_data_errors(records, methods):
    with tempfile.TemporaryDirectory() as tmp:
        pred = Path(tmp) / "p.jsonl"
        pred.write_text("".join(json.dumps(r) + "\n" for r in records))
        gold = Path(tmp) / "g.json"
        gold.write_text(json.dumps(
            [{"question_id": r["question_id"], "answers": [{"answer": "yes"}]} for r in records]
        ))
        assert len(load_predictions(str(pred))) == len(records)
        # any other exception escapes main() and fails the test with its traceback
        code = run("evaluate", "--predictions", str(pred), "--gold", str(gold),
                   "--methods", methods, "--out", str(Path(tmp) / "report.md"))
        assert code in (0, 2)


class TestSynth:
    def test_writes_files_and_echoes_config(self, tmp_path, capsys):
        out_dir = tmp_path / "dump"
        assert run("synth", "--out", str(out_dir), "--n", "5", "--seed", "3") == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["seed"] == 3 and echo["n"] == 5
        assert (out_dir / "predictions.jsonl").exists()
        assert (out_dir / "gold.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", str(tmp_path / name), "--n", "30", "--seed", "11",
                       "--abstain-rate", "0.2") == 0
        assert (tmp_path / "a/predictions.jsonl").read_bytes() == (tmp_path / "b/predictions.jsonl").read_bytes()
        assert (tmp_path / "a/gold.json").read_bytes() == (tmp_path / "b/gold.json").read_bytes()

    def test_forced_abstention(self, tmp_path):
        out_dir = tmp_path / "dump"
        assert run("synth", "--out", str(out_dir), "--n", "1", "--seed", "1",
                   "--abstain-rate", "1.0") == 0
        line = json.loads((out_dir / "predictions.jsonl").read_text())
        assert "unanswerable" in line["greedy"]["text"]

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path / "x"), "--n", "0", "--seed", "1") == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self, capsys):
        assert run("evaluate", "--gold", GOLDEN_GOLD) == 1

    def test_markdown_not_valid_for_sweep(self, capsys):
        assert run("sweep", "--predictions", GOLDEN_PRED, "--gold", GOLDEN_GOLD,
                   "--format", "markdown") == 1
