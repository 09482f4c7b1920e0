import json
from pathlib import Path

import pytest

import prp_sort
from prp_sort import cli, experiment
from prp_sort.cli import main

COST_MODEL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cost_model.json"


def write_config(tmp_path, **overrides):
    raw = {
        "dataset": {"synthetic": {"queries": 2, "n": 8}},
        "oracle": {"kind": "score"},
        "k": 3,
        "seed": 5,
        "algorithms": [
            {"algorithm": "heapsort"},
            {"algorithm": "quicksort", "pivot": "middle", "batch_size": 2},
        ],
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


# A file-mode llm sweep whose endpoint nothing listens on, so every cell
# fails at its first connection.
LLM_CONFIG = (
    '{"dataset": {"run": "run.txt", "qrels": "qrels.txt", "queries": "queries.tsv",'
    ' "passages": "passages.tsv"}, "oracle": {"kind": "llm", "endpoint":'
    ' {"url": "http://127.0.0.1:9/complete", "retries": 0}},'
    ' "k": 2, "algorithms": [{"algorithm": "heapsort"}]}'
)


class TestVersion:
    def test_prints_package_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == prp_sort.__version__


class TestRun:
    def test_runs_config_and_writes_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("kind,algorithm")
        assert "heapsort" in text
        assert "quicksort (middle, b=2)" in text
        stdout = capsys.readouterr().out
        assert "wrote csv report" in stdout
        assert "heapsort" in stdout  # summary table

    def test_repeat_runs_emit_identical_bytes(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", config, "--out", str(a)]) == 0
        assert main(["run", "--config", config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_emission(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", config, "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kind,algorithm")

    def test_algo_override_replaces_matrix(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["run", "--config", config, "--algo", "bubblesort", "--cache", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "bubblesort (cached)" in text
        assert "heapsort" not in text

    def test_k_and_format_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "r.jsonl"
        assert main(
            ["run", "--config", config, "--k", "2", "--format", "jsonl", "--out", str(out)]
        ) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert all(r["k"] == 2 for r in records)
        assert records[0]["kind"] == "query"

    def test_quicksort_flags(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert (
            main(
                [
                    "run",
                    "--config",
                    config,
                    "--algo",
                    "quicksort",
                    "--pivot",
                    "random",
                    "--batch-size",
                    "128",
                    "--no-partial",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "quicksort (random, b=128, full)" in out.read_text(encoding="utf-8")

    def test_a_run_aggregates_its_sweep_once(self, tmp_path, capsys, monkeypatch):
        # The report file and the summary table read one stored aggregation.
        aggregated, reports = [], []
        real_aggregates, real_run = experiment.compute_aggregates, cli.run_experiment

        def compute_aggregates(rows):
            aggregated.append(len(rows))
            return real_aggregates(rows)

        def run_experiment(config):
            reports.append(real_run(config))
            return reports[-1]

        monkeypatch.setattr(experiment, "compute_aggregates", compute_aggregates)
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(COST_MODEL_CONFIG), "--out", str(out)]) == 0
        assert aggregated == [1600]  # 200 queries x 8 variants, aggregated once
        [report] = reports
        assert report.aggregates is report.aggregates
        assert "gain%" in capsys.readouterr().out

    def test_summary_of_an_all_failed_algorithm(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        inputs = {
            "run.txt": "q1 Q0 dA 1 2.0 t\nq1 Q0 dB 2 1.0 t\nq2 Q0 dA 1 2.0 t\nq2 Q0 dB 2 1.0 t\n",
            "qrels.txt": "q1 0 dA 1\n",
            "queries.tsv": "q1\tfirst\nq2\tsecond\n",
            "passages.tsv": "dA\ttext a\ndB\ttext b\n",
            "config.json": LLM_CONFIG,
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["run", "--config", "config.json", "--out", "r.csv"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split() == ["heapsort", "0", "(all", "2", "queries", "failed)"]
        assert (tmp_path / "r.csv").read_text(encoding="utf-8").count(",failed,") == 2

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, algorithms=[{"algorithm": "mergesort"}])
        assert main(["run", "--config", config]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"dataset": ',
            '[{"algorithm": "heapsort"}]',
            '{"dataset": {"synthetic": {"queries": 2}}, "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}}, "k": "ten",'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
            LLM_CONFIG.replace('"retries": 0', '"timeout_s": -1'),
            LLM_CONFIG.replace('"retries": 0', '"timeout_s": 0'),
            LLM_CONFIG.replace('"retries": 0', '"retries": -1'),
            LLM_CONFIG.replace('"retries": 0', '"timeout_s": NaN'),
            LLM_CONFIG.replace('"retries": 0', '"timeout_s": Infinity'),
            LLM_CONFIG.replace('"retries": 0', '"timeout_s": 1e10'),
            LLM_CONFIG.replace("http://", "ftp://"),
            LLM_CONFIG.replace('"passages.tsv"}', '"passages.tsv", "depth": 0}'),
            '{"dataset": {"synthetic": {"queries": 0, "n": 8}},'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 0}},'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}}, "oracle": {"kind": "noisy",'
            ' "flip_prob": 0.3}, "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}}, "sed": 5,'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}, "run": "run.txt", "qrels": "q.txt"},'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}}, "k": 3,'
            ' "algorithms": [{"algorithm": "heapsort", "k": 3}]}',
            '{"dataset": {"synthetic": {"queries": 2, "n": 8}}, "seed": 5,'
            ' "oracle": {"kind": "noisy", "flip_probability": 0.1, "seed": 5},'
            ' "algorithms": [{"algorithm": "heapsort"}]}',
        ],
        ids=[
            "invalid-json",
            "top-level-list",
            "synthetic-without-n",
            "k-not-an-integer",
            "negative-timeout",
            "zero-timeout",
            "negative-retries",
            "nan-timeout",
            "infinite-timeout",
            "overflowing-timeout",
            "ftp-url",
            "zero-depth",
            "zero-queries",
            "zero-n",
            "misspelt-oracle-key",
            "misspelt-top-level-key",
            "both-dataset-kinds",
            "algorithm-entry-k",
            "oracle-seed",
        ],
    )
    def test_malformed_config_file_exits_nonzero(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_override_combination_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", "--config", config, "--algo", "heapsort", "--batch-size", "4"])
        assert code == 2
        assert "batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--batch-size", "16"], ["--pivot", "random"], ["--cache"], ["--no-partial"]]
    )
    def test_override_flags_without_algo_exit_nonzero(self, tmp_path, capsys, flags):
        config = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["run", "--config", config, *flags, "--out", str(out)]) == 2
        assert "need --algo" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "io error" in capsys.readouterr().err
