"""Command-line behavior: golden outputs, exit codes, determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crpo import dataio
from crpo.cli import main
from crpo.core import PreferenceDataset, SelectionConfig
from crpo.dataio import (
    emit_pairs,
    ingest_candidates,
    load_pairs,
    load_utility_matrices,
    save_utility_matrices,
)
from crpo.scoring import UtilityMatrix
from crpo.selectors import run_selector

from oracles import builtin_utility

HERE = Path(__file__).parent
FIXTURE = HERE / "fixtures" / "candidates_small.jsonl"
PARAPHRASE_FIXTURE = HERE / "fixtures" / "candidates_paraphrase.jsonl"
GOLDEN = HERE / "golden"

SELECT_VARIANTS = [
    ("cr_plus", []),
    ("cr_times", []),
    ("rs_dpo", []),
    ("mbr_bw", []),
    ("mbr_bmw", []),
    ("qe_best", []),
    ("top_scores", []),
    ("minmax_r", []),
    ("minmax_p", []),
    ("minmax_po", []),
    ("rso", ["--beta", "1.0"]),
]


def run_select(out_path, method, extra=()):
    return main(
        ["select", "--in", str(FIXTURE), "--out", str(out_path), "--method", method]
        + list(extra)
    )


class TestSelectGoldens:
    @pytest.mark.parametrize("method,extra", SELECT_VARIANTS)
    def test_matches_golden_bytes(self, tmp_path, method, extra, capsys):
        out = tmp_path / "pairs.jsonl"
        assert run_select(out, method, extra) == 0
        golden = GOLDEN / f"pairs_{method}.jsonl"
        assert out.read_bytes() == golden.read_bytes()
        assert "wrote" in capsys.readouterr().out

    def test_sharp_rso_skips_two_of_three_sources(self, tmp_path, capsys):
        # At the default beta 0.1, s_beta accepts B2 once (acceptance
        # probability exp(-6.5)) and pairs it with B1; the other two sources
        # draw only tied pairs.
        out = tmp_path / "pairs.jsonl"
        assert run_select(out, "rso") == 0
        assert out.read_bytes() == (GOLDEN / "pairs_rso_sharp.jsonl").read_bytes()
        assert "(2 of 3 sources skipped)" in capsys.readouterr().out
        (pair,) = load_pairs(out).pairs
        assert (pair.source_id, pair.chosen_id, pair.rejected_id) == ("s_beta", "B1", "B2")

    @pytest.mark.parametrize("method,extra", SELECT_VARIANTS)
    def test_repeat_runs_are_byte_identical(self, tmp_path, method, extra):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_select(a, method, extra) == 0
        assert run_select(b, method, extra) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method,extra", SELECT_VARIANTS)
    def test_goldens_round_trip_losslessly(self, tmp_path, method, extra):
        golden = GOLDEN / f"pairs_{method}.jsonl"
        dataset = load_pairs(golden)
        rewritten = tmp_path / "pairs.jsonl"
        emit_pairs(dataset, rewritten)
        assert rewritten.read_bytes() == golden.read_bytes()

    def test_provenance_records_the_input_digest(self):
        from crpo.dataio import digest_file

        meta = load_pairs(GOLDEN / "pairs_cr_plus.jsonl").provenance
        assert meta["input_digest"] == digest_file(FIXTURE)
        assert meta["config"]["method"] == "cr_plus"
        assert meta["n_sources"] == 3


class TestSelectErrors:
    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "select",
                "--in", str(tmp_path / "absent.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
                "--method", "cr_plus",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_select(tmp_path / "out.jsonl", "argmax_magic")
        assert excinfo.value.code == 2

    def test_invalid_beta_is_a_validation_error(self, tmp_path, capsys):
        rc = run_select(tmp_path / "out.jsonl", "cr_plus", ["--beta", "0"])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    def test_per_token_norm_needs_token_counts(self, tmp_path, capsys):
        rc = run_select(
            tmp_path / "out.jsonl", "cr_plus", ["--logprob-norm", "per_token"]
        )
        assert rc == 2
        assert "token" in capsys.readouterr().err.lower()

    def test_qe_best_needs_no_token_counts(self, tmp_path, capsys):
        # qe_best reads rewards only, so per-token normalization of a file
        # without token counts does not stop it
        out = tmp_path / "out.jsonl"
        assert run_select(out, "qe_best", ["--logprob-norm", "per_token"]) == 0
        assert len(load_pairs(out).sft_targets) == 3
        assert "wrote 0 pairs, 3 sft targets" in capsys.readouterr().out

    def test_partial_utility_matrix_file_rejected(self, tmp_path, capsys):
        matrices = tmp_path / "util.txt"
        full = (GOLDEN / "utility_small.txt").read_text(encoding="utf-8")
        first_block = "\n".join(full.splitlines()[:4]) + "\n"  # s_alpha only
        matrices.write_text(first_block, encoding="utf-8")
        rc = run_select(
            tmp_path / "out.jsonl", "mbr_bw", ["--utility-matrix", str(matrices)]
        )
        assert rc == 2
        assert "no utility matrix" in capsys.readouterr().err

    # Matrices written by `utility matrix` hold the built-in utility, so
    # selecting from them must give the bytes of the matrix-free run.
    @pytest.mark.parametrize("method", ["mbr_bw", "mbr_bmw"])
    @pytest.mark.parametrize(
        "candidates", [FIXTURE, PARAPHRASE_FIXTURE], ids=["small", "paraphrase"]
    )
    def test_supplied_matrices_change_nothing_when_equivalent(self, tmp_path, candidates, method):
        matrices = tmp_path / "u.txt"
        built_in, supplied = tmp_path / "built_in.jsonl", tmp_path / "supplied.jsonl"
        assert main(["utility", "matrix", "--in", str(candidates), "--out", str(matrices)]) == 0
        select = ["select", "--in", str(candidates), "--method", method, "--out"]
        assert main(select + [str(built_in)]) == 0
        assert main(select + [str(supplied), "--utility-matrix", str(matrices)]) == 0
        assert supplied.read_bytes() == built_in.read_bytes()

    @pytest.mark.parametrize("method", ["cr_plus", "minmax_r", "rso"])
    def test_utility_matrix_rejected_for_non_mbr_methods(self, tmp_path, method, capsys):
        out = tmp_path / "out.jsonl"
        rc = run_select(
            out, method, ["--utility-matrix", str(GOLDEN / "utility_small.txt")]
        )
        assert rc == 2
        assert "--utility-matrix applies only to mbr_bw and mbr_bmw" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommand:
    def test_matches_golden_bytes(self, tmp_path):
        out, csv_out = tmp_path / "stats.json", tmp_path / "stats.csv"
        rc = main(
            [
                "stats",
                "--pairs", str(GOLDEN / "pairs_cr_plus.jsonl"),
                "--candidates", str(FIXTURE),
                "--out", str(out),
                "--bins", "6",
                "--csv", str(csv_out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "stats_cr_plus.json").read_bytes()
        assert csv_out.read_bytes() == (GOLDEN / "stats_cr_plus.csv").read_bytes()

    def test_csv_sidecar(self, tmp_path):
        out, csv_out = tmp_path / "stats.json", tmp_path / "stats.csv"
        rc = main(
            [
                "stats",
                "--pairs", str(GOLDEN / "pairs_cr_plus.jsonl"),
                "--candidates", str(FIXTURE),
                "--out", str(out),
                "--csv", str(csv_out),
            ]
        )
        assert rc == 0
        header = csv_out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "method,series,bin_lo,bin_hi,count"

    def test_digest_mismatch_rejected(self, tmp_path, capsys):
        tampered = tmp_path / "cands.jsonl"
        tampered.write_text(
            FIXTURE.read_text(encoding="utf-8").replace('"qe": 0.9}', '"qe": 0.8}'),
            encoding="utf-8",
        )
        rc = main(
            [
                "stats",
                "--pairs", str(GOLDEN / "pairs_cr_plus.jsonl"),
                "--candidates", str(tampered),
                "--out", str(tmp_path / "stats.json"),
            ]
        )
        assert rc == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_pairs_not_in_candidates_rejected(self, tmp_path, capsys):
        bogus = tmp_path / "pairs.jsonl"
        bogus.write_text(
            json.dumps({"_meta": {}})
            + "\n"
            + json.dumps(
                {
                    "source_id": "s_alpha",
                    "chosen_id": "A",
                    "rejected_id": "ZZZ",
                    "method": "cr_plus",
                    "score": 1.0,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "stats",
                "--pairs", str(bogus),
                "--candidates", str(FIXTURE),
                "--out", str(tmp_path / "stats.json"),
            ]
        )
        assert rc == 2
        assert "unknown candidate" in capsys.readouterr().err


    def stats_on_pair_record(self, tmp_path, record, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"_meta": {}}) + "\n" + json.dumps(record) + "\n", encoding="utf-8"
        )
        rc = main(
            [
                "stats",
                "--pairs", str(pairs),
                "--candidates", str(FIXTURE),
                "--out", str(tmp_path / "stats.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "pairs.jsonl:2:" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("score", ["high", True, [1.0]])
    def test_non_numeric_score_is_a_validation_error(self, tmp_path, score, capsys):
        record = {
            "source_id": "s_alpha",
            "chosen_id": "A",
            "rejected_id": "B",
            "method": "cr_plus",
            "score": score,
        }
        self.stats_on_pair_record(tmp_path, record, capsys)

    @pytest.mark.parametrize(
        "record",
        [
            {"source_id": "s_alpha", "chosen_id": ["x"], "rejected_id": "B"},
            {"source_id": ["x"], "chosen_id": "A", "rejected_id": "B"},
            {"source_id": "s_alpha", "chosen_id": "A", "rejected_id": "B", "method": 5},
            {"source_id": "s_alpha", "sft_target": ["a"]},
            {"source_id": {"a": 1}, "sft_target": "A"},
        ],
    )
    def test_non_string_pair_fields_are_validation_errors(self, tmp_path, record, capsys):
        if "sft_target" not in record:
            record = {"method": "cr_plus", "score": 1.0} | record
        self.stats_on_pair_record(tmp_path, record, capsys)

    def test_candidate_file_without_candidates_is_a_validation_error(self, tmp_path, capsys):
        candidates = tmp_path / "cands.jsonl"
        candidates.write_text(json.dumps({"_meta": {}}) + "\n", encoding="utf-8")
        pairs = tmp_path / "pairs.jsonl"
        emit_pairs(PreferenceDataset(pairs=()), pairs)
        rc = main(
            [
                "stats",
                "--pairs", str(pairs),
                "--candidates", str(candidates),
                "--out", str(tmp_path / "stats.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "no candidates" in err
        assert "internal error" not in err

    def test_per_token_pair_file_reports_per_token_logprobs(self, tmp_path):
        candidates = tmp_path / "cands.jsonl"
        lines = []
        for line in FIXTURE.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "text" in record:
                record["token_count"] = len(record["text"].split())
            lines.append(json.dumps(record, ensure_ascii=False))
        candidates.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pairs, out = tmp_path / "pairs.jsonl", tmp_path / "stats.json"
        rc = main(
            [
                "select", "--in", str(candidates), "--out", str(pairs),
                "--method", "cr_plus", "--logprob-norm", "per_token",
            ]
        )
        assert rc == 0
        rc = main(
            ["stats", "--pairs", str(pairs), "--candidates", str(candidates), "--out", str(out)]
        )
        assert rc == 0
        confidence_gaps = [p.extras["confidence_gap"] for p in load_pairs(pairs).pairs]
        stats = json.loads(out.read_text(encoding="utf-8"))["methods"]["cr_plus"]
        # The scatter's logprob gap is chosen minus rejected, the pair's
        # confidence_gap rejected minus chosen.
        logprob_gaps = [gap for _, gap in stats["scatter"]]
        assert logprob_gaps == [-gap for gap in confidence_gaps]
        assert stats["chosen_logprob_mean"] - stats["rejected_logprob_mean"] == pytest.approx(
            -sum(confidence_gaps) / len(confidence_gaps)
        )

    def test_overflowing_logprob_sum_gives_a_finite_mean(self, tmp_path, capsys):
        # Every log-prob is valid input, but a plain sum of the chosen ones
        # overflows; the report must stay strict JSON with a finite mean.
        candidates = tmp_path / "cands.jsonl"
        records = [{"_meta": {}}] + [
            {
                "source_id": source, "source_text": "x", "direction": "en-de",
                "candidate_id": cid, "text": f"text {cid}", "logprob": logprob,
                "rewards": {"qe": reward},
            }
            for source in ("s1", "s2")
            for cid, reward, logprob in (("A", 0.9, -1.5e308), ("B", 0.1, -1e300))
        ]
        candidates.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        pairs, out = tmp_path / "pairs.jsonl", tmp_path / "stats.json"
        argv = ["select", "--in", str(candidates), "--out", str(pairs), "--method", "minmax_r"]
        assert main(argv) == 0
        argv = ["stats", "--pairs", str(pairs), "--candidates", str(candidates), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        stats = report["methods"]["minmax_r"]
        assert stats["chosen_logprob_mean"] == -1.5e308
        assert stats["rejected_logprob_mean"] == -1e300


class TestLossesCommand:
    def test_check_grad_passes(self, capsys):
        rc = main(["losses", "check-grad", "--instances", "5"])
        assert rc == 0
        error, passed = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"max relative error \d\.\d{3}e[+-]\d+ \[ok\]", error)
        assert passed == "gradient check passed over 5 instances"

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_a_validation_error(self, instances, capsys):
        rc = main(["losses", "check-grad", "--instances", instances])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: instances must be a positive integer" in captured.err
        assert "passed" not in captured.out

    def test_too_many_instances_exit_2_at_once(self):
        from crpo.losses import MAX_GRAD_INSTANCES

        proc = subprocess.run(
            [sys.executable, "-m", "crpo.cli", "losses", "check-grad",
             "--instances", "1000000000000"],
            cwd=HERE.parent / "src",
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: instances must be at most {MAX_GRAD_INSTANCES}, got 1000000000000\n"
        )
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["losses", "check-grad", "--seed", "-1", "--instances", "1"],
        ["toy", "compare", "--methods", "cr_plus", "--seeds", "1", "--sources", "2",
         "--outputs", "3", "--k", "2", "--world-seed", "-1"],
    ],
    ids=["check-grad", "toy-compare"],
)
def test_negative_seed_is_a_validation_error(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(argv + (["--out", str(out)] if argv[0] == "toy" else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: seed must be a non-negative integer")
    assert not out.exists()


class TestToyCommand:
    ARGS = [
        "toy", "compare",
        "--methods", "cr_plus,random_pair",
        "--seeds", "2",
        "--sources", "4",
        "--outputs", "6",
        "--k", "8",
    ]

    def test_writes_report_deterministically(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text(encoding="utf-8"))
        assert report["methods"] == ["cr_plus", "random_pair"]
        assert report["seeds"] == [0, 1]
        out = capsys.readouterr().out
        assert "cr_plus: mean gain" in out

    @pytest.mark.parametrize(
        "golden_name, methods, seeds, sources",
        [
            ("toy_compare_small", "cr_plus,rso,minmax_r,random_pair,mbr_bmw", "4", "40"),
            (
                "toy_compare_all",
                "cr_plus,cr_times,rso,rs_dpo,mbr_bw,mbr_bmw,qe_best,top_scores,"
                "minmax_r,minmax_p,minmax_po,random_pair",
                "3",
                "20",
            ),
        ],
        ids=["toy_compare_small", "toy_compare_all"],
    )
    def test_reference_run_matches_golden(
        self, golden_name, methods, seeds, sources, tmp_path, capsys
    ):
        # The report rounds each gain to 12 places, so numpy's SIMD exp and
        # log, which may differ in the last bit between CPUs, leave its bytes
        # alone.  A gain within about 1e-16 of a 12-place rounding midpoint
        # can still round two ways, with a probability of about 2e-4 per value.
        out = tmp_path / "report.json"
        argv = ["toy", "compare", "--methods", methods, "--seeds", seeds,
                "--sources", sources, "--outputs", "16", "--k", "12",
                "--world-seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (GOLDEN / f"{golden_name}.json").read_bytes()

    def test_unknown_method_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "toy", "compare",
                "--methods", "nonsense",
                "--seeds", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_zero_seeds_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "toy", "compare",
                "--methods", "cr_plus",
                "--seeds", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "n_seeds >= 1, got 0" in capsys.readouterr().err


class TestLoneSurrogateTexts:
    """JSON "\\ud800" escapes decode to lone surrogates, which the built-in
    utility scores like any other character."""

    TEXTS = {"A": "ab\ud800 cd", "B": "\ud800\ud800b", "C": "abcd", "D": "\udfff"}

    @pytest.fixture
    def candidates(self, tmp_path):
        path = tmp_path / "surrogates.jsonl"
        records = [
            {
                "source_id": "s1",
                "source_text": "a source",
                "direction": "en-de",
                "candidate_id": cid,
                "text": text,
                "logprob": -1.0 - j,
                "rewards": {"qe": 0.2 * j},
            }
            for j, (cid, text) in enumerate(self.TEXTS.items())
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        return path

    def oracle_matrix(self) -> UtilityMatrix:
        texts = list(self.TEXTS.values())
        values = [[builtin_utility(hyp, ref) for ref in texts] for hyp in texts]
        return UtilityMatrix(tuple(self.TEXTS), np.array(values))

    def test_utility_matrix_writes_the_oracle_values(self, candidates, tmp_path):
        out = tmp_path / "util.txt"
        assert main(["utility", "matrix", "--in", str(candidates), "--out", str(out)]) == 0
        matrix = load_utility_matrices(out)["s1"]
        assert matrix.ids == tuple(self.TEXTS)
        assert np.array_equal(matrix.values, self.oracle_matrix().values)

    def test_mbr_bw_pairs_follow_the_oracle_values(self, candidates, tmp_path):
        out = tmp_path / "pairs.jsonl"
        rc = main(["select", "--in", str(candidates), "--out", str(out), "--method", "mbr_bw"])
        assert rc == 0
        (cset,) = ingest_candidates(candidates)
        expected = run_selector(cset, SelectionConfig(method="mbr_bw"), self.oracle_matrix())
        assert load_pairs(out).pairs == expected.pairs


class TestLoneSurrogateIds:
    """A JSON "\\ud800" escape in a field crpo writes back out (an id or a
    method tag) exits 2 at read time with the line, before any output file is
    opened: no UTF-8 writer could encode it."""

    def with_surrogate(self, source: Path, dest: Path, line: int, key: str) -> Path:
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[line - 1])
        record[key] = record[key][:1] + "\ud800"
        lines[line - 1] = json.dumps(record) + "\n"  # ASCII: the surrogate as an escape
        dest.write_text("".join(lines), encoding="utf-8")
        return dest

    def assert_rejected(self, argv, out: Path, where: str, key: str, capsys) -> None:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where}: {key} holds a lone surrogate, which UTF-8 cannot encode\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["source_id", "candidate_id"])
    @pytest.mark.parametrize("method", ["cr_plus", "qe_best", "mbr_bw", "rso"])
    def test_select_rejects_a_candidate_id(self, tmp_path, method, key, capsys):
        bad = self.with_surrogate(FIXTURE, tmp_path / "cands.jsonl", 3, key)
        out = tmp_path / "pairs.jsonl"
        argv = ["select", "--in", str(bad), "--out", str(out), "--method", method]
        self.assert_rejected(argv, out, f"{bad}:3", key, capsys)

    def test_utility_matrix_rejects_a_candidate_id(self, tmp_path, capsys):
        bad = self.with_surrogate(FIXTURE, tmp_path / "cands.jsonl", 5, "candidate_id")
        out = tmp_path / "util.txt"
        argv = ["utility", "matrix", "--in", str(bad), "--out", str(out)]
        self.assert_rejected(argv, out, f"{bad}:5", "candidate_id", capsys)

    @pytest.mark.parametrize(
        "golden, line, key",
        [
            ("pairs_cr_plus.jsonl", 2, "method"),
            ("pairs_cr_plus.jsonl", 3, "chosen_id"),
            ("pairs_cr_plus.jsonl", 2, "rejected_id"),
            ("pairs_qe_best.jsonl", 2, "sft_target"),
            ("pairs_qe_best.jsonl", 3, "source_id"),
        ],
    )
    def test_stats_rejects_a_pair_id_or_method(self, tmp_path, golden, line, key, capsys):
        bad = self.with_surrogate(GOLDEN / golden, tmp_path / "pairs.jsonl", line, key)
        out = tmp_path / "stats.json"
        argv = ["stats", "--pairs", str(bad), "--candidates", str(FIXTURE), "--out", str(out)]
        self.assert_rejected(argv, out, f"{bad}:{line}", key, capsys)


class TestUtilityCommand:
    def test_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "util.txt"
        rc = main(["utility", "matrix", "--in", str(FIXTURE), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "utility_small.txt").read_bytes()

    def test_paraphrase_golden_bytes(self, tmp_path):
        # 4 pools x 16 texts of 12-20 words that share about 70% of their words
        out = tmp_path / "util.txt"
        rc = main(["utility", "matrix", "--in", str(PARAPHRASE_FIXTURE), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "utility_paraphrase.txt").read_bytes()

    def test_paraphrase_mbr_bw_golden_bytes(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        rc = main(
            ["select", "--in", str(PARAPHRASE_FIXTURE), "--out", str(out), "--method", "mbr_bw"]
        )
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "pairs_mbr_bw_paraphrase.jsonl").read_bytes()

    def test_golden_loads_back(self):
        matrices = load_utility_matrices(GOLDEN / "utility_small.txt")
        assert set(matrices) == {"s_alpha", "s_beta", "s_gamma"}
        assert matrices["s_alpha"].ids == ("A", "B", "C")
        assert matrices["s_gamma"].values.shape == (5, 5)

    @pytest.mark.parametrize(
        "header,message",
        [
            ({"source_id": "s_alpha", "ids": "AB"}, "ids must be a list of strings"),
            ({"source_id": "s_alpha", "ids": 5}, "ids must be a list of strings"),
            ({"source_id": ["x"], "ids": ["A", "B"]}, "source_id must be a string"),
            (
                {"source_id": "s_alpha", "ids": ["A", {"B": 1}]},
                "utility matrix ids must be strings",
            ),
        ],
    )
    def test_malformed_block_header_is_a_validation_error(
        self, tmp_path, header, message, capsys
    ):
        matrices = tmp_path / "util.txt"
        matrices.write_text(json.dumps(header) + "\n1.0 0.5\n0.5 1.0\n", encoding="utf-8")
        rc = run_select(tmp_path / "out.jsonl", "mbr_bw", ["--utility-matrix", str(matrices)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"util.txt:1: {message}" in err
        assert "internal error" not in err


class TestOutputNamesAnotherFile:
    """An output flag that names the file of an input flag or of the other
    output exits 2 before anything is read: no input changes, and no output
    is written."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {
            "c": tmp_path / "candidates.jsonl",
            "p": tmp_path / "pairs.jsonl",
            "u": tmp_path / "utility.txt",
        }
        for key, source in (
            ("c", FIXTURE), ("p", GOLDEN / "pairs_cr_plus.jsonl"), ("u", GOLDEN / "utility_small.txt")
        ):
            paths[key].write_bytes(source.read_bytes())
        paths["r"] = tmp_path / "report"  # not there yet
        return paths

    @staticmethod
    def contents(tmp_path):
        # A dangling link reads as False.
        return {path: path.exists() and path.read_bytes() for path in tmp_path.iterdir()}

    def assert_rejected(self, argv, flags, files, tmp_path, capsys):
        before = self.contents(tmp_path)
        rc = main([arg.format(**files) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert all(flag in err for flag in flags), err
        assert self.contents(tmp_path) == before

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["select", "--in", "{c}", "--out", "{c}", "--method", "cr_plus"], ["--out", "--in"]),
            (["select", "--in", "{c}", "--out", "{u}", "--method", "mbr_bw",
              "--utility-matrix", "{u}"], ["--out", "--utility-matrix"]),
            (["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{p}"],
             ["--out", "--pairs"]),
            (["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{c}"],
             ["--out", "--candidates"]),
            (["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{r}", "--csv", "{p}"],
             ["--csv", "--pairs"]),
            (["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{r}", "--csv", "{c}"],
             ["--csv", "--candidates"]),
            (["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{r}", "--csv", "{r}"],
             ["--csv", "--out"]),
            (["utility", "matrix", "--in", "{c}", "--out", "{c}"], ["--out", "--in"]),
        ],
        ids=["select --in", "select --utility-matrix", "stats --out --pairs",
             "stats --out --candidates", "stats --csv --pairs", "stats --csv --candidates",
             "stats --csv --out", "utility matrix --in"],
    )
    def test_same_path_is_rejected(self, argv, flags, files, tmp_path, capsys):
        self.assert_rejected(argv, flags, files, tmp_path, capsys)

    @pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard link"])
    def test_linked_path_is_rejected(self, link, files, tmp_path, capsys):
        link(files["c"], tmp_path / "linked.jsonl")
        files["l"] = tmp_path / "linked.jsonl"
        argv = ["select", "--in", "{c}", "--out", "{l}", "--method", "cr_plus"]
        self.assert_rejected(argv, ["--out", "--in"], files, tmp_path, capsys)

    def test_symlink_to_the_other_output_is_rejected(self, files, tmp_path, capsys):
        # Neither output exists yet; the link would write through to the report.
        os.symlink(files["r"], tmp_path / "linked.csv")
        files["l"] = tmp_path / "linked.csv"
        argv = ["stats", "--pairs", "{p}", "--candidates", "{c}", "--out", "{r}", "--csv", "{l}"]
        self.assert_rejected(argv, ["--csv", "--out"], files, tmp_path, capsys)

    def test_devices_may_repeat(self, files):
        argv = ["stats", "--pairs", str(files["p"]), "--candidates", str(files["c"]),
                "--out", os.devnull, "--csv", os.devnull]
        assert main(argv) == 0


class _ReadReached(Exception):
    """Raised by a reader or the toy run when a test expects none to be called."""


class TestOutputInAMissingDirectory:
    """An output flag whose directory does not exist exits 2 naming the flag
    before any input is read or any toy world is run."""

    @pytest.fixture(autouse=True)
    def no_reads(self, monkeypatch):
        def reached(*args, **kwargs):
            raise _ReadReached

        for name in ("ingest_candidates", "load_pairs", "make_world", "run_comparison"):
            monkeypatch.setattr(f"crpo.cli.{name}", reached)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["select", "--in", FIXTURE, "--out", "{m}", "--method", "cr_plus"], "--out"),
            (["stats", "--pairs", GOLDEN / "pairs_cr_plus.jsonl", "--candidates", FIXTURE,
              "--out", "{m}"], "--out"),
            (["stats", "--pairs", GOLDEN / "pairs_cr_plus.jsonl", "--candidates", FIXTURE,
              "--out", os.devnull, "--csv", "{m}"], "--csv"),
            (["utility", "matrix", "--in", FIXTURE, "--out", "{m}"], "--out"),
            (["toy", "compare", "--methods", "cr_plus", "--seeds", "2", "--out", "{m}"], "--out"),
        ],
        ids=["select", "stats --out", "stats --csv", "utility matrix", "toy compare"],
    )
    def test_exits_2_before_reading(self, tmp_path, capsys, argv, flag):
        missing = tmp_path / "missing" / "out"
        assert main([str(arg).format(m=missing) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} names a file in a missing directory: {missing}\n"
        )
        assert not missing.parent.exists()

    def test_dev_null_passes_the_check(self, capsys):
        argv = ["toy", "compare", "--methods", "cr_plus", "--seeds", "2", "--out", os.devnull]
        assert main(argv) == 1  # reached the patched toy world
        assert "_ReadReached" in capsys.readouterr().err


class TestInputChangedWhileRead:
    """``select --in`` and a digest-checked ``stats --candidates`` are read
    twice, once for the records and once for the digest: a file that grows
    in between exits 2 naming the flag, rather than recording the digest of
    bytes that were not the ones read."""

    @pytest.fixture
    def grow_before_digest(self, monkeypatch):
        extra = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)[1]

        def digest_after_append(path):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(extra)
            return dataio.digest_file(path)

        monkeypatch.setattr("crpo.cli.digest_file", digest_after_append)
        return extra

    def test_select_exits_2(self, tmp_path, capsys, grow_before_digest):
        candidates, out = tmp_path / "c.jsonl", tmp_path / "pairs.jsonl"
        candidates.write_bytes(FIXTURE.read_bytes())
        assert main([str(arg) for arg in _select_argv(out, candidates)]) == 2
        assert capsys.readouterr().err == f"error: --in changed while it was read: {candidates}\n"
        assert not out.exists()

    def test_stats_exits_2(self, tmp_path, capsys, grow_before_digest):
        # The pair file records the digest of the grown file, so only the
        # changed file, not the digest, tells that its records were not read.
        candidates, out = tmp_path / "c.jsonl", tmp_path / "stats.json"
        candidates.write_bytes(FIXTURE.read_bytes() + grow_before_digest.encode())
        pairs = tmp_path / "pairs.jsonl"
        lines = (GOLDEN / "pairs_cr_plus.jsonl").read_text(encoding="utf-8").splitlines(True)
        header = json.loads(lines[0])
        header["_meta"]["input_digest"] = dataio.digest_file(candidates)
        pairs.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        candidates.write_bytes(FIXTURE.read_bytes())
        assert main([str(arg) for arg in _stats_argv(out, candidates, pairs)]) == 2
        assert capsys.readouterr().err == (
            f"error: --candidates changed while it was read: {candidates}\n"
        )
        assert not out.exists()


def _with_line_2(source: Path, dest: Path, corruption: str, blank_first: bool = False) -> str:
    lines = source.read_bytes().splitlines(keepends=True)
    if blank_first:
        lines.insert(0, b"\n")
    if corruption == "0xff":
        lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    else:
        lines[1] = b"[" * 100_000 + b"]" * 100_000 + b"\n"
    dest.write_bytes(b"".join(lines))
    return str(dest)


@pytest.mark.parametrize("corruption", ["0xff", "deep"])
@pytest.mark.parametrize(
    "target", ["select --in", "stats --pairs", "stats --candidates", "select --utility-matrix"]
)
def test_malformed_line_is_a_validation_error(tmp_path, target, corruption, capsys):
    bad = tmp_path / "bad.txt"
    out = str(tmp_path / "out.json")
    pairs, candidates = str(GOLDEN / "pairs_cr_plus.jsonl"), str(FIXTURE)
    if target == "select --in":
        argv = ["select", "--in", _with_line_2(FIXTURE, bad, corruption)]
        argv += ["--out", out, "--method", "cr_plus"]
    elif target == "select --utility-matrix":
        matrices = _with_line_2(GOLDEN / "utility_small.txt", bad, corruption, blank_first=True)
        argv = ["select", "--in", candidates, "--out", out, "--method", "mbr_bw"]
        argv += ["--utility-matrix", matrices]
    elif target == "stats --pairs":
        pairs = _with_line_2(GOLDEN / "pairs_cr_plus.jsonl", bad, corruption)
        argv = ["stats", "--pairs", pairs, "--candidates", candidates, "--out", out]
    else:
        candidates = _with_line_2(FIXTURE, bad, corruption)
        argv = ["stats", "--pairs", pairs, "--candidates", candidates, "--out", out]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.txt:2:" in err
    assert "internal error" not in err


def test_module_entry_point_prints_help():
    # Run from src/ so the package under test is found without installing it.
    proc = subprocess.run(
        [sys.executable, "-m", "crpo.cli", "--help"],
        cwd=HERE.parent / "src",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "select" in proc.stdout


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "instances, code", [("1", 0), ("0", 2)], ids=["exit-0", "exit-2"]
)
def test_main_runs_with_the_collector_off_and_restores_it(
    monkeypatch, collecting, instances, code
):
    import crpo.losses

    check = crpo.losses.gradient_check
    during = []

    def recorded(**kwargs):
        during.append(gc.isenabled())
        return check(**kwargs)

    monkeypatch.setattr(crpo.losses, "gradient_check", recorded)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["losses", "check-grad", "--instances", instances]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def _limit_address_space():
    # 1 GiB holds the interpreter and numpy, but not an array sized by an
    # unchecked flag: such an allocation fails here instead of exhausting the
    # machine.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv,flag",
    [
        (
            ["stats", "--pairs", str(GOLDEN / "pairs_cr_plus.jsonl"),
             "--candidates", str(FIXTURE), "--bins", "100000000"],
            "bins",
        ),
        (
            ["toy", "compare", "--methods", "cr_plus", "--seeds", "1",
             "--sources", "2", "--outputs", "100000000", "--k", "2"],
            "outputs",
        ),
        (
            ["select", "--in", str(FIXTURE), "--method", "rso",
             "--rso-samples", "1000000000000"],
            "rso_samples",
        ),
        (
            ["toy", "compare", "--methods", "cr_plus", "--seeds", "1000000000",
             "--sources", "2", "--outputs", "3", "--k", "2"],
            "1000000000 seeds x 2 sources x k=2",
        ),
        (
            ["toy", "compare", "--methods", "mbr_bw,rs_dpo", "--seeds", "1",
             "--sources", "1", "--outputs", "8", "--k", "100000"],
            "k <=",
        ),
        (
            ["toy", "compare", "--methods", "rs_dpo", "--seeds", "1",
             "--sources", "200", "--outputs", "64", "--k", "1000"],
            "training cells",
        ),
    ],
    ids=["stats --bins", "toy compare --outputs", "select --rso-samples", "toy compare --seeds",
         "toy compare --k", "toy compare rs_dpo pairs"],
)
def test_oversized_flag_is_rejected_before_allocating(tmp_path, argv, flag):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "crpo.cli", *argv, "--out", str(out)],
        cwd=HERE.parent / "src",
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert flag in proc.stderr
    assert not out.exists()


# The commands whose selectors compute on Python floats and load no numpy.
NUMPY_FREE_METHODS = (
    "cr_plus", "cr_times", "rs_dpo", "qe_best", "top_scores", "minmax_r", "minmax_p", "minmax_po"
)
NUMPY_FREE_GATES = ("log_space", "probability")
UTILITY_METHODS = ("mbr_bw", "mbr_bmw")


def _run_python(script, *args):
    # Run from src/ so the package under test is found without installing it.
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=HERE.parent / "src",
        capture_output=True,
        text=True,
        timeout=120,
    )


def _main_without_numpy(argvs):
    """Run ``crpo.cli.main`` on each argv in a fresh process where every
    import of numpy fails; every run must exit 0."""
    proc = _run_python(
        "import json, sys\n"
        "sys.modules['numpy'] = None  # every import of numpy now fails\n"
        "from crpo.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes), file=sys.stderr)\n",
        json.dumps([[str(arg) for arg in argv] for argv in argvs]),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [0] * len(argvs), proc.stderr


class TestStartupWithoutNumpy:
    def test_import_loads_no_numpy(self):
        proc = _run_python("import json, sys, crpo.cli; print(json.dumps(list(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert "crpo.selectors" in loaded
        assert not [name for name in loaded if name.split(".")[0] == "numpy"]

    def test_int_matrix_is_built_where_numpy_cannot_load(self):
        proc = _run_python(
            "import sys\n"
            "sys.modules['numpy'] = None  # every import of numpy now fails\n"
            "from crpo.scoring import UtilityMatrix\n"
            "print(UtilityMatrix(('a', 'b'), [[1, 2**60 + 1], [-3, True]]).rows)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{((1.0, float(2**60 + 1)), (-3.0, 1.0))}\n"

    def test_reward_and_confidence_selectors_run_where_numpy_cannot_load(self, tmp_path):
        runs = {f"{method}.jsonl": [method] for method in NUMPY_FREE_METHODS}
        for gate in NUMPY_FREE_GATES:
            runs[f"cr_plus_{gate}.jsonl"] = ["cr_plus", "--gate", gate]
        argvs = [
            ["select", "--in", FIXTURE, "--out", tmp_path / name, "--method", *args]
            for name, args in runs.items()
        ]
        _main_without_numpy(argvs)
        for method in NUMPY_FREE_METHODS:
            golden = GOLDEN / f"pairs_{method}.jsonl"
            assert (tmp_path / f"{method}.jsonl").read_bytes() == golden.read_bytes(), method
        for gate in NUMPY_FREE_GATES:
            with_numpy = tmp_path / f"with_numpy_{gate}.jsonl"
            assert run_select(with_numpy, "cr_plus", ["--gate", gate]) == 0
            blocked = tmp_path / f"cr_plus_{gate}.jsonl"
            assert blocked.read_bytes() == with_numpy.read_bytes(), gate

    def test_mbr_from_a_matrix_file_and_stats_run_where_numpy_cannot_load(self, tmp_path):
        utility = ["--utility-matrix", str(GOLDEN / "utility_small.txt")]
        argvs = [
            ["select", "--in", FIXTURE, "--out", tmp_path / f"{method}.jsonl", "--method", method,
             *utility]
            for method in UTILITY_METHODS
        ]
        argvs.append(
            ["stats", "--pairs", GOLDEN / "pairs_cr_plus.jsonl", "--candidates", FIXTURE,
             "--out", tmp_path / "stats.json", "--bins", "6", "--csv", tmp_path / "stats.csv"]
        )
        _main_without_numpy(argvs)
        for method in UTILITY_METHODS:
            with_numpy = tmp_path / f"with_numpy_{method}.jsonl"
            assert run_select(with_numpy, method, utility) == 0
            blocked = (tmp_path / f"{method}.jsonl").read_bytes()
            assert blocked == with_numpy.read_bytes(), method
        golden_bmw = (GOLDEN / "pairs_mbr_bmw.jsonl").read_bytes()
        assert (tmp_path / "mbr_bmw.jsonl").read_bytes() == golden_bmw
        for ext in ("json", "csv"):
            golden = (GOLDEN / f"stats_cr_plus.{ext}").read_bytes()
            assert (tmp_path / f"stats.{ext}").read_bytes() == golden, ext


def _write_pool(path: Path, source_id: str, ids) -> Path:
    records = [
        {"source_id": source_id, "source_text": "x", "direction": "en-de", "candidate_id": cid,
         "text": cid, "logprob": -1.0, "rewards": {"qe": 0.5}}
        for cid in ids
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


# Entries of row 0 of a K = 16 matrix on which ``math.fsum`` overflows: the
# row sum leaves the float range above or below, or a partial sum does
# (1e308 + 1e308) though the whole sum is finite.
OVERFLOWING_ROWS = {
    "above": {1: 1e308, 9: 1e308},
    "below": {1: -1e308, 9: -1e308},
    "partial": {1: 1e308, 2: 1e308, 9: -1e308, 10: -1e308},
}


def _big_pool(tmp_path, row0):
    """A K = 16 pool 's_big' with a matrix file of 0.5 off the diagonal,
    except row 0's entries in ``row0``; also returns row 0's off-diagonal
    entries."""
    ids = [f"c{j:02d}" for j in range(16)]
    candidates = _write_pool(tmp_path / "candidates.jsonl", "s_big", ids)
    values = [[1.0 if j == m else 0.5 for m in range(16)] for j in range(16)]
    for m, value in row0.items():
        values[0][m] = value
    matrices = tmp_path / "util.txt"
    save_utility_matrices([("s_big", UtilityMatrix(tuple(ids), values))], matrices)
    return candidates, matrices, values[0][1:]


@pytest.mark.parametrize("method", UTILITY_METHODS)
@pytest.mark.parametrize("row", list(OVERFLOWING_ROWS))
def test_overflowing_row_sum_ranks_with_its_exact_mean(tmp_path, method, row):
    # c00's expected utility is the exact mean of its row, finite: far above
    # the others' 0.5, far below, or 5.5 / 15 below.
    candidates, matrices, row0 = _big_pool(tmp_path, OVERFLOWING_ROWS[row])
    out = tmp_path / "pairs.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "crpo.cli", "select", "--in", str(candidates), "--out", str(out),
         "--method", method, "--utility-matrix", str(matrices)],
        cwd=HERE.parent / "src",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    pair = load_pairs(out).pairs[1 if method == "mbr_bmw" else 0]  # best versus worst
    want = float(sum(map(Fraction, row0)) / 15)
    if row == "above":
        assert (pair.chosen_id, pair.extras["mbr_chosen"]) == ("c00", want)
    else:
        assert (pair.rejected_id, pair.extras["mbr_rejected"]) == ("c00", want)


@pytest.mark.parametrize("method", UTILITY_METHODS)
def test_row_ranks_the_same_whichever_columns_hold_its_large_entries(tmp_path, method):
    # The same four entries of row 0: fsum overflows where the two 1e308 come
    # first, and not where each is followed by a -1e308.
    layouts = {
        "overflows": OVERFLOWING_ROWS["partial"],
        "cancels": {1: 1e308, 2: -1e308, 9: 1e308, 10: -1e308},
    }
    outputs = []
    for name, row0 in layouts.items():
        (tmp_path / name).mkdir()
        candidates, matrices, _ = _big_pool(tmp_path / name, row0)
        out = tmp_path / f"{name}.jsonl"
        assert main(["select", "--in", str(candidates), "--out", str(out), "--method", method,
                     "--utility-matrix", str(matrices)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_row_whose_partial_sums_stay_in_range_is_ranked(tmp_path):
    # +-1e308 cancel before the next 1e308 is added, so the row sums to 5.5.
    candidates, matrices, _ = _big_pool(tmp_path, {1: 1e308, 2: -1e308, 9: 1e308, 10: -1e308})
    out = tmp_path / "pairs.jsonl"
    assert main(["select", "--in", str(candidates), "--out", str(out), "--method", "mbr_bw",
                 "--utility-matrix", str(matrices)]) == 0
    (pair,) = load_pairs(out).pairs
    assert (pair.chosen_id, pair.rejected_id) == ("c01", "c00")
    assert pair.extras["mbr_rejected"] == 5.5 / 15


@pytest.mark.parametrize(
    "method, want",
    [("mbr_bw", [("a", "d")]), ("mbr_bmw", [("a", "b"), ("a", "d"), ("b", "d")])],
    ids=UTILITY_METHODS,
)
def test_equal_expected_utilities_rank_by_id(tmp_path, method, want):
    # a and b hold the same off-diagonal utilities in a different order, so
    # their expected utilities are equal and a, the smaller id, ranks first.
    candidates = _write_pool(tmp_path / "candidates.jsonl", "s", ["a", "b", "c", "d"])
    values = [
        [1.0, 0.7, 0.1, 0.6],
        [0.6, 1.0, 0.1, 0.7],
        [0.3, 0.6, 1.0, 0.05],
        [0.35, 0.05, 0.05, 1.0],
    ]
    matrices = tmp_path / "util.txt"
    save_utility_matrices([("s", UtilityMatrix(("a", "b", "c", "d"), values))], matrices)
    out = tmp_path / "pairs.jsonl"
    assert main(["select", "--in", str(candidates), "--out", str(out), "--method", method,
                 "--utility-matrix", str(matrices)]) == 0
    pairs = load_pairs(out).pairs
    assert [(p.chosen_id, p.rejected_id) for p in pairs] == want
    assert pairs[0].extras["mbr_chosen"] == 1.4 / 3


def test_overflowing_expected_utility_gap_is_rejected(tmp_path, capsys):
    # Both expected utilities are finite, their difference is not.
    candidates = _write_pool(tmp_path / "candidates.jsonl", "s", ["a", "b"])
    matrices = tmp_path / "util.txt"
    save_utility_matrices([("s", UtilityMatrix(("a", "b"), [[1.0, 1.7e308], [-1.7e308, 1.0]]))],
                          matrices)
    out = tmp_path / "pairs.jsonl"
    rc = main(["select", "--in", str(candidates), "--out", str(out), "--method", "mbr_bw",
               "--utility-matrix", str(matrices)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: source 's': expected-utility gap of candidate 'a' over 'b' overflows "
        "(1.7e+308 - -1.7e+308)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("method", UTILITY_METHODS)
def test_largest_expected_utility_gap_of_three_candidates_is_kept(tmp_path, method):
    # This matrix gives expected utilities +-M/2 and 0, so the largest gap is
    # M, the largest float, and every gap is kept.
    big = sys.float_info.max
    candidates = _write_pool(tmp_path / "candidates.jsonl", "s", ["a", "b", "c"])
    matrices = tmp_path / "util.txt"
    values = [[1.0, big, 0.0], [0.0, 1.0, 0.0], [0.0, -big, 1.0]]
    save_utility_matrices([("s", UtilityMatrix(("a", "b", "c"), values))], matrices)
    out = tmp_path / "pairs.jsonl"
    assert main(["select", "--in", str(candidates), "--out", str(out), "--method", method,
                 "--utility-matrix", str(matrices)]) == 0
    pairs = {(p.chosen_id, p.rejected_id): p.score for p in load_pairs(out).pairs}
    assert pairs[("a", "c")] == big
    if method == "mbr_bmw":
        assert pairs == {("a", "b"): big / 2, ("a", "c"): big, ("b", "c"): big / 2}


@pytest.mark.parametrize("method", UTILITY_METHODS)
@pytest.mark.parametrize("reverse", [False, True], ids=["id_order", "reversed"])
def test_overflowing_expected_utility_gap_of_three_candidates_is_rejected(
    tmp_path, capsys, method, reverse
):
    # Expected utilities +M, 0 and -M are finite at any K, their gap is not.
    big = sys.float_info.max
    candidates = _write_pool(tmp_path / "candidates.jsonl", "s", ["a", "b", "c"])
    ids, values = ["a", "b", "c"], [[1.0, big, big], [0.0, 1.0, 0.0], [-big, -big, 1.0]]
    if reverse:
        ids, values = ids[::-1], [row[::-1] for row in values[::-1]]
    matrices = tmp_path / "util.txt"
    save_utility_matrices([("s", UtilityMatrix(ids, values))], matrices)
    out = tmp_path / "pairs.jsonl"
    rc = main(["select", "--in", str(candidates), "--out", str(out), "--method", method,
               "--utility-matrix", str(matrices)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: source 's': expected-utility gap of candidate 'a' over 'c' overflows "
        f"({big!r} - {-big!r})"
    ]
    assert not out.exists()

def _crpo_process(*argv, prefix=("-m", "crpo.cli"), unbuffered=False, **kwargs):
    """Run ``python <prefix> <argv>`` from src/ with stdout and stderr
    block-buffered, or unbuffered as under PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("timeout", 120)
    return subprocess.run(
        [sys.executable, *prefix, *map(str, argv)],
        cwd=HERE.parent / "src",
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def _select_argv(out, candidates=FIXTURE):
    return ["select", "--in", candidates, "--out", out, "--method", "cr_plus"]


class _FullStdout(io.StringIO):
    """A block-buffered stdout on a full disk: writes are kept, flushes fail."""

    def flush(self):
        raise OSError(28, "No space left on device")


def test_failed_stdout_flush_is_reported_as_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(list(map(str, _select_argv(tmp_path / "p.jsonl")))) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_missing_stdout_drops_the_summary(tmp_path, monkeypatch):
    # A process started without fd 1 has no sys.stdout; print writes nothing.
    out = tmp_path / "p.jsonl"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(list(map(str, _select_argv(out)))) == 0
    assert out.read_bytes() == (GOLDEN / "pairs_cr_plus.jsonl").read_bytes()


# The entry that always exits the normal way: main's exit code through sys.exit.
SYS_EXIT_ENTRY = ("-c", "import sys\nfrom crpo.cli import main\nsys.exit(main())")
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


class TestProcessEntry:
    @BUFFERING
    def test_summary_reaches_a_pipe(self, tmp_path, unbuffered):
        out = tmp_path / "pairs.jsonl"
        proc = _crpo_process(*_select_argv(out), unbuffered=unbuffered)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote 3 pairs, 0 sft targets (0 of 3 sources skipped) -> {out}\n"
        assert proc.stderr == ""
        assert out.read_bytes() == (GOLDEN / "pairs_cr_plus.jsonl").read_bytes()

    @BUFFERING
    def test_malformed_record_names_the_line(self, tmp_path, unbuffered):
        bad = _with_line_2(FIXTURE, tmp_path / "bad.jsonl", "0xff")
        out = tmp_path / "pairs.jsonl"
        proc = _crpo_process(*_select_argv(out, bad), unbuffered=unbuffered)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {bad}:2: not valid UTF-8\n"
        assert proc.stdout == ""
        assert not out.exists()

    @BUFFERING
    @pytest.mark.parametrize("sink", ["full disk", "closed pipe"])
    def test_failed_stdout_keeps_the_status_and_message(self, tmp_path, unbuffered, sink):
        if sink == "full disk" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        procs = []
        for prefix in (("-m", "crpo.cli"), SYS_EXIT_ENTRY):
            if sink == "full disk":
                with open("/dev/full", "w") as stdout:
                    procs.append(_crpo_process(*_select_argv(tmp_path / "p.jsonl"),
                                               prefix=prefix, unbuffered=unbuffered,
                                               stdout=stdout))
            else:
                read_end, write_end = os.pipe()
                os.close(read_end)
                try:
                    procs.append(_crpo_process(*_select_argv(tmp_path / "p.jsonl"),
                                               prefix=prefix, unbuffered=unbuffered,
                                               stdout=write_end))
                finally:
                    os.close(write_end)
        entry, sys_exit = procs
        errno = "[Errno 28] No space left on device" if sink == "full disk" else "[Errno 32] "
        # Unbuffered, main's print fails; buffered, main's flush of stdout
        # does.  Either way main reports it, and run ends the process with
        # main's status without flushing stdout again at teardown.
        assert entry.returncode == 2
        assert entry.stderr.startswith(f"error: {errno}")
        assert entry.stderr.count("\n") == 1
        # sys.exit(main()) reports the same error; buffered, the interpreter's
        # last flush of stdout fails once more and it reports that with
        # status 120.
        assert sys_exit.stderr.startswith(entry.stderr)
        assert sys_exit.returncode == (2 if unbuffered else 120)
        for proc in procs:
            assert "Traceback" not in proc.stderr
        assert (tmp_path / "p.jsonl").read_bytes() == (GOLDEN / "pairs_cr_plus.jsonl").read_bytes()

    def test_profile_is_written_under_cprofile(self, tmp_path):
        import pstats

        out, profile = tmp_path / "pairs.jsonl", tmp_path / "prof.out"
        proc = _crpo_process(*_select_argv(out), prefix=("-m", "cProfile", "-o", profile,
                                                         "-m", "crpo.cli"))
        assert proc.returncode == 0, proc.stderr
        assert profile.stat().st_size > 0
        profiled = {(Path(file).name, name) for file, _, name in pstats.Stats(str(profile)).stats}
        assert ("cli.py", "main") in profiled
        assert out.read_bytes() == (GOLDEN / "pairs_cr_plus.jsonl").read_bytes()

    def test_counts_are_written_under_trace(self, tmp_path):
        out, coverdir = tmp_path / "pairs.jsonl", tmp_path / "cover"
        proc = _crpo_process(*_select_argv(out), prefix=("-m", "trace", "--count", "--coverdir",
                                                         coverdir, "--module", "crpo.cli"))
        assert proc.returncode == 0, proc.stderr
        assert (coverdir / "crpo.cli.cover").stat().st_size > 0
        assert out.read_bytes() == (GOLDEN / "pairs_cr_plus.jsonl").read_bytes()


def _stats_argv(out, candidates=FIXTURE, pairs=GOLDEN / "pairs_cr_plus.jsonl"):
    return ["stats", "--pairs", pairs, "--candidates", candidates, "--out", out, "--bins", "6"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestDigestedInputIsARegularFile:
    """``select`` digests ``--in``, and ``stats`` digests ``--candidates`` when
    the pair file records an input digest, by opening the path a second time.
    A pipe or a FIFO there exits 2 before it is read; a link to a regular
    file, such as ``/dev/stdin`` redirected from one, reads as that file."""

    @pytest.mark.parametrize("flag", ["--in", "--candidates"])
    def test_pipe_exits_2_naming_the_flag(self, tmp_path, flag):
        out = tmp_path / "out"
        argv = (_select_argv if flag == "--in" else _stats_argv)(out, "/dev/stdin")
        proc = _crpo_process(*argv, input=FIXTURE.read_text(encoding="utf-8"))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {flag} must name a regular file, since its digest reads it again: "
            "/dev/stdin\n"
        )
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, golden",
        [(_select_argv, "pairs_cr_plus.jsonl"), (_stats_argv, "stats_cr_plus.json")],
        ids=["select", "stats"],
    )
    def test_stdin_redirected_from_a_file_matches_the_golden(self, tmp_path, argv, golden):
        out = tmp_path / "out"
        with open(FIXTURE, "rb") as stdin:
            proc = _crpo_process(*argv(out, "/dev/stdin"), stdin=stdin)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_stats_reads_a_pipe_when_the_pair_file_records_no_digest(self, tmp_path):
        lines = (GOLDEN / "pairs_cr_plus.jsonl").read_text(encoding="utf-8").splitlines(True)
        header = json.loads(lines[0])
        del header["_meta"]["input_digest"]
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        out = tmp_path / "stats.json"
        proc = _crpo_process(*_stats_argv(out, "/dev/stdin", pairs),
                             input=FIXTURE.read_text(encoding="utf-8"))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / "stats_cr_plus.json").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_exits_2_without_being_opened(self, tmp_path):
        # Nothing writes to the FIFO: a command that opened it would block
        # until the timeout, which kills it.
        fifo, out = tmp_path / "fifo", tmp_path / "out"
        os.mkfifo(fifo)
        proc = _crpo_process(*_select_argv(out, fifo), timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: --in must name a regular file, since its digest reads it again: {fifo}\n"
        )
        assert not out.exists()
