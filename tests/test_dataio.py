"""File formats: candidate/pair JSONL, stats reports, utility-matrix blocks."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crpo.core import (
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    ValidationError,
)
from crpo.dataio import (
    MAX_BINS,
    digest_file,
    emit_pairs,
    emit_stats,
    ingest_candidates,
    load_pairs,
    load_utility_matrices,
    parse_direction,
    save_stats,
    save_stats_csv,
    save_utility_matrices,
)
from crpo.scoring import UtilityMatrix

import oracles
from conftest import make_set
from oracles import emit_candidates, format_direction

FIXTURE = Path(__file__).parent / "fixtures" / "candidates_small.jsonl"
PAIR_RECORD = {
    "source_id": "s1",
    "chosen_id": "A",
    "rejected_id": "B",
    "method": "cr_plus",
    "score": 1.0,
}


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def candidate_record(
    source_id="s1",
    source_text="src",
    direction="en-de",
    candidate_id="A",
    text="hypothesis",
    logprob=-4.0,
    rewards=None,
    **extra,
):
    record = {
        "source_id": source_id,
        "source_text": source_text,
        "direction": direction,
        "candidate_id": candidate_id,
        "text": text,
        "logprob": logprob,
        "rewards": rewards if rewards is not None else {"qe": 0.5},
    }
    record.update(extra)
    return json.dumps(record)


class TestDirectionTags:
    def test_round_trip(self):
        assert parse_direction("en-de") == ("en", "de")
        assert format_direction(("de", "en")) == "de-en"

    @pytest.mark.parametrize("bad", ["ende", "en-", "-de", "en-de-fr", ""])
    def test_invalid_tags(self, bad):
        with pytest.raises(ValidationError, match="direction tag"):
            parse_direction(bad)


def test_digest_file_is_sha256(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"hello world\n")
    assert digest_file(path) == hashlib.sha256(b"hello world\n").hexdigest()


@pytest.mark.parametrize(
    "size", [0, 12, (1 << 20) - 1, 1 << 20, 3 * (1 << 20) + 17],
    ids=["empty", "small", "chunk-1", "chunk", "several-chunks"],
)
def test_digest_file_reads_in_chunks(tmp_path, size):
    """The chunked digest equals sha256 of the whole file, below, at and
    above the 1 MiB read size."""
    path = tmp_path / "blob.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert digest_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestIngestCandidates:
    def test_grouping_and_values(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(
            path,
            [
                json.dumps({"_meta": {"ref_policy": "toy-ref"}}),
                candidate_record(candidate_id="A", logprob=-1.5, rewards={"qe": 0.9}),
                candidate_record(candidate_id="B", logprob=-2.5, rewards={"qe": 0.1}),
            ],
        )
        sets = ingest_candidates(path)
        assert len(sets) == 1
        cset = sets[0]
        assert cset.source_id == "s1"
        assert cset.direction == ("en", "de")
        assert [c.id for c in cset.candidates] == ["A", "B"]
        assert cset.candidate("A").logprob == -1.5
        assert cset.candidate("B").reward_agg == pytest.approx(0.1)

    def test_non_contiguous_sources_group_in_source_id_order(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(
            path,
            [
                candidate_record(source_id="s2", candidate_id="A"),
                candidate_record(source_id="s1", source_text="other", candidate_id="A"),
                candidate_record(source_id="s2", candidate_id="B"),
            ],
        )
        sets = ingest_candidates(path)
        assert [s.source_id for s in sets] == ["s1", "s2"]
        assert [c.id for c in sets[1].candidates] == ["A", "B"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text(
            candidate_record(candidate_id="A")
            + "\n\n"
            + candidate_record(candidate_id="B")
            + "\n",
            encoding="utf-8",
        )
        assert len(ingest_candidates(path)[0].candidates) == 2

    def test_token_count_passthrough(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(token_count=12)])
        assert ingest_candidates(path)[0].candidates[0].token_count == 12

    @pytest.mark.parametrize(
        "extra", [{"note": "unread"}, {"Logprob": True}], ids=["string", "boolean"]
    )
    def test_unknown_key_loads_as_the_record_without_it(self, tmp_path, extra):
        path, bare = tmp_path / "cands.jsonl", tmp_path / "bare.jsonl"
        write_lines(path, [candidate_record(**extra)])
        write_lines(bare, [candidate_record()])
        assert ingest_candidates(path) == ingest_candidates(bare)

    def test_boolean_token_count_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(
            path, [candidate_record(), candidate_record(candidate_id="B", token_count=True)]
        )
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: .*token_count"):
            ingest_candidates(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), "{not json"])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: invalid JSON"):
            ingest_candidates(path)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        second = candidate_record(candidate_id="B").encode().replace(b"hypo", b"hy\xffpo")
        path.write_bytes(candidate_record().encode() + b"\n" + second + b"\n")
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: not valid UTF-8"):
            ingest_candidates(path)

    def test_bad_byte_after_characters_across_8_kib_reports_its_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"

        def line(n: int, text: str) -> bytes:
            record = json.loads(candidate_record(candidate_id=f"c{n:02}", text=text))
            return json.dumps(record, ensure_ascii=False).encode() + b"\n"

        # A first text of 18 KiB of three-byte characters, padded until one of
        # them straddles byte 8192.
        for pad in ("", "x", "xx"):
            lines = [line(0, pad + "大小" * 3072)]
            lines += [line(n, "Größe 大小 " * 40) for n in range(1, 30)]
            if b"".join(lines)[8192] & 0xC0 == 0x80:
                break
        else:
            pytest.fail("no padding puts a character across byte 8192")
        path.write_bytes(b"".join(lines))
        assert len(ingest_candidates(path)[0].candidates) == 30
        lines[24] = lines[24].replace("大".encode(), b"\xff", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValidationError, match=r"cands\.jsonl:25: not valid UTF-8") as err:
            ingest_candidates(path)
        with pytest.raises(ValidationError) as oracle_err:
            oracles.ingest_candidates(path)
        assert str(err.value) == str(oracle_err.value)

    def test_lone_cr_is_whitespace_not_a_line_break(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        first = candidate_record().replace(', "text"', ',\r"text"')
        write_lines(path, [first, candidate_record(candidate_id="B"), "{not json"])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:3: invalid JSON"):
            ingest_candidates(path)
        write_lines(path, [first, candidate_record(candidate_id="B")])
        assert [c.id for c in ingest_candidates(path)[0].candidates] == ["A", "B"]

    def test_deeply_nested_line_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), "[" * 100_000 + "]" * 100_000])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: invalid JSON"):
            ingest_candidates(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("logprob", -(10**400), "logprob must be finite"),
            ("rewards", {"qe": 10**400}, "reward out of range"),
            ("token_count", 10**400, "token_count must be a positive integer"),
            ("source_id", "", "source_id must be a non-empty string"),
        ],
        ids=["logprob", "rewards", "token_count", "empty source_id"],
    )
    def test_ints_beyond_the_float_range_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(**{field: value})])
        with pytest.raises(ValidationError, match=rf"cands\.jsonl:1: .*{message}"):
            ingest_candidates(path)

    def test_int_with_too_many_digits_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), '{"logprob": -' + "9" * 5000 + "}"])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: invalid JSON"):
            ingest_candidates(path)

    def test_stray_meta_key_in_a_record_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[4])
        record["_meta"] = {}
        lines[4] = json.dumps(record)
        write_lines(path, lines)
        with pytest.raises(ValidationError, match=r"cands\.jsonl:5: a _meta header must be"):
            ingest_candidates(path)

    def test_meta_in_a_first_record_with_fields_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(_meta={}), candidate_record(candidate_id="B")])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:1: a _meta header must be"):
            ingest_candidates(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, ["[1, 2, 3]"])
        with pytest.raises(ValidationError, match=r":1: record must be a JSON object"):
            ingest_candidates(path)

    def test_missing_logprob_names_the_requirement(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        record = json.loads(candidate_record())
        del record["logprob"]
        write_lines(path, [json.dumps(record)])
        with pytest.raises(
            ValidationError,
            match=r":1: missing logprob \(CR scores require reference-policy likelihoods\)",
        ):
            ingest_candidates(path)

    def test_null_logprob_is_missing_too(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(logprob=None)])
        with pytest.raises(ValidationError, match="missing logprob"):
            ingest_candidates(path)

    def test_missing_field_reports_name_and_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        record = json.loads(candidate_record())
        del record["rewards"]
        write_lines(path, [candidate_record(), json.dumps(record)])
        with pytest.raises(ValidationError, match=r":2: missing field 'rewards'"):
            ingest_candidates(path)

    def test_bad_reward_wrapped_with_location(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(rewards={"qe": 1.5})])
        with pytest.raises(ValidationError, match=r":1: .*reward out of range"):
            ingest_candidates(path)

    def test_non_string_ids_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        record = json.loads(candidate_record())
        record["candidate_id"] = 5
        write_lines(path, [json.dumps(record)])
        with pytest.raises(ValidationError, match="ids must be strings"):
            ingest_candidates(path)

    def test_duplicate_candidate_id_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), candidate_record()])
        with pytest.raises(ValidationError, match=r":2: duplicate candidate id 'A'"):
            ingest_candidates(path)

    def test_bad_direction_in_a_later_record_reports_the_tag(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), candidate_record(candidate_id="B", direction="ende")])
        with pytest.raises(ValidationError, match=r":2: invalid direction tag 'ende'"):
            ingest_candidates(path)

    def test_bad_candidate_reported_before_a_direction_mismatch(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(
            path,
            [candidate_record(), candidate_record(candidate_id="B", direction="de-en", logprob=1.0)],
        )
        with pytest.raises(ValidationError, match=r":2: candidate 'B': logprob must be finite"):
            ingest_candidates(path)

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
    def test_trailing_non_json_whitespace_is_extra_data(self, tmp_path, space):
        path = tmp_path / "cands.jsonl"
        write_lines(path, [candidate_record(), candidate_record(candidate_id="B") + space])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: invalid JSON: Extra data"):
            ingest_candidates(path)

    def test_leading_spaces_and_crlf_line_ends_load(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        records = [candidate_record(), " \t" + candidate_record(candidate_id="B") + " \t"]
        path.write_bytes("".join(line + "\r\n" for line in records).encode())
        assert [c.id for c in ingest_candidates(path)[0].candidates] == ["A", "B"]

    def test_byte_order_mark_reports_line(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(path, ["\ufeff" + candidate_record()])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:1: invalid JSON: Unexpected UTF-8 BOM"):
            ingest_candidates(path)

    def test_inconsistent_source_metadata_rejected(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        write_lines(
            path,
            [
                candidate_record(candidate_id="A"),
                candidate_record(candidate_id="B", source_text="different"),
            ],
        )
        with pytest.raises(ValidationError, match="inconsistent"):
            ingest_candidates(path)


class TestCollectorState:
    """The readers pause the cyclic garbage collector while they build their
    records and leave it as they found it, also when a record is bad."""

    @pytest.fixture(params=["candidates", "pairs"])
    def read(self, request, tmp_path):
        good = tmp_path / "good.jsonl"
        if request.param == "candidates":
            write_lines(good, [candidate_record(), candidate_record(candidate_id="B")])
            bad = [candidate_record(), "{not json", candidate_record(candidate_id="B")]
            reader = ingest_candidates
        else:
            write_lines(good, [json.dumps(PAIR_RECORD)])
            bad = [json.dumps(PAIR_RECORD), json.dumps({**PAIR_RECORD, "score": "x"})]
            reader = load_pairs
        write_lines(tmp_path / "bad.jsonl", bad)
        return reader

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def enabled(self, request):
        """The collector's state for the test, restored afterwards."""
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_state_kept_after_a_read(self, tmp_path, read, enabled):
        read(tmp_path / "good.jsonl")
        assert gc.isenabled() is enabled

    def test_state_kept_after_a_bad_record(self, tmp_path, read, enabled):
        with pytest.raises(ValidationError, match=r"bad\.jsonl:2: "):
            read(tmp_path / "bad.jsonl")
        assert gc.isenabled() is enabled


class TestEmitIngestRoundTrip:
    def sample_sets(self):
        return [
            CandidateSet(
                source_id="s1",
                source_text="ein Satz",
                direction=("de", "en"),
                candidates=(
                    Candidate(
                        id="A",
                        text="a sentence",
                        logprob=-0.12345678901234567,
                        rewards={"qe": 0.9123456789012345, "mqm": 0.5},
                        token_count=3,
                    ),
                    Candidate(id="B", text="one phrase", logprob=-7.25, rewards={"qe": 0.25, "mqm": 0.75}),
                ),
            ),
            make_set([("X", 0.5, -3.0), ("Y", 0.25, -9.5)], source_id="s2"),
        ]

    def test_structural_round_trip(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        sets = self.sample_sets()
        emit_candidates(sets, path)
        assert ingest_candidates(path) == sets

    def test_emission_is_byte_deterministic(self, tmp_path):
        sets = self.sample_sets()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_candidates(sets, a)
        emit_candidates(ingest_candidates(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "cands.jsonl"
        lp = -0.1234567890123456789
        emit_candidates([make_set([("A", 1 / 3, lp), ("B", 0.1, -2.0)])], path)
        back = ingest_candidates(path)[0]
        assert back.candidate("A").logprob == lp
        assert back.candidate("A").rewards["qe"] == 1 / 3

    @pytest.mark.parametrize("load", [ingest_candidates, load_pairs])
    def test_malformed_header_reports_its_line(self, tmp_path, load):
        path = tmp_path / "cands.jsonl"
        write_lines(path, ["", json.dumps({"_meta": [1]}), candidate_record()])
        with pytest.raises(ValidationError, match=r"cands\.jsonl:2: _meta must be a JSON object"):
            load(path)

    def test_pair_file_without_header_has_empty_provenance(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [json.dumps(PAIR_RECORD)])
        assert load_pairs(path).provenance == {}


class TestPairFiles:
    def sample_dataset(self):
        pairs = (
            PreferencePair(
                source_id="s1",
                chosen_id="A",
                rejected_id="B",
                score=50.000000000000014,
                method="cr_plus",
                extras={"reward_gap": 0.4, "confidence_gap": 30.0},
            ),
            PreferencePair(
                source_id="s2",
                chosen_id="X",
                rejected_id="Y",
                score=0.25,
                method="cr_plus",
            ),
        )
        provenance = {"config": {"method": "cr_plus", "seed": 0}, "n_sources": 2}
        return PreferenceDataset(
            pairs=pairs, sft_targets=(("s3", "Q"),), provenance=provenance
        )

    def test_header_always_written(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        emit_pairs(PreferenceDataset(pairs=()), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"_meta": {}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        dataset = self.sample_dataset()
        emit_pairs(dataset, path)
        back = load_pairs(path)
        assert back.pairs == dataset.pairs
        assert back.sft_targets == dataset.sft_targets
        assert back.provenance == dataset.provenance

    def test_emission_byte_deterministic(self, tmp_path):
        dataset = self.sample_dataset()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_pairs(dataset, a)
        emit_pairs(load_pairs(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_sft_records_tagged_with_method(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        emit_pairs(self.sample_dataset(), path)
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        sft = [r for r in records if "sft_target" in r]
        assert sft == [{"source_id": "s3", "sft_target": "Q", "method": "qe_best"}]

    def test_load_rejects_degenerate_pair_with_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(
            path,
            [
                json.dumps({"_meta": {}}),
                json.dumps(
                    {
                        "source_id": "s1",
                        "chosen_id": "A",
                        "rejected_id": "A",
                        "method": "cr_plus",
                        "score": 1.0,
                    }
                ),
            ],
        )
        with pytest.raises(ValidationError, match=r"pairs\.jsonl:2"):
            load_pairs(path)

    def test_second_meta_header_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        emit_pairs(self.sample_dataset(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"_meta": {"input_digest": "0" * 64}}) + "\n")
        with pytest.raises(ValidationError, match=r"pairs\.jsonl:5: a _meta header must be"):
            load_pairs(path)

    @pytest.mark.parametrize(
        "record,message",
        [
            (PAIR_RECORD | {"chosen_id": ["x"]}, "ids must be strings"),
            (PAIR_RECORD | {"source_id": ["x"]}, "ids must be strings"),
            (PAIR_RECORD | {"rejected_id": 5}, "ids must be strings"),
            (PAIR_RECORD | {"method": 5}, "method must be a string"),
            (PAIR_RECORD | {"score": 10**400}, "source 's1': non-finite pair score"),
            ({"source_id": "s1", "sft_target": ["a"]}, "ids must be strings"),
            ({"source_id": {"a": 1}, "sft_target": "A"}, "ids must be strings"),
            ({"sft_target": "A"}, "missing field 'source_id'"),
        ],
    )
    def test_load_checks_field_types(self, tmp_path, record, message):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [json.dumps({"_meta": {}}), json.dumps(record)])
        with pytest.raises(ValidationError, match=rf"pairs\.jsonl:2: {message}"):
            load_pairs(path)

    def test_null_extras_read_as_absent(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [json.dumps(PAIR_RECORD | {"extras": None})])
        assert load_pairs(path).pairs[0].extras == {}

    def test_load_rejects_bad_extras(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "source_id": "s1",
                        "chosen_id": "A",
                        "rejected_id": "B",
                        "method": "cr_plus",
                        "score": 1.0,
                        "extras": [1, 2],
                    }
                ),
            ],
        )
        with pytest.raises(ValidationError, match="extras must be an object"):
            load_pairs(path)


class TestStats:
    def fixtures(self):
        sets = [make_set([("A", 0.9, -40.0), ("B", 0.5, -10.0), ("C", 0.2, -60.0)])]
        pairs = (
            PreferencePair(
                source_id="s1", chosen_id="A", rejected_id="B", score=50.0, method="cr_plus"
            ),
            PreferencePair(
                source_id="s1", chosen_id="A", rejected_id="C", score=0.7, method="minmax_r"
            ),
        )
        dataset = PreferenceDataset(pairs=pairs, sft_targets=(("s1", "A"),))
        return dataset, sets

    def test_report_contents(self):
        dataset, sets = self.fixtures()
        report = emit_stats(dataset, sets, bins=4)
        assert report["bins"] == 4
        assert report["n_pairs"] == 2
        assert report["n_sft_targets"] == 1
        assert report["reward_edges"][0] == 0.0 and report["reward_edges"][-1] == 1.0
        assert report["logprob_edges"][0] == -60.0 and report["logprob_edges"][-1] == -10.0
        assert set(report["methods"]) == {"cr_plus", "minmax_r"}
        cr = report["methods"]["cr_plus"]
        assert cr["n_pairs"] == 1
        assert cr["chosen_reward_mean"] == pytest.approx(0.9)
        assert cr["rejected_logprob_mean"] == pytest.approx(-10.0)
        assert cr["scatter"] == [[pytest.approx(0.4), pytest.approx(-30.0)]]
        mm = report["methods"]["minmax_r"]
        assert mm["scatter"] == [[pytest.approx(0.7), pytest.approx(20.0)]]
        assert sum(cr["chosen_reward_hist"]) == 1
        assert len(cr["chosen_reward_hist"]) == 4

    def test_histograms_share_edges_across_methods(self):
        dataset, sets = self.fixtures()
        report = emit_stats(dataset, sets, bins=10)
        for stats in report["methods"].values():
            for series in ("chosen_reward", "rejected_reward"):
                assert len(stats[f"{series}_hist"]) == 10

    def test_validates_pairs_against_sets(self):
        dataset, sets = self.fixtures()
        stray = PreferenceDataset(
            pairs=(
                PreferencePair(
                    source_id="nope", chosen_id="A", rejected_id="B", score=1.0, method="x"
                ),
            )
        )
        with pytest.raises(ValidationError, match="unknown source"):
            emit_stats(stray, sets)

    def test_bins_validated(self):
        dataset, sets = self.fixtures()
        for bins in (0, True, 2.5, "3"):
            with pytest.raises(ValidationError, match="bins"):
                emit_stats(dataset, sets, bins=bins)

    def test_no_candidates_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="no candidates"):
            emit_stats(PreferenceDataset(pairs=()), [])

    def test_degenerate_logprob_range_widens(self):
        sets = [make_set([("A", 0.9, -5.0), ("B", 0.1, -5.0)])]
        dataset = PreferenceDataset(
            pairs=(
                PreferencePair(
                    source_id="s1", chosen_id="A", rejected_id="B", score=0.8, method="minmax_r"
                ),
            )
        )
        report = emit_stats(dataset, sets, bins=2)
        assert report["logprob_edges"][0] == -5.5
        assert report["logprob_edges"][-1] == -4.5

    @pytest.mark.parametrize("logprob", [-1e300, -(2.0**53), -1e15, -sys.float_info.max])
    @pytest.mark.parametrize("bins", [1, 20, MAX_BINS])
    def test_degenerate_range_of_a_huge_logprob_has_increasing_edges(self, logprob, bins):
        # A unit is below the ulp of these values, so a range of lo - 0.5 to
        # hi + 0.5 would have equal edges and put every count in the last bin.
        sets = [make_set([("A", 0.9, logprob), ("B", 0.1, logprob)])]
        dataset = PreferenceDataset(
            pairs=(
                PreferencePair(
                    source_id="s1", chosen_id="A", rejected_id="B", score=0.8, method="minmax_r"
                ),
            )
        )
        report = emit_stats(dataset, sets, bins=bins)
        edges = report["logprob_edges"]
        assert len(edges) == bins + 1
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert all(math.isfinite(edge) for edge in edges)
        stats = report["methods"]["minmax_r"]
        for series in ("chosen_logprob_hist", "rejected_logprob_hist"):
            (held,) = [i for i, count in enumerate(stats[series]) if count]
            assert stats[series][held] == 1
            assert edges[held] <= logprob <= edges[held + 1]

    @pytest.mark.parametrize("bins", [1, 5, 20])
    def test_a_subnormal_logprob_range_has_edges_that_never_fall_back(self, bins):
        # Over three subnormal ulps, a step of 3/5 ulp rounds up to 1 ulp, so
        # with 5 bins the edge before hi would lie one ulp above it.
        sets = [make_set([("A", 0.9, 0.0), ("B", 0.1, -1.5e-323)])]
        dataset = PreferenceDataset(
            pairs=(
                PreferencePair(
                    source_id="s1", chosen_id="A", rejected_id="B", score=0.8, method="minmax_r"
                ),
            )
        )
        report = emit_stats(dataset, sets, bins=bins)
        edges = report["logprob_edges"]
        assert len(edges) == bins + 1
        assert all(a <= b for a, b in zip(edges, edges[1:]))
        stats = report["methods"]["minmax_r"]
        for series, logprob in (("chosen_logprob_hist", 0.0), ("rejected_logprob_hist", -1.5e-323)):
            (held,) = [i for i, count in enumerate(stats[series]) if count]
            assert edges[held] <= logprob <= edges[held + 1]

    def test_means_are_finite_and_exact_when_the_sum_fits(self):
        # Log-likelihoods reach -1.8e308, so a plain sum of two can overflow.
        rng = np.random.default_rng(21)
        for trial in range(300):
            k = int(rng.integers(2, 9))
            magnitude = 1e308 if trial % 2 else 100.0
            logprobs = -rng.uniform(0.0, 1.79, size=k) * magnitude
            cset = make_set([(f"c{j}", j / k, float(lp)) for j, lp in enumerate(logprobs)])
            pairs = tuple(
                PreferencePair(
                    source_id="s1", chosen_id=f"c{k - 1}", rejected_id=f"c{j}",
                    score=0.1, method="minmax_r",
                )
                for j in range(k - 1)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stats = emit_stats(PreferenceDataset(pairs=pairs), [cset])["methods"]["minmax_r"]
            rejected = [float(lp) for lp in logprobs[: k - 1]]
            total = sum(map(Fraction, rejected))
            mean = stats["rejected_logprob_mean"]
            assert math.isfinite(mean)
            assert mean == pytest.approx(float(total / len(rejected)), rel=1e-15)
            # The values share a sign, so the sum overflows only where its
            # rounded value does not fit; elsewhere the mean is that / count.
            if abs(total) <= sys.float_info.max:
                assert mean == float(total) / len(rejected)
            assert stats["chosen_logprob_mean"] == pytest.approx(logprobs[k - 1], rel=1e-15)

    def test_save_stats_json_round_trip(self, tmp_path):
        dataset, sets = self.fixtures()
        report = emit_stats(dataset, sets, bins=4)
        path = tmp_path / "stats.json"
        save_stats(report, path)
        assert json.loads(path.read_text(encoding="utf-8")) == report
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_save_stats_csv_layout(self, tmp_path):
        dataset, sets = self.fixtures()
        report = emit_stats(dataset, sets, bins=4)
        path = tmp_path / "stats.csv"
        save_stats_csv(report, path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "series", "bin_lo", "bin_hi", "count"]
        # 2 methods x 4 series x 4 bins
        assert len(rows) == 1 + 2 * 4 * 4
        total = sum(int(r[4]) for r in rows[1:] if r[1] == "chosen_reward")
        assert total == report["n_pairs"]


class TestUtilityMatrixFiles:
    def sample_entries(self):
        a = UtilityMatrix(
            ids=("A", "B"),
            values=np.array([[1.0, 0.6601764142221674], [0.8859854884450613, 1.0]]),
        )
        b = UtilityMatrix(ids=("X", "Y"), values=np.array([[1.0, 1 / 3], [2 / 3, 1.0]]))
        return [("s1", a), ("s2", b)]

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "util.txt"
        entries = self.sample_entries()
        save_utility_matrices(entries, path)
        back = load_utility_matrices(path)
        assert set(back) == {"s1", "s2"}
        for source_id, matrix in entries:
            assert back[source_id].ids == matrix.ids
            np.testing.assert_array_equal(back[source_id].values, matrix.values)

    def test_ids_with_unicode_line_breaks_round_trip(self, tmp_path):
        path = tmp_path / "util.txt"
        entries = [("s\u2028", UtilityMatrix(ids=("A\x85", "B"), values=np.eye(2)))]
        save_utility_matrices(entries, path)
        back = load_utility_matrices(path)
        assert list(back) == ["s\u2028"]
        assert back["s\u2028"].ids == ("A\x85", "B")

    def test_block_layout(self, tmp_path):
        path = tmp_path / "util.txt"
        save_utility_matrices(self.sample_entries(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"source_id": "s1", "ids": ["A", "B"]}
        assert lines[1].split() == ["1.0", "0.6601764142221674"]
        assert json.loads(lines[3]) == {"source_id": "s2", "ids": ["X", "Y"]}

    def test_truncated_block_rejected(self, tmp_path):
        path = tmp_path / "util.txt"
        path.write_text(
            json.dumps({"source_id": "s1", "ids": ["A", "B"]}) + "\n1.0 0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="is truncated"):
            load_utility_matrices(path)

    def test_wrong_row_width_rejected(self, tmp_path):
        path = tmp_path / "util.txt"
        path.write_text(
            json.dumps({"source_id": "s1", "ids": ["A", "B"]})
            + "\n1.0 0.5\n0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="expected 2 values, got 1"):
            load_utility_matrices(path)

    def test_non_numeric_entry_rejected(self, tmp_path):
        path = tmp_path / "util.txt"
        path.write_text(
            json.dumps({"source_id": "s1", "ids": ["A", "B"]})
            + "\n1.0 0.5\n0.5 oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="non-numeric"):
            load_utility_matrices(path)

    @pytest.mark.parametrize("entry", ["1_0", "0_5", "\u0661", "\uff11", "0.\u0665"])
    def test_entries_float_reads_but_crpo_never_writes_are_rejected(self, tmp_path, entry):
        # float() reads "1_0" as 10.0, and Arabic-Indic and fullwidth digits
        # as numbers; crpo writes ASCII reprs only.
        float(entry)
        path = tmp_path / "util.txt"
        path.write_text(
            json.dumps({"source_id": "s1", "ids": ["A", "B"]})
            + f"\n1.0 0.5\n0.5 {entry}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=r"util\.txt:3: non-numeric matrix entry$"):
            load_utility_matrices(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "util.txt"
        path.write_text('{"ids": ["A"]}\n1.0\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="header needs source_id"):
            load_utility_matrices(path)

    def test_duplicate_source_rejected(self, tmp_path):
        path = tmp_path / "util.txt"
        block = json.dumps({"source_id": "s1", "ids": ["A", "B"]}) + "\n1.0 0.5\n0.5 1.0\n"
        path.write_text(block + block, encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate matrix"):
            load_utility_matrices(path)
