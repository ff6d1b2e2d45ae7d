import argparse
import csv
import dataclasses
import hashlib
import io
import json
import subprocess
import sys

import pytest

from permlat import make_named
from permlat.bounds import (
    BoundInstance,
    bound_results,
    factorization_instance_count,
    fitting_centralizer_check,
    sweep_factorization_bounds,
    sweep_rank2_bounds,
)
from permlat.cache import _nodes_digest
from permlat.cli import (_bound_csv_row, _bound_json, _bound_json_texts,
                         _bound_text_row, build_parser, main)
from permlat.lattice import enumerate_subgroups


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreesCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "--group", "S3")
        assert code == 0
        assert "sd" in out and "5/6" in out and "1/2" in out

    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "--group", "S3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sd"] == {"num": "5", "den": "6",
                                 "approx": "0.833333333333"}
        assert payload["d"]["num"] == "1" and payload["d"]["den"] == "2"
        assert payload["spd"]["num"] == "1"
        assert payload["lattice_size"] == 6
        assert payload["permuting_pair_count"] == 30

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "degrees", "--group", "S4",
                              "--format", "json")
        _, second, _ = run_cli(capsys, "degrees", "--group", "S4",
                               "--format", "json")
        assert first == second

    def test_trivial_group(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "--group", "C1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["spd"] is None and payload["sd"]["num"] == "1"

    def test_trivial_group_table(self, capsys):
        # C1 has no maximal subgroups: its |M| rows read like its spd row
        code, out, _ = run_cli(capsys, "degrees", "--group", "C1")
        assert code == 0 and "None" not in out
        rows = dict(line.rsplit(None, 1) for line in out.splitlines())
        assert [rows[k] for k in ("|M| raw", "|M| closed", "spd (raw)")] == [
            "undefined"] * 3

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "--group", "Q8",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("group,order,lattice_size")
        assert lines[1].startswith("Q8,8,6,")

    def test_product_spec(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", "--group", "S3xC5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 30
        assert payload["sd"] == {"num": "5", "den": "6",
                                 "approx": "0.833333333333"}

    def test_convention_flag(self, capsys):
        _, raw, _ = run_cli(capsys, "degrees", "--group", "A4",
                            "--format", "json")
        _, closed, _ = run_cli(capsys, "degrees", "--group", "A4",
                               "--format", "json", "--convention", "closed")
        assert json.loads(raw)["spd"]["num"] == "3"
        assert json.loads(closed)["spd"] == {"num": "5", "den": "7",
                                             "approx": "0.714285714286"}


class TestInfoAndLattice:
    def test_info(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--group", "A4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fitting_order"] == 4
        assert payload["centralizer_index"] == 3
        assert payload["prime_divisors"] == [2, 3]

    def test_lattice_table(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--group", "S3")
        assert code == 0
        assert "6 subgroups" in out

    def test_lattice_json_flags(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--group", "A4",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["node_count"] == 10
        normal_orders = sorted(n["order"] for n in payload["nodes"] if n["normal"])
        assert normal_orders == [1, 4, 12]
        assert payload["diagnostics"]["sylow_subset_of_maximal_raw"] is True

    def test_lattice_diagnostic_sylow_not_maximal_s4(self, capsys):
        _, out, _ = run_cli(capsys, "lattice", "--group", "S4",
                            "--format", "json")
        payload = json.loads(out)
        assert payload["diagnostics"]["sylow_subset_of_maximal_raw"] is False


class TestBoundsCommand:
    def test_lemma2_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--group", "A4",
                               "--claim", "lemma2")
        assert code == 0
        assert "29/200" in out and "16/25" in out

    def test_all_claims_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--group", "S3",
                               "--claim", "all", "--format", "json",
                               "--theorem1-reading", "relaxed")
        assert code == 0
        payload = json.loads(out)
        claims = {r["claim"] for r in payload["results"]}
        assert {"lemma1", "lemma2", "cor26", "cauchy-sd", "cauchy-spd",
                "lb3", "mu-bound"} <= claims
        for r in payload["results"]:
            if r["hypothesis_satisfied"]:
                assert r["holds"] is True

    def test_explicit_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--group", "S3",
                               "--claim", "cauchy", "--n-node", "4",
                               "--h-node", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        sd_rows = [r for r in payload["results"] if r["claim"] == "cauchy-sd"]
        assert len(sd_rows) == 1
        assert sd_rows[0]["bound"]["num"] == "1"
        assert sd_rows[0]["bound"]["den"] == "81"

    def test_node_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--group", "S3",
                               "--n-node", "40")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("option, claim", [
        *(("--h-node", c) for c in ("lemma2", "cor26", "theorem1", "mu")),
        *(("--n-node", c) for c in ("theorem1", "mu"))])
    def test_node_option_the_claim_does_not_read(self, capsys, option, claim):
        code, out, err = run_cli(capsys, "bounds", "--group", "S4",
                                 "--claim", claim, option, "3")
        assert code == 2 and out == ""
        assert f"{option} does not apply to --claim {claim}" in err

    def test_theorem1_nonqualifying_reported(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--group", "S5",
                               "--claim", "theorem1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 1 and not rows[0]["hypothesis_satisfied"]


def _row_multiset(rows, claims):
    return sorted(json.dumps(r, sort_keys=True) for r in rows if r["claim"] in claims)


@pytest.mark.parametrize("spec", ["S4", "A4xC5", "D4xS3", "C5"])
def test_bounds_command_and_sweeps_decide_the_same_instances(capsys, spec):
    lat = enumerate_subgroups(make_named(spec))
    factorization = ("cauchy-spd", "cauchy-sd", "lb3")
    for conv in ("raw", "closed"):
        sweep = [_bound_json(r) for r in sweep_factorization_bounds(lat, conv)]
        for reading in ("strict", "relaxed"):
            code, out, _ = run_cli(capsys, "bounds", "--group", spec, "--claim",
                                   "all", "--format", "json", "--convention", conv,
                                   "--theorem1-reading", reading)
            assert code == 0
            rows = json.loads(out)["results"]
            assert (_row_multiset(rows, factorization)
                    == _row_multiset(sweep, factorization))
            # theorem1 reports its instances under the lemma keys as well
            rank2 = sweep_rank2_bounds(lat, conv, reading == "relaxed")
            check = fitting_centralizer_check(lat, conv, reading)
            if check.hypotheses:
                rank2 += [*check.part_i, check.part_ii]
            assert (_row_multiset(rows, ("lemma1", "lemma2"))
                    == _row_multiset(map(_bound_json, rank2), ("lemma1", "lemma2")))


# sha256 of ``permlat bounds --format json`` (all claims): the bound
# driver's output is held byte for byte, node labels, reason strings and
# instance order included
BOUNDS_JSON_SHA256 = [
    ("D4xS3", "raw", "strict", "838c4d9d56a065a8fd8b90e9de9f98565ad2dde514d23fd6361c28376bed61ab"),
    ("D4xS3", "raw", "relaxed", "dda845819548e8aabaac45410d0bb0b789931deec56196be42af3dd94500ed8b"),
    ("D4xS3", "closed", "strict", "e280313801d9de7712464f30071b18598b602a76ff9f1d1d604229f62e6f3d44"),
    ("D4xS3", "closed", "relaxed", "a8c9b5f3897d0d00056d7b53fa9d559d0ba5b581544a80889d948bfc95d60275"),
    ("Q8xS3", "raw", "strict", "949f6dedcf4ea34a1a4f84ebb09de9faeb0fbd6ea201550b8e7cfe000d289eef"),
    ("Q8xS3", "raw", "relaxed", "f61cb62dc6ce7d353be89d01e33eab6d6da311c2779216dcb856362d47f0e128"),
    ("Q8xS3", "closed", "strict", "4372f0154c9ccfa49f761efa836ea928bcb9bdb0a2be1f015c29a51063e508c7"),
    ("Q8xS3", "closed", "relaxed", "498a5d67d83fe1aefdce8a6f93a7e09b23c4600cbbb47efb612a29351309dc07"),
    ("S4xC3", "raw", "strict", "f26657246d0f6dae4d1bc8c8eaefeeba024a586aa832bc9860b187d37e51bd0b"),
    ("S4xC3", "raw", "relaxed", "f4867a34ee91bd92e5c3cc97d9cd9a968edd6a950c4395d17217e3ddb39bed7f"),
    ("S4xC3", "closed", "strict", "e33aaa5f687011cac4181778bd99c59a088341e1d290da1d483d1bbeca950fb5"),
    ("S4xC3", "closed", "relaxed", "08fa4db14ebfabbb14a21bc7b1bff6476c487d511e1a9ea5e1e1db3677e146c4"),
]


@pytest.mark.parametrize("spec,conv,reading,digest", BOUNDS_JSON_SHA256,
                         ids=lambda v: v[:12] if len(v) == 64 else v)
def test_bounds_json_is_byte_identical_to_the_recorded_output(
        capsys, spec, conv, reading, digest):
    code, out, _ = run_cli(capsys, "bounds", "--group", spec, "--convention", conv,
                           "--theorem1-reading", reading, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of ``permlat bounds --format csv`` and of the text output (all
# claims), recorded before the output was streamed row by row. CSV carries
# no reasons and no theorem1 shape, so both readings give the same digest
BOUNDS_CSV_AND_TEXT_SHA256 = [
    ("csv", "D4xS3", "raw", "strict", "90c8a624eecbe1907ecd2368929132612a87b7a0fedd7708c06dc2f57e4be118"),
    ("csv", "D4xS3", "raw", "relaxed", "90c8a624eecbe1907ecd2368929132612a87b7a0fedd7708c06dc2f57e4be118"),
    ("csv", "D4xS3", "closed", "strict", "2e65407ebb0a24440ed51ee97fe38800b4b9a9cd4a552364aeccececdbe05a18"),
    ("csv", "D4xS3", "closed", "relaxed", "2e65407ebb0a24440ed51ee97fe38800b4b9a9cd4a552364aeccececdbe05a18"),
    ("csv", "Q8xS3", "raw", "strict", "cbde335ef759d3680b7df9ddbf2c24ad296e1f2057e75500263d19c36b71b1b2"),
    ("csv", "Q8xS3", "raw", "relaxed", "cbde335ef759d3680b7df9ddbf2c24ad296e1f2057e75500263d19c36b71b1b2"),
    ("csv", "Q8xS3", "closed", "strict", "8f37ea31cce82b78e01e25782215168873913520aa52da5743d904a40dfeafef"),
    ("csv", "Q8xS3", "closed", "relaxed", "8f37ea31cce82b78e01e25782215168873913520aa52da5743d904a40dfeafef"),
    ("csv", "S4xC3", "raw", "strict", "e581ec8f0100fccfe8c74bac3585981d83425988ed2ed301030dfaef38b3e29a"),
    ("csv", "S4xC3", "raw", "relaxed", "e581ec8f0100fccfe8c74bac3585981d83425988ed2ed301030dfaef38b3e29a"),
    ("csv", "S4xC3", "closed", "strict", "6ba015ead8c165b2dfc05ce1aa16ba041adcac99c70e1ba3361943268940eb5d"),
    ("csv", "S4xC3", "closed", "relaxed", "6ba015ead8c165b2dfc05ce1aa16ba041adcac99c70e1ba3361943268940eb5d"),
    ("table", "D4xS3", "raw", "strict", "f26c381b60a7c233177d32bfa015192de31ceaec2d5b6d25c91868f6a5489ede"),
    ("table", "D4xS3", "raw", "relaxed", "f76db5382de03f6d9d229b17ffe43510372c8d56aeafea6d72ff8c58dcf808f8"),
    ("table", "D4xS3", "closed", "strict", "fd440c737c657946c45e688ee304d4f70f53f749aabdac60358c3bdc1901644e"),
    ("table", "D4xS3", "closed", "relaxed", "1d6dffbd099b64b22201c7e7b5eaed3cf0bea8a9efa7af0a8194225ba1bb50eb"),
    ("table", "Q8xS3", "raw", "strict", "d012265ef019ade166df2196f9b0bb9007b67f742134ffb3dd3762d27d71d67f"),
    ("table", "Q8xS3", "raw", "relaxed", "cc0e28f424625499545caa0eb99f7cca1187c2f042d8b4ebbd6ece99590eee66"),
    ("table", "Q8xS3", "closed", "strict", "7ec2cb65237c54b7244e68dc8ee90944305e7100d5006006755b686a6573a4fe"),
    ("table", "Q8xS3", "closed", "relaxed", "94ccae4d3c034eed420a469d206cbfd18e5d3a8c5bc56fee736af5ab1d557a95"),
    ("table", "S4xC3", "raw", "strict", "99cbdade57adec4182e70a869a6248f68a1201078eba0433639912628bf20959"),
    ("table", "S4xC3", "raw", "relaxed", "092d84046a57b98c6ba6733e38d393100d18583724b5c9e8d9e740445d2dc702"),
    ("table", "S4xC3", "closed", "strict", "388410aed530f46cfe38b178ce97868c171e571ffd7b1ece7bbdbb6a1e345dcc"),
    ("table", "S4xC3", "closed", "relaxed", "bd6dc656b92fd50e72757fc739b31a1b05e9286cda8c614d1a9e29f173cb4335"),
]


@pytest.mark.parametrize("fmt,spec,conv,reading,digest", BOUNDS_CSV_AND_TEXT_SHA256,
                         ids=lambda v: v[:12] if len(v) == 64 else v)
def test_bounds_csv_and_text_are_byte_identical_to_the_recorded_output(
        capsys, fmt, spec, conv, reading, digest):
    code, out, _ = run_cli(capsys, "bounds", "--group", spec, "--convention", conv,
                           "--theorem1-reading", reading, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the other commands' output on S4 and A4xC5 and of ``permlat
# batch --max-order 12``, in every format, recorded before each subcommand
# took only the options it reads
OUTPUT_SHA256 = [
    (("degrees", "--group", "S4", "--format", "table"),
     "7af473280acb38ee606ff2bb4f2d65427720d4bdd0c6a4f51495605d371b8969"),
    (("degrees", "--group", "S4", "--format", "json"),
     "f430fb7b4dd774f35cbcebe9fa9694f5d94189f50c2b0ac2737a18afbdfb5b8d"),
    (("degrees", "--group", "S4", "--format", "csv"),
     "3ff7aa9d2e25d09e662c235d8b2b82a57c94c2a5b2b250756517046e09272a10"),
    (("degrees", "--group", "A4xC5", "--format", "table"),
     "62ee0ecb6c37e50fb04629d55e7d0069b2a1a93aa1ec0cf8df6edfbcfcd1bf6a"),
    (("degrees", "--group", "A4xC5", "--format", "json"),
     "048af9d3dc7814c1a87c2cab27e7e14d4f312a8e2a6af476060ca824108c60c5"),
    (("degrees", "--group", "A4xC5", "--format", "csv"),
     "05208a49930b28bbbe3787363aa35aa8d415e196174f98b4e0653e9a3fd7db66"),
    # the two largest row tables that the pinned row digests cover
    (("degrees", "--group", "S4xS4"),
     "96cf9a0603183d47396150cbd274cd859a6320dfbaa9a70f0e91d26b3d3ac000"),
    (("degrees", "--group", "D4xD4xC2"),
     "63253d9e72c42075215607ceaa2832780ef17bc9ebb6de8ca9f67b44bc922520"),
    (("lattice", "--group", "S4", "--format", "table"),
     "64a5c1b686aee9780248dfc4e5e1e5d02820decdf89cabba13fd46f52286b04f"),
    (("lattice", "--group", "S4", "--format", "json"),
     "ab65366267d681c4ea4a3ecb7ace81e5c18408f2b4ff4a30d640747a6ad38713"),
    (("lattice", "--group", "S4", "--format", "csv"),
     "2dfb5c8e1cf306e878fa0018b2dcc352eef3f8d4b433eb1ffdb13ed5476df014"),
    (("lattice", "--group", "A4xC5", "--format", "table"),
     "812aa95cd7937f5d09ae3ada45657d0f53e4b0dd347192a84e26be1ee1ca27a2"),
    (("lattice", "--group", "A4xC5", "--format", "json"),
     "6d4350199e657ae67910e25e566a1c280c549ed9d7ec3594da50712920842de2"),
    (("lattice", "--group", "A4xC5", "--format", "csv"),
     "17ba156c990f062351154473e01530e1088cc74c0270d0af1b303b439d4a8245"),
    (("moebius", "--group", "S4", "--format", "table"),
     "9febc74a871f65d978f1ccdb329ff9f69f1ff291c1c39f57c7144400bb59fdcb"),
    (("moebius", "--group", "S4", "--format", "json"),
     "8fe14a020707585346b9085cae38cd92eaab4829d8efcd5130bed6aa04830adb"),
    (("moebius", "--group", "S4", "--format", "csv"),
     "d39299d3f06234d36c886701cc180b94f283f092aab9f7147f9fd828ad65451a"),
    (("moebius", "--group", "A4xC5", "--format", "table"),
     "2f4f07e591a2ad7e70ef832349866fb486f1eaf29619e8bce1765c6f2b3c3b67"),
    (("moebius", "--group", "A4xC5", "--format", "json"),
     "5ff589c3a1efe673a2f49399c6e4faeebb79ad675269eaf242c439a74dad2732"),
    (("moebius", "--group", "A4xC5", "--format", "csv"),
     "24e346bd4077653980cab3e0cd0b8225c6c212945f090ee4690c916a0e152937"),
    (("bounds", "--group", "S4", "--format", "table"),
     "199fa8be313a465362b16aad4fc8a5b4661a0709e9948b50389348acadc51292"),
    (("bounds", "--group", "S4", "--format", "json"),
     "8766d71e9014cc940be8b646fe6a6d91024f4df3049988b007bb92b779b4a45a"),
    (("bounds", "--group", "S4", "--format", "csv"),
     "0dfbd3c9158cd36db9cfcbf3094fdc00d03c6878117f0b0a28f9a0d485bf8919"),
    (("bounds", "--group", "A4xC5", "--format", "table"),
     "f3d296dabb4e26403093927b13716c74fe97f1c054eb511f7498b3e7381383e3"),
    (("bounds", "--group", "A4xC5", "--format", "json"),
     "61556c4e347e594e12ac2f999fcceb5f8634dde290f9e2a1b27ddba913c83d01"),
    (("bounds", "--group", "A4xC5", "--format", "csv"),
     "883a1b633eb21ea802e7885316c31a0830e6091b2cd4db43ea2ccf0c065185bf"),
    # many H per profile, and one cauchy decision over many N
    (("bounds", "--group", "S4xS4", "--format", "csv"),
     "e136b0d47fb943b04c4edb3f9a6c38d58bc70ccea8732a90692786978941cb77"),
    (("bounds", "--group", "Z:2,2,2,2", "--convention", "closed", "--format", "json"),
     "45c3e0517e82d049b7892dda34735176dc73035ddbb4ca15a9c2612fd17517f3"),
    (("info", "--group", "S4", "--format", "table"),
     "f2c8dc989c4512a112f1c9d22e1857d026c2f170e1355b287c36336d8413d24a"),
    (("info", "--group", "S4", "--format", "json"),
     "0d1c1570d657a032fcc9d1186e33e7c12e0f998316748c868736025ac6321da6"),
    (("info", "--group", "S4", "--format", "csv"),
     "ca48b3778128c930075a8839dd408ef860d939e2820e8ce201e358ac8ac38fe3"),
    (("info", "--group", "A4xC5", "--format", "table"),
     "4ffd5af8c8728d4f84eae0fa264d23085b795effcee8b98b693f1ddf66aca255"),
    (("info", "--group", "A4xC5", "--format", "json"),
     "a565a9fc99c39e7df27ac07c173fd30e39db2482475f38e70b4a7547ea524ee0"),
    (("info", "--group", "A4xC5", "--format", "csv"),
     "9fbf4fb7e17d1f827abf92d0e137761bff6177d753076a3f458f31587cf95d38"),
    (("batch", "--max-order", "12", "--format", "table"),
     "82728c2139be976fa0c7b2a272841d79db5c88e5fa14cbc4a4af31c9631290ab"),
    (("batch", "--max-order", "12", "--format", "json"),
     "ec9ee14951485755fac2c2e2db95a5840bb4b7ad22b276b74aa0a2288fc88d72"),
    (("batch", "--max-order", "12", "--format", "csv"),
     "a90dc5b795e35247311195f79994918532669debd94c9b847eb01636fbec14b5"),
]


@pytest.mark.parametrize("argv,digest", OUTPUT_SHA256,
                         ids=lambda v: v[:12] if isinstance(v, str) else "-".join(v))
def test_output_is_byte_identical_to_the_recorded_output(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_command_renders_row_by_row(capsys, monkeypatch):
    """JSON and CSV go out one row at a time: no call to ``json.dumps`` or
    to the CSV writer gets more than one result, and JSON dumps each shared
    decision once."""
    count = len(bound_results(enumerate_subgroups(make_named("D4xS3")), "all"))
    dumped, written = [], []
    real_dumps, real_writer = json.dumps, csv.writer

    def dumps(obj, *args, **kwargs):
        dumped.append(obj)
        return real_dumps(obj, *args, **kwargs)

    class Writer:
        def __init__(self, *args, **kwargs):
            self.inner = real_writer(*args, **kwargs)

        def writerow(self, row):
            written.append(row)
            return self.inner.writerow(row)

        def writerows(self, rows):
            rows = list(rows)
            written.append(rows)
            return self.inner.writerows(rows)

    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(csv, "writer", Writer)
    for fmt in ("json", "csv"):
        code, _, _ = run_cli(capsys, "bounds", "--group", "D4xS3", "--format", fmt)
        assert code == 0
    # one dump for the payload's head, then at most one per row
    assert 1 < len(dumped) < count
    assert dumped[0] == {"group": "D4xS3", "results": []}
    assert all(isinstance(obj, dict) and "claim" in obj for obj in dumped[1:])
    # one row per call of the CSV writer
    assert len(written) == count + 1
    assert all(isinstance(cell, str) for row in written for cell in row)


@pytest.mark.parametrize("spec", ["S4", "D4xS3", "Z:2,2,2,2"])
def test_bound_json_texts_are_the_dumps_of_the_rows(spec):
    results = bound_results(enumerate_subgroups(make_named(spec)), "all", "closed")
    assert (list(_bound_json_texts(results))
            == [json.dumps(_bound_json(r), indent=2) for r in results])
    # a stand-in label as a value of the decision's own context falls back
    # to a whole dump of the row
    view = next(r for r in results if isinstance(r, BoundInstance))
    odd = BoundInstance(dataclasses.replace(
        view.decision, context=dict(view.decision.context, group="\0h")), "a", "b")
    assert list(_bound_json_texts([odd])) == [json.dumps(_bound_json(odd), indent=2)]


@pytest.mark.parametrize("spec", ["S4", "D4xS3", "Z:2,2,2,2"])
def test_bound_rows_of_a_view_match_the_rows_of_its_whole_result(spec):
    # a view's text and CSV rows read its labels and the decision's context;
    # they must equal the rows of a result carrying the view's full context,
    # also when the decision's context holds a shape
    results = bound_results(enumerate_subgroups(make_named(spec)), "all", "closed")
    views = [r for r in results if isinstance(r, BoundInstance)]
    views.append(BoundInstance(dataclasses.replace(
        views[0].decision, context=dict(views[0].decision.context, shape="(p=2)")),
        "a", "b"))
    for view in views:
        whole = dataclasses.replace(view.decision, context=view.context)
        assert _bound_text_row(view) == _bound_text_row(whole)
        assert _bound_csv_row(view) == _bound_csv_row(whole)


@pytest.mark.parametrize("spec,notices", [("Z:2,2,2,2,2", 1), ("S6", 0)])
def test_bounds_notice_goes_out_before_any_checker_runs(capsys, monkeypatch,
                                                        spec, notices):
    from permlat import cli

    seen = []

    def no_checks(*args):
        seen.append(capsys.readouterr().err)
        return iter(())

    monkeypatch.setattr(cli, "iter_bound_results", no_checks)
    code, _, err = run_cli(capsys, "bounds", "--group", spec)
    assert code == 0 and err == ""
    assert len(seen) == 1 and len(seen[0].splitlines()) == notices
    if notices:
        count = factorization_instance_count(enumerate_subgroups(make_named(spec)))
        assert count > cli.LONG_RUN_INSTANCES
        assert f"{count:,}" in seen[0]


class TestMoebiusCommand:
    def test_symmetric_json(self, capsys):
        code, out, _ = run_cli(capsys, "moebius", "--group", "S4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_bottom"] == -12
        assert payload["predicted"] == -12
        assert payload["agrees"] is True

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_group_file_named_like_a_symmetric_group_has_no_prediction(
            self, capsys, tmp_path, fmt):
        # a file's name is free text: this C2 table calls itself S4
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(
            {"kind": "cayley", "name": "S4", "table": [[0, 1], [1, 0]]}))
        code, out, _ = run_cli(capsys, "moebius", "--input", str(path),
                               "--format", fmt)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["mu_bottom"], payload["predicted"], payload["agrees"],
                    payload["conjectured"]) == (-1, None, None, None)
        elif fmt == "csv":
            assert out.splitlines()[1] == "S4,2,-1,,,"
        else:
            rows = dict(line.split(None, 1) for line in out.splitlines()
                        if not line.startswith("|L|"))
            assert [rows[k] for k in ("predicted", "agrees", "conjectured")] == ["-"] * 3

    def test_non_symmetric_group_has_no_prediction(self, capsys):
        _, out, _ = run_cli(capsys, "moebius", "--group", "A4",
                            "--format", "json")
        payload = json.loads(out)
        assert payload["mu_bottom"] == 4
        assert payload["predicted"] is None and payload["agrees"] is None


class TestBatchAndVerify:
    def test_batch_csv(self, capsys):
        code, out, _ = run_cli(capsys, "batch", "--max-order", "12",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        groups = [row[0] for row in rows[1:]]
        assert groups == ["C1", "C2", "C3", "C5", "C12", "Z:2,2", "Z:2,4",
                          "Z:2,2,2", "Z:3,3", "S3", "D4", "Q8", "A4", "D6"]

    def test_verify_capped_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--max-order", "30")
        assert code == 0
        assert "0 failed" in out

    def test_verify_full_reports_the_known_false_product_rule(self, capsys):
        # spd is not multiplicative on A4 x C5; the suite must say so honestly.
        # The check decides the weighted-mean law that does hold and names
        # the paper's false product rule with its witness on the PASS line.
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        assert not [line for line in out.splitlines() if line.startswith("FAIL")]
        line = next(line for line in out.splitlines()
                    if line.startswith("PASS coprime-multiplicativity"))
        assert "product rule is false" in line
        assert "2/3" in line and "3/5" in line

    def test_verify_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--max-order", "20",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(row["status"] in ("PASS", "SKIP") for row in payload)


class TestInputsAndErrors:
    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(
            {"kind": "permutation", "degree": 3,
             "generators": [[1, 2, 0], [1, 0, 2]], "name": "tri"}))
        code, out, _ = run_cli(capsys, "degrees", "--input", str(path),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["sd"]["num"] == "5"

    def test_unknown_group(self, capsys):
        code, _, err = run_cli(capsys, "degrees", "--group", "E8")
        assert code == 2 and "error" in err

    def test_missing_group(self, capsys):
        code, _, err = run_cli(capsys, "degrees")
        assert code == 2

    def test_both_group_and_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "named", "spec": "C2"}))
        code, _, err = run_cli(capsys, "degrees", "--group", "C2",
                               "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("spec, message", [
        ("C0", "empty multiplication table"),
        ("S0", "degree must be >= 1"),
        ("A0", "degree must be >= 1"),
        ("D0", "dihedral parameter must be >= 1"),
        ("Z:0", "bad cyclic factors [0]"),
        ("Z:2,0", "bad cyclic factors [2, 0]"),
    ])
    def test_degenerate_descriptor_is_a_group_error(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "info", "--group", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_order_cap_respected(self, capsys):
        code, _, err = run_cli(capsys, "degrees", "--group", "S5",
                               "--max-order", "60")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize("argv", [
        ("batch", "--group", "S4"),
        ("verify-paper", "--format", "csv"),
        ("info", "--group", "S4", "--cache", "DIR"),
        ("moebius", "--group", "S4", "--convention", "raw"),
    ], ids=" ".join)
    def test_option_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permlat", "nonsense"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permlat", "degrees", "--group", "C6",
             "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("C6,6,")

    def test_closed_output_pipe_exits_1_without_an_error_line(self):
        # the bounds of S5xS3 run to megabytes, far past a pipe's buffer, so
        # the writer is still writing when the reader closes after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "permlat", "bounds", "--group", "S5xS3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"n/a  lemma1")
        proc.stdout.close()
        # stderr holds at most an error line, well inside its pipe's buffer
        code = proc.wait(timeout=120)
        with proc.stderr:
            assert proc.stderr.read() == b""
        assert code == 1

    @pytest.mark.parametrize("option", ["--input", "--cache"])
    def test_real_os_error_exits_2(self, tmp_path, option):
        # a missing group file cannot be read, and a cache directory that is
        # a regular file cannot be written
        path = tmp_path / "file"
        if option == "--cache":
            path.write_text("")
            argv = ["degrees", "--group", "S3", "--cache", str(path)]
        else:
            argv = ["degrees", "--input", str(path)]
        proc = subprocess.run([sys.executable, "-m", "permlat", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: [Errno")

    def test_json_deterministic_across_processes(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "permlat", "degrees", "--group", "D6",
                 "--format", "json"],
                capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_trivial_group_lattice_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--group", "C1",
                               "--format", "json")
        assert code == 0 and json.loads(out)["node_count"] == 1
        code, out, _ = run_cli(capsys, "bounds", "--group", "C1",
                               "--claim", "all", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        # cauchy visits every normal N, so C1 = 1 * 1 is one degenerate
        # factorization; its sd bound is 1 * 1 / 1 against sd(C1)^2 = 1
        qualifying = [r for r in rows if r["hypothesis_satisfied"]]
        assert len(qualifying) == 1
        row = qualifying[0]
        assert row["claim"] == "cauchy-sd" and row["holds"] is True
        assert row["context"]["n"] == row["context"]["h"] == "#0(order 1)"
        assert row["bound"]["num"] == row["bound"]["den"] == "1"
        assert row["actual"]["num"] == row["actual"]["den"] == "1"

    @pytest.mark.parametrize("payload, defect", [
        ({"kind": "cayley", "table": [[0, 1, 2], [1, 2], [2, 0, 1]]},
         "row 1 has 2 entries, not 3"),
        ({"kind": "cayley", "table": [[0], [1, 0]]}, "row 0 has 1 entries, not 2"),
        ({"kind": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
         "column 1 is not a permutation of 0..2"),
        ({"kind": "cayley", "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                      [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                                      [4, 3, 1, 2, 0]]},
         "associativity fails at (1,1,2)"),
        ({"kind": "permutation", "degree": 3, "generators": [[0, 0, 1]]},
         "generator [0, 0, 1] is not a bijection on 0..2"),
        ({"kind": "cayley"}, "cayley group file has no 'table' field"),
        ({"kind": "permutation", "degree": 3},
         "permutation group file has no 'generators' field"),
        ([{"kind": "named", "spec": "C2"}],
         "group file must hold a JSON object, not list"),
        ({"kind": "cayley", "table": [5]},
         "cayley group file: 'table' must be a list of integer rows"),
        # the identity is 1 or 2, so these tables are relabelled first
        ({"kind": "cayley", "table": [[1, 0, 5], [0, 1, 2], [2, 2, 0]]},
         "row 1 is not a permutation of 0..2"),
        ({"kind": "cayley", "table": [[-2, 2, 0], [2, 0, 1], [0, 1, 2]]},
         "row 2 is not a permutation of 0..2"),
        # entries must be exact ints: bool, float and str are rejected
        ({"kind": "cayley", "table": [[0, 1], [1, True]]},
         "cayley group file: 'table' must be a list of integer rows"),
        ({"kind": "cayley", "table": [[0, 1], [1, 0.0]]},
         "cayley group file: 'table' must be a list of integer rows"),
        ({"kind": "cayley", "table": [[0, 1], [1, "0"]]},
         "cayley group file: 'table' must be a list of integer rows"),
        ({"kind": "cayley", "table": "0110"},
         "cayley group file: 'table' must be a list of integer rows"),
        ({"kind": "cayley", "table": []}, "table has no two-sided identity"),
        ({"kind": "cayley", "table": [[]]}, "row 0 has 0 entries, not 1"),
        ({"kind": "permutation", "degree": 2, "generators": [[True, 0]]},
         "permutation group file: 'generators' must be a list of integer lists"),
    ], ids=["ragged", "ragged-short-row", "non-latin", "non-associative",
            "non-bijective", "no-table", "no-generators", "top-level-list",
            "number-row", "entry-too-large", "entry-negative", "bool-entry",
            "float-entry", "str-entry", "string-table", "empty-table",
            "empty-row", "bool-generator-entry"])
    def test_malformed_group_file(self, capsys, tmp_path, payload, defect):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "degrees", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {defect}\n"

    def test_cayley_input_file(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps({
            "kind": "cayley",
            "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        }))
        code, out, _ = run_cli(capsys, "degrees", "--input", str(path),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 4 and payload["lattice_size"] == 5

    def test_large_cayley_input_matches_named_group(self, capsys, tmp_path):
        # S6 relabelled by x -> n-1-x, so the identity sits at 719
        t = make_named("S6").table
        n = len(t)
        table = [[n - 1 - t[n - 1 - x][n - 1 - y] for y in range(n)]
                 for x in range(n)]
        path = tmp_path / "s6.json"
        path.write_text(json.dumps({"kind": "cayley", "table": table}))
        code, out, _ = run_cli(capsys, "degrees", "--input", str(path),
                               "--format", "json")
        assert code == 0
        ingested = json.loads(out)
        _, out, _ = run_cli(capsys, "degrees", "--group", "S6", "--format", "json")
        named = json.loads(out)
        assert ingested.pop("group") == "cayley" and named.pop("group") == "S6"
        assert ingested == named


class TestCache:
    def test_cache_roundtrip_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        _, miss, _ = run_cli(capsys, "degrees", "--group", "S4",
                             "--cache", cache, "--format", "json")
        _, hit, _ = run_cli(capsys, "degrees", "--group", "S4",
                            "--cache", cache, "--format", "json")
        _, fresh, _ = run_cli(capsys, "degrees", "--group", "S4",
                              "--format", "json")
        assert miss == hit == fresh

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, fresh, _ = run_cli(capsys, "lattice", "--group", "D6",
                              "--cache", str(cache), "--format", "json")
        # bad JSON, a byte that is not UTF-8, and nesting too deep to decode
        for payload in (b"{broken", b'{"format": "\xff"}', b"[" * 100_000):
            for entry in cache.iterdir():
                entry.write_bytes(payload)
            code, out, err = run_cli(capsys, "lattice", "--group", "D6",
                                     "--cache", str(cache), "--format", "json")
            assert code == 0, payload[:20]
            assert out == fresh
            assert "corrupt" in err

    @pytest.mark.parametrize("dropped", [1, 3])
    def test_cache_with_dropped_nodes_recovers(self, capsys, tmp_path, dropped):
        # an edited node list with a consistent node_count: dropping one of
        # S3's three order-2 subgroups used to crash in class_of, dropping all
        # three used to report |L| = 3 and sd = 1
        cache = tmp_path / "cache"
        _, fresh, _ = run_cli(capsys, "degrees", "--group", "S3",
                              "--cache", str(cache), "--format", "json")
        (entry,) = cache.iterdir()
        payload = json.loads(entry.read_text())
        order2 = [v for v in payload["nodes"] if int(v, 16).bit_count() == 2]
        assert len(order2) == 3
        payload["nodes"] = [v for v in payload["nodes"] if v not in order2[:dropped]]
        payload["node_count"] = len(payload["nodes"])
        entry.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "degrees", "--group", "S3",
                                 "--cache", str(cache), "--format", "json")
        assert code == 0
        assert "corrupt" in err
        assert out == fresh
        assert json.loads(entry.read_text())["node_count"] == 6

    @pytest.mark.parametrize("spec, order", [("S3", 3), ("S4", 4)])
    def test_cache_without_a_cyclic_node_recovers(self, capsys, tmp_path, spec, order):
        # an edited node list without one cyclic subgroup, with node_count
        # and digest rewritten to match, used to load and then crash with a
        # KeyError in cyclic_nodes
        cache = tmp_path / "cache"
        _, fresh, _ = run_cli(capsys, "degrees", "--group", spec,
                              "--cache", str(cache), "--format", "json")
        (entry,) = cache.iterdir()
        payload = json.loads(entry.read_text())
        g = make_named(spec)
        masks = [int(v, 16) for v in payload["nodes"]]
        dropped = next(m for m in masks if m.bit_count() == order
                       and any(g.cyclic_mask(x) == m for x in range(g.order)))
        masks.remove(dropped)
        payload["nodes"] = [format(m, "x") for m in masks]
        payload["node_count"] = len(masks)
        payload["nodes_sha256"] = _nodes_digest(payload["nodes"])
        entry.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "degrees", "--group", spec,
                                 "--cache", str(cache), "--format", "json")
        assert code == 0
        assert "corrupt" in err
        assert out == fresh

    def test_cache_with_no_nodes_recovers(self, capsys, tmp_path):
        # an empty node list with node_count 0 and the digest recomputed used
        # to crash the loader with an IndexError
        cache = tmp_path / "cache"
        _, fresh, _ = run_cli(capsys, "degrees", "--group", "S3",
                              "--cache", str(cache), "--format", "json")
        (entry,) = cache.iterdir()
        payload = json.loads(entry.read_text())
        payload.update(nodes=[], node_count=0, nodes_sha256=_nodes_digest([]))
        entry.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "degrees", "--group", "S3",
                                 "--cache", str(cache), "--format", "json")
        assert code == 0
        assert "corrupt" in err
        assert out == fresh


# the options each subcommand reads, besides --help
SUBCOMMAND_OPTIONS = {
    "info": {"--group", "--input", "--max-order", "--format"},
    "lattice": {"--group", "--input", "--convention", "--cache", "--max-order",
                "--format"},
    "degrees": {"--group", "--input", "--convention", "--cache", "--max-order",
                "--format"},
    "bounds": {"--group", "--input", "--convention", "--cache", "--max-order",
               "--format", "--theorem1-reading", "--claim", "--n-node", "--h-node"},
    "moebius": {"--group", "--input", "--cache", "--max-order", "--format"},
    "batch": {"--convention", "--cache", "--max-order", "--format"},
    "verify-paper": {"--cache", "--max-order", "--format", "--stretch"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in cmd._actions for s in a.option_strings}
               - {"-h", "--help"} for name, cmd in sub.choices.items()}
    assert options == SUBCOMMAND_OPTIONS
    formats = {name: next(a.choices for a in cmd._actions if "--format" in a.option_strings)
               for name, cmd in sub.choices.items()}
    assert formats == {name: (("table", "json") if name == "verify-paper"
                              else ("table", "json", "csv")) for name in formats}
